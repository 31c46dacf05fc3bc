"""Characters, weight systems, and exact tensor product decompositions.

Weights are integer tuples in the fundamental-weight basis throughout.
Multiplicities are exact Python ints; no float enters any decomposition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DenominatorVanishesError,
    DomainError,
    EntryCapExceededError,
    InternalConsistencyError,
)
from .numerics import logsumexp, signed_logsumexp
from .rootsys import RootSystem, build_root_system, dominant_reflect, enumerate_weyl_group

Weight = tuple[int, ...]


def _as_weight(coords) -> Weight:
    w = tuple(int(c) for c in coords)
    if any(c != int(c) for c in coords):
        raise DomainError(f"weight coordinates must be integers, got {coords!r}")
    return w


def _check_dominant(lam: Weight):
    if any(c < 0 for c in lam):
        raise DomainError(f"weight {lam} is not dominant")


def weyl_dimension(rs: RootSystem, lam) -> int:
    """dim V(lambda) by the product over positive roots, exact."""
    lam = _as_weight(lam)
    _check_dominant(lam)
    shifted = tuple(c + 1 for c in lam)
    num = Fraction(1)
    den = Fraction(1)
    for idx in range(rs.n_positive):
        num *= rs.pair_weight_posroot(shifted, idx)
        den *= rs.pair_weight_posroot(rs.rho_weight, idx)
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise InternalConsistencyError(f"dimension formula gave {val} for {lam}")
    return int(val)


def second_casimir(rs: RootSystem, lam) -> Fraction:
    """Quadratic Casimir eigenvalue (lambda, lambda + 2 rho), exact."""
    lam = _as_weight(lam)
    shifted = tuple(c + 2 for c in lam)
    return rs.inner_weight(lam, shifted)


@dataclass(frozen=True)
class WeightSystem:
    """All weights of an irreducible module with their multiplicities."""

    rs: RootSystem
    highest: Weight
    multiplicities: dict[Weight, int]
    dominant_multiplicities: dict[Weight, int]

    @property
    def dim(self) -> int:
        return sum(self.multiplicities.values())

    @cached_property
    def weights_weight_f(self) -> np.ndarray:
        return np.array(sorted(self.multiplicities), dtype=float)

    @cached_property
    def weights_root_f(self) -> np.ndarray:
        return self.weights_weight_f @ self.rs.cartan_inv_f.T

    @cached_property
    def mults_f(self) -> np.ndarray:
        return np.array([self.multiplicities[w] for w in sorted(self.multiplicities)], dtype=float)

    @cached_property
    def log_mults_f(self) -> np.ndarray:
        return np.log(self.mults_f)

    @cached_property
    def pairing_rows_f(self) -> np.ndarray:
        """Row per weight: functional t -> (mu, t) on root coordinates."""
        return self.weights_root_f @ self.rs.B_f


_WEIGHT_SYSTEM_CACHE: dict[tuple[str, Weight], WeightSystem] = {}


def weight_multiplicities(rs: RootSystem, lam) -> WeightSystem:
    """Weight system of V(lambda) by the Freudenthal recursion.

    Dominant weights mu <= lambda are enumerated through the root-coordinate
    box 0 <= c <= C^{-1} lambda (entrywise; C^{-1} is positive, so the box
    contains every admissible lambda - mu), processed by increasing height
    of lambda - mu, then each Weyl orbit is filled in by reflections.
    """
    lam = _as_weight(lam)
    _check_dominant(lam)
    key = (str(rs.spec), lam)
    cached = _WEIGHT_SYSTEM_CACHE.get(key)
    if cached is not None:
        return cached

    r = rs.rank
    lam_root = rs.root_coords(lam)
    box = [int(x) for x in lam_root]  # floor, since entries are >= 0
    candidates = []
    for c in _integer_box(box):
        mu = tuple(lam[i] - sum(rs.cartan[i][a] * c[a] for a in range(r)) for i in range(r))
        if all(v >= 0 for v in mu):
            candidates.append((sum(c), mu))
    candidates.sort()

    rho = rs.rho_weight
    lam_rho_norm = rs.inner_weight(tuple(c + 1 for c in lam), tuple(c + 1 for c in lam))
    pos_w = rs.positive_roots_weight
    dom_mult: dict[Weight, int] = {}
    for height, mu in candidates:
        if height == 0:
            dom_mult[mu] = 1
            continue
        mu_rho = tuple(c + 1 for c in mu)
        denom = lam_rho_norm - rs.inner_weight(mu_rho, mu_rho)
        if denom <= 0:
            raise InternalConsistencyError(f"Freudenthal denominator {denom} at {mu}")
        total = Fraction(0)
        for idx, alpha in enumerate(pos_w):
            k = 1
            while True:
                nu = tuple(mu[i] + k * alpha[i] for i in range(r))
                dom, _, _ = dominant_reflect(rs, nu)
                m = dom_mult.get(dom, 0)
                if m == 0:
                    break
                total += 2 * m * rs.pair_weight_posroot(nu, idx)
                k += 1
        val = total / denom
        if val.denominator != 1 or val <= 0:
            raise InternalConsistencyError(f"Freudenthal gave multiplicity {val} at {mu}")
        dom_mult[mu] = int(val)

    full: dict[Weight, int] = {}
    for mu, m in dom_mult.items():
        frontier = [mu]
        full[mu] = m
        while frontier:
            nxt = []
            for w in frontier:
                for a in range(r):
                    wa = w[a]
                    if wa <= 0:
                        continue  # reflect only downward, each orbit point reached once
                    refl = tuple(w[i] - wa * rs.cartan[i][a] for i in range(r))
                    if refl not in full:
                        full[refl] = m
                        nxt.append(refl)
            frontier = nxt

    ws = WeightSystem(rs=rs, highest=lam, multiplicities=full, dominant_multiplicities=dom_mult)
    if ws.dim != weyl_dimension(rs, lam):
        raise InternalConsistencyError(f"weight system of {lam} sums to {ws.dim}, dimension formula disagrees")
    _WEIGHT_SYSTEM_CACHE[key] = ws
    return ws


def _integer_box(limits):
    """All integer tuples 0 <= c_a <= limits[a]."""
    if not limits:
        yield ()
        return
    for head in range(limits[0] + 1):
        for tail in _integer_box(limits[1:]):
            yield (head,) + tail


def character_value(rs: RootSystem, lam, t, method: str = "auto") -> tuple[float, int]:
    """log of the character of V(lambda) at exp(t), with its sign.

    t is a real vector in simple-root coordinates.  The value is a sum of
    exponentials with positive coefficients, so the certified sign is
    always +1; it is returned to keep the signed-log contract explicit.

    method "weight-sum" sums d_mu e^{(mu,t)} over the weight system;
    "weyl-quotient" evaluates the alternating-sum quotient and requires t
    regular (no positive root pairs to zero).  "auto" prefers the quotient
    for regular t when the Weyl group is enumerable, since it needs no
    weight system.
    """
    lam = _as_weight(lam)
    _check_dominant(lam)
    t = np.asarray(t, dtype=float)
    if t.shape != (rs.rank,):
        raise DomainError(f"t must have shape ({rs.rank},)")

    if method == "auto":
        if not np.any(t):
            return math.log(weyl_dimension(rs, lam)), 1
        pairings = rs.pos_pairing_f @ t
        scale = math.sqrt(max(float(t @ rs.B_f @ t), 1e-300))
        regular = bool(np.min(np.abs(pairings)) > 1e-8 * scale)
        from .rootsys import weyl_group_order

        if regular and weyl_group_order(rs.spec) <= 10**6:
            quot = _weyl_quotient_parts(rs, lam, t)
            log_num, sign, max_term, order = quot
            # cancellation in the alternating numerator eats
            # (max_term - log_num) nats; trust the quotient only while the
            # resulting noise stays below 1e-11 in the log value
            noise = order * 2.3e-16 * math.exp(min(max_term - log_num, 700.0))
            if sign == 1 and noise <= 1e-11:
                return log_num, 1
        method = "weight-sum"

    if method == "weight-sum":
        ws = weight_multiplicities(rs, lam)
        exps = ws.log_mults_f + ws.pairing_rows_f @ t
        return logsumexp(exps), 1

    if method == "weyl-quotient":
        pairings = rs.pos_pairing_f @ t
        scale = math.sqrt(max(float(t @ rs.B_f @ t), 1e-300))
        if np.min(np.abs(pairings)) <= 1e-8 * scale:
            raise DenominatorVanishesError(
                "Weyl denominator vanishes: t pairs to zero with a positive root"
            )
        log_val, sign, _, _ = _weyl_quotient_parts(rs, lam, t)
        if sign != 1:
            raise InternalConsistencyError("character sign certificate failed")
        return log_val, sign

    raise ValueError(f"unknown method {method!r}")


def _weyl_quotient_parts(rs: RootSystem, lam, t) -> tuple[float, int, float, int]:
    """(log quotient, sign, numerator max-term log, |W|) for the character at e^t."""
    pairings = rs.pos_pairing_f @ t
    lam_rho_root = np.array([float(x) for x in rs.root_coords(tuple(c + 1 for c in lam))])
    Bt = rs.B_f @ t
    W = enumerate_weyl_group(rs)
    vals = np.empty(len(W))
    signs = np.empty(len(W))
    for i, w in enumerate(W):
        vals[i] = (w.action_f @ lam_rho_root) @ Bt
        signs[i] = w.parity
    log_num, sign_num = signed_logsumexp(vals, signs)
    half = 0.5 * pairings
    log_den = float(np.sum(np.log(np.abs(2.0 * np.sinh(half)))))
    sign_den = 1 if (np.sum(half < 0) % 2 == 0) else -1
    max_rel = float(np.max(vals)) - log_num
    return log_num - log_den, sign_num * sign_den, max_rel + (log_num - log_den), len(W)


class Branching:
    """Branching numbers b(lam, mu) of V(lam) (x) V(nu) for one factor nu.

    row(lam) is Klimyk's formula: for each weight mu of V(nu), lam + mu +
    rho is reflected to the dominant chamber; singular terms cancel, the
    rest contribute parity * d_mu to V(dom - rho).  Each row is built once,
    on first use, and kept for the life of the instance.
    """

    def __init__(self, rs: RootSystem, nu):
        self.rs = rs
        self._weights = sorted(weight_multiplicities(rs, nu).multiplicities.items())
        self._rows: dict[Weight, dict[Weight, int]] = {}

    def row(self, lam: Weight) -> dict[Weight, int]:
        """Highest weight -> multiplicity in V(lam) (x) V(nu); exact, do not mutate."""
        row = self._rows.get(lam)
        if row is not None:
            return row
        r = self.rs.rank
        out: dict[Weight, int] = {}
        for mu, d in self._weights:
            shifted = tuple(lam[i] + mu[i] + 1 for i in range(r))
            dom, parity, singular = dominant_reflect(self.rs, shifted)
            if singular:
                continue
            target = tuple(c - 1 for c in dom)
            out[target] = out.get(target, 0) + parity * d
        row = {}
        for mu, b in out.items():
            if b < 0:
                raise InternalConsistencyError(f"negative multiplicity {b} at {mu}")
            if b > 0:
                row[mu] = b
        self._rows[lam] = row
        return row

    def step(self, table: dict[Weight, int]) -> dict[Weight, int]:
        """Decompose (sum_lam m_lam V(lam)) (x) V(nu): sum_lam m_lam row(lam)."""
        out: dict[Weight, int] = {}
        for lam, m in table.items():
            for mu, b in self.row(lam).items():
                out[mu] = out.get(mu, 0) + m * b
        return out


def klimyk_tensor_step(rs: RootSystem, table: dict[Weight, int], nu) -> dict[Weight, int]:
    """Decompose (sum_lam m_lam V(lam)) tensor V(nu) exactly; see Branching."""
    return Branching(rs, nu).step(table)


@dataclass(frozen=True)
class DecompositionTable:
    """Exact decomposition of a tensor product of irreducibles.

    problem: tuple of (highest weight, power) factor pairs.
    entries: highest weight -> multiplicity, all positive ints.
    """

    algebra: str
    problem: tuple[tuple[Weight, int], ...]
    entries: dict[Weight, int]

    @property
    def rs(self) -> RootSystem:
        return build_root_system(self.algebra)

    @property
    def total_power(self) -> int:
        return sum(n for _, n in self.problem)

    def check_dimension_identity(self) -> bool:
        """sum_lam m_lam dim V(lam) == prod_k dim V(nu_k)^{N_k}, exact."""
        rs = self.rs
        lhs = sum(m * weyl_dimension(rs, lam) for lam, m in self.entries.items())
        rhs = 1
        for nu, n in self.problem:
            rhs *= weyl_dimension(rs, nu) ** n
        return lhs == rhs

    def check_support_in_cone(self) -> bool:
        """Every highest weight lies under sum_k N_k nu_k in the root order."""
        rs = self.rs
        top = tuple(sum(n * nu[i] for nu, n in self.problem) for i in range(rs.rank))
        top_root = rs.root_coords(top)
        for lam in self.entries:
            diff = [t - x for t, x in zip(top_root, rs.root_coords(lam))]
            if any(x < 0 or x.denominator != 1 for x in diff):
                return False
        return True

    def sorted_entries(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items())

    def to_json(self) -> str:
        payload = {
            "algebra": self.algebra,
            "problem": [[list(nu), n] for nu, n in self.problem],
            "entries": [[list(lam), str(m)] for lam, m in self.sorted_entries()],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "DecompositionTable":
        payload = json.loads(text)
        return cls(
            algebra=payload["algebra"],
            problem=tuple((tuple(int(c) for c in nu), int(n)) for nu, n in payload["problem"]),
            entries={tuple(int(c) for c in lam): int(m) for lam, m in payload["entries"]},
        )


def tensor_power_decompose(
    rs: RootSystem, factors, entry_cap: int = 5_000_000
) -> DecompositionTable:
    """Decompose a product of tensor powers of irreducibles, exactly.

    factors: sequence of (highest weight, power) pairs.  One branching
    step per applied factor, each reusing the rows of that factor's
    Branching; the table never holds anything but exact highest weight
    multiplicities.
    """
    problem = tuple((_as_weight(nu), int(n)) for nu, n in factors)
    for nu, n in problem:
        _check_dominant(nu)
        if n < 0:
            raise DomainError(f"power {n} must be nonnegative")
    table: dict[Weight, int] = {(0,) * rs.rank: 1}
    for nu, n in problem:
        branching = Branching(rs, nu)
        for _ in range(n):
            table = branching.step(table)
            if len(table) > entry_cap:
                raise EntryCapExceededError(
                    f"decomposition support exceeded {entry_cap} entries"
                )
    return DecompositionTable(algebra=str(rs.spec), problem=problem, entries=table)


def naive_tensor_decompose(rs: RootSystem, factors) -> DecompositionTable:
    """Reference decomposition by raw character arithmetic.

    Convolves full weight systems into the product character, then strips
    leading terms: the maximal-height surviving weight is always dominant
    and is the highest weight of a summand.  Exponential in the problem
    size; meant only to cross-check the production path on small cases.
    """
    problem = tuple((_as_weight(nu), int(n)) for nu, n in factors)
    char: dict[Weight, int] = {(0,) * rs.rank: 1}
    for nu, n in problem:
        ws = weight_multiplicities(rs, nu)
        for _ in range(n):
            nxt: dict[Weight, int] = {}
            for w1, m1 in char.items():
                for w2, m2 in ws.multiplicities.items():
                    key = tuple(a + b for a, b in zip(w1, w2))
                    nxt[key] = nxt.get(key, 0) + m1 * m2
            char = nxt

    def height(w: Weight) -> Fraction:
        return sum(rs.root_coords(w))

    entries: dict[Weight, int] = {}
    remaining = {w: m for w, m in char.items() if m != 0}
    while remaining:
        lam = max(remaining, key=lambda w: (height(w), w))
        m = remaining[lam]
        if m < 0 or any(c < 0 for c in lam):
            raise InternalConsistencyError(f"leading term {lam} with multiplicity {m}")
        entries[lam] = m
        for mu, d in weight_multiplicities(rs, lam).multiplicities.items():
            new = remaining.get(mu, 0) - m * d
            if new < 0:
                raise InternalConsistencyError(f"negative remainder at {mu}")
            if new == 0:
                remaining.pop(mu, None)
            else:
                remaining[mu] = new
    return DecompositionTable(algebra=str(rs.spec), problem=problem, entries=entries)
