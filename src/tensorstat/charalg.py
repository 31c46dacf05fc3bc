"""Characters, weight systems, and exact tensor product decompositions.

Weights are integer tuples in the fundamental-weight basis throughout.
Multiplicities are exact Python ints; no float enters any decomposition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EntryCapExceededError,
    InternalConsistencyError,
)
from .numerics import logsumexp
from .rootsys import (
    _MAX_WEYL_ORDER,
    RootSystem,
    build_root_system,
    dominant_reflect,
    reflect_to_chamber,
    wall_slack,
    weyl_group_order,
    weyl_orbits,
)

Weight = tuple[int, ...]


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints, or a DomainError naming `what` if one is not an integer."""
    try:
        values = tuple(values)
        ints = tuple(int(c) for c in values)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != values:
        raise DomainError(f"{what} must be integers, got {values!r}")
    return ints


def _dominant_weight(rs: RootSystem, lam) -> Weight:
    """lam as an integer dominant weight of rs, or a DomainError."""
    lam = _integers(lam, "weight coordinates")
    if len(lam) != rs.rank:
        raise DomainError(f"weight {lam} needs {rs.rank} coordinates")
    if any(c < 0 for c in lam):
        raise DomainError(f"weight {lam} is not dominant")
    return lam


def _factors(rs: RootSystem, factors) -> tuple[tuple[Weight, int], ...]:
    """(highest weight, power) pairs as dominant weights of rs and integer powers >= 0."""
    out = []
    for nu, n in factors:
        (n,) = _integers((n,), "powers")
        if n < 0:
            raise DomainError(f"power {n} must be nonnegative")
        out.append((_dominant_weight(rs, nu), n))
    return tuple(out)


def weyl_dimension(rs: RootSystem, lam) -> int:
    """dim V(lambda) by the product over positive roots, exact."""
    lam = _dominant_weight(rs, lam)
    num = den = 1
    for k in rs.posroot_pairing_int:  # (lam + rho, alpha) and (rho, alpha), one common scale
        num *= sum((c + 1) * x for c, x in zip(lam, k))
        den *= sum(k)
    val, rem = divmod(num, den)
    if rem or val <= 0:
        raise InternalConsistencyError(f"dimension formula gave {Fraction(num, den)} for {lam}")
    return val


def second_casimir(rs: RootSystem, lam) -> Fraction:
    """Quadratic Casimir eigenvalue (lambda, lambda + 2 rho), exact."""
    lam = _dominant_weight(rs, lam)
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
    def weights_root_f(self) -> np.ndarray:
        return np.array(sorted(self.multiplicities), dtype=float) @ self.rs.cartan_inv_f.T

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


def weight_multiplicities(rs: RootSystem, lam) -> WeightSystem:
    """Weight system of V(lambda): dominant descent, then integer Freudenthal.

    The dominant weights below lambda are linked to it by positive-root
    steps mu -> mu - alpha that stay dominant (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136, 1998), so a descent over
    those steps finds them all, each with the root coordinates c of
    lambda - mu.  By increasing height sum(c), Freudenthal's recursion
    scaled by den = lcm of the denominators of d (Moody-Patera, "Fast
    recursion formula for weight multiplicities", Bull. AMS 6, 1982) is

      m(mu) sum_a c_a den d_a (lambda_a + mu_a + 2)
          = 2 sum_{alpha > 0, k >= 1} m(nu) nu . k_alpha,  nu = mu + k alpha,

    in ints throughout (k_alpha: RootSystem.posroot_pairing_int); the
    quotient must be exact and positive.  Each Weyl orbit is then filled
    in by one weyl_orbits walk, and the total is checked against Weyl's
    formula.
    """
    return _weight_system(rs.spec, _dominant_weight(rs, lam))


@lru_cache(maxsize=1024)
def _weight_system(spec, lam: Weight) -> WeightSystem:
    rs = build_root_system(spec)
    r = rs.rank
    pos_w = rs.positive_roots_weight
    steps = list(zip(pos_w, rs.positive_roots))
    coords = {lam: (0,) * r}  # dominant mu -> root coordinates of lambda - mu
    stack = [lam]
    while stack:
        mu = stack.pop()
        for alpha_w, alpha in steps:
            nu = tuple(x - y for x, y in zip(mu, alpha_w))
            if min(nu) >= 0 and nu not in coords:
                coords[nu] = tuple(x + y for x, y in zip(coords[mu], alpha))
                stack.append(nu)

    den = math.lcm(*(x.denominator for x in rs.d))
    dd = [int(den * x) for x in rs.d]
    pos = list(zip(pos_w, rs.posroot_pairing_int))
    dom_mult: dict[Weight, int] = {lam: 1}
    for mu in sorted(coords, key=lambda mu: (sum(coords[mu]), mu))[1:]:
        c = coords[mu]
        denom = sum(c[a] * dd[a] * (lam[a] + mu[a] + 2) for a in range(r))
        total = 0
        for alpha, k in pos:
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, alpha))
                dom, _, _ = dominant_reflect(rs, nu)
                m = dom_mult.get(dom, 0)
                if m == 0:
                    break
                total += m * sum(x * y for x, y in zip(nu, k))
        val, rem = divmod(2 * total, denom)
        if rem or val <= 0:
            raise InternalConsistencyError(f"Freudenthal gave multiplicity {2 * total}/{denom} at {mu}")
        dom_mult[mu] = val

    points, origin = weyl_orbits(rs, list(dom_mult))
    mults = list(dom_mult.values())
    full = {w: mults[o] for w, o in zip(map(tuple, points.tolist()), origin.tolist())}
    ws = WeightSystem(rs=rs, highest=lam, multiplicities=full, dominant_multiplicities=dom_mult)
    if ws.dim != weyl_dimension(rs, lam):
        raise InternalConsistencyError(f"weight system of {lam} sums to {ws.dim}, dimension formula disagrees")
    return ws


def character_value(rs: RootSystem, lam, t, method: str = "auto") -> tuple[float, int]:
    """log of the character of V(lambda) at exp(t), with its sign.

    t is a real vector in simple-root coordinates.  The value is a sum of
    exponentials with positive coefficients, so the certified sign is
    always +1; it is returned to keep the signed-log contract explicit.
    One row of CharacterPlan(rs, t).evaluate, which documents the methods.
    """
    return float(CharacterPlan(rs, t).evaluate([lam], method).values[0]), 1


# largest error |computed - exact| in log chi a float Weyl row may carry;
# past it the row is a Freudenthal weight sum
CHARACTER_BUDGET = 1e-11
# entries of one rows x cosets block
_BLOCK_ENTRIES = 2**20
_EPS = float(np.finfo(float).eps)


class CharacterLogs(NamedTuple):
    """log chi_lambda(e^t) per highest weight, with the path each row took.

    paths[i] is "dimension" (t = 0: log of the exact dimension), "weyl"
    (float coset sum) or "weight-sum" (Freudenthal weight system).
    bounds[i] bounds |computed - exact| of the float coset sum: on "weyl"
    rows it is the bound of the returned value; on "weight-sum" rows it is
    the bound (or the t-only floor) that ruled the float sum out, or inf
    where none was planned; on "dimension" rows it is 0.
    """

    values: np.ndarray
    bounds: np.ndarray
    paths: tuple[str, ...]


def _rowdot(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """L @ Q.T, summed in a fixed coordinate order so a row's value never depends on its batch."""
    out = L[:, :1] * Q[:, 0]
    for i in range(1, L.shape[1]):
        out += L[:, i : i + 1] * Q[:, i]
    return out


class _Parabolic(NamedTuple):
    """The t-independent part of the coset sum for one set of walls; see CharacterPlan."""

    qmat: np.ndarray  # (cosets, r, r) >= 0: qmat[w] @ pairings = d * (t - w t)
    sign: np.ndarray  # (cosets,) parities; row 0 is the identity
    poly: np.ndarray  # (n0, cosets, r): Lambda . poly[k, w] = den (Lambda, w alpha_k), alpha_k in Phi0+
    rho0: np.ndarray  # (n0,) den (rho0, alpha_k)
    outside: np.ndarray  # (roots, r) root coordinates of the positive roots outside Phi0
    b_inv_norm: float  # sqrt(|B^-1|_2): moving the pairings by dp moves t by <= |dp|_2 b_inv_norm


@lru_cache(maxsize=16)
def _parabolic(spec, wall: tuple[bool, ...]) -> _Parabolic:
    """Coset data of the stabilizer W0 of the simple roots marked in wall."""
    rs = build_root_system(spec)
    r = rs.rank
    d = [Fraction(x) for x in rs.d]
    # minimal coset representatives: the orbit of the dominant weight whose
    # stabilizer is W0 (zero exactly on the walls); the identity comes first
    _, _, M, parities = weyl_orbits(rs, [[0 if w else 1 for w in wall]], with_actions=True)

    # d * (t - w t) = diag(d) (1 - w) C^-1 diag(1/d) pairings: a matrix >= 0,
    # exact up to one rounding per entry since m C^-1 is integral
    m, adj = rs.cartan_inverse_int
    factor = np.array([[float(d[i] / (d[j] * m)) for j in range(r)] for i in range(r)])
    qmat = (np.eye(r, dtype=np.int64) - M) @ adj * factor

    phi0 = [a for a in rs.positive_roots if all(a[i] == 0 for i in range(r) if not wall[i])]
    den = math.lcm(*(x.denominator for x in d))
    kd = np.array([int(den * x) for x in d], dtype=np.int64)
    poly = np.array([kd * (M @ np.array(a, dtype=np.int64)) for a in phi0], dtype=float)
    rho0_root = [sum(Fraction(a[i]) for a in phi0) / 2 for i in range(r)]
    rho0 = np.array(
        [float(den * sum(rho0_root[i] * rs.B[i][j] * a[j] for i in range(r) for j in range(r))) for a in phi0]
    )
    outside = [a for a in rs.positive_roots if any(a[i] != 0 for i in range(r) if not wall[i])]
    return _Parabolic(
        qmat=qmat,
        sign=parities.astype(float),
        poly=poly.reshape(len(phi0), len(M), r),
        rho0=rho0,
        outside=np.array(outside, dtype=float).reshape(len(outside), r),
        b_inv_norm=math.sqrt(1.0 / float(np.min(np.linalg.eigvalsh(rs.B_f)))),
    )


class _Cosets(NamedTuple):
    """Per-(algebra, t) data of the coset sum; see CharacterPlan."""

    par: _Parabolic
    q: np.ndarray  # (cosets, r) >= 0: x_w = Lambda . q[w], q[w] = d * (t - w t)
    cinv_t: np.ndarray  # (r,) >= 0: (lambda, t) = lambda . cinv_t
    log_den: float  # log D, D = prod over alpha > 0 outside Phi0 of (1 - e^{-(alpha, t)})
    inv_den: float  # 1 / D, capped at e^700
    den_err: float  # rounding bound of log D
    eta: float  # bound on the B-norm distance from the caller's t (reflected) to the t used


class CharacterPlan:
    """Characters at one group element e^t for any list of highest weights.

    Build once per (algebra, t) and call evaluate for each batch; the coset
    data is made on first use.  Paths:

    - t = 0: log of the exact Weyl dimension.
    - Coset sum.  Characters are W-invariant, so t is reflected into the
      dominant chamber; simple-root pairings within a few ulps of zero are
      set to zero, which projects t onto that wall.  Phi0 = positive roots
      with (alpha, t) = 0, rho0 their half sum, and D = prod over alpha > 0
      outside Phi0 of (1 - e^{-(alpha, t)}).  With Lambda = lambda + rho,
      the limit of Weyl's formula on the wall is a sum over the cosets
      w W0 of the stabilizer W0:

        chi = e^{(lambda, t)} P_1 S / D,
        S = sum_w eps(w) (P_w / P_1) e^{-x_w},  x_w = (Lambda, t - w t) >= 0,
        P_w = prod over alpha in Phi0+ of (Lambda, w alpha) / (rho0, alpha).

      P_1 is the dimension of the stabilizer's module of highest weight
      lambda.  For regular t, Phi0 is empty and this is Weyl's quotient.
      Every x_w, (lambda, t) and (alpha, t) is a sum of nonnegative terms
      (t - w t is a nonnegative combination of the simple pairings), so
      each carries relative rounding of a few ulps and nothing cancels
      before the signed sum.
    - Freudenthal weight sum (exact weights, positive float terms), for
      rows whose bound exceeds CHARACTER_BUDGET and for |W| > 10^6.

    The bound is formed before the signed sum.  The weights of V(lambda)
    at the top of its Phi0-strings pair with t like lambda, so chi >= P_1
    e^{(lambda, t)} and S >= D: cancellation in S is at most
    sum_w |term_w| / D.  Term w carries relative rounding at most
    eps ((r + 2) x_w + n0 + 2) (eps = 2^-52: x_w to (r + 1) eps relative,
    exp to one ulp, and each of the 2 n0 stabilizer factors to half an
    ulp), and S is summed exactly rounded (math.fsum), so

      |error of log S| <= eps (1 + sum_w |term_w| ((r + 2) x_w + n0 + 2) / D),

    to which the bound adds the rounding of (lambda, t), log P_1, log D and
    the final sum, and e^{|lambda| eta} - 1 for the distance eta by which
    the reflection and projection moved t.  The identity term alone gives
    the t-only floor eps (n0 + 2) / D: past the budget no row can pass,
    and the rows x cosets block is never formed.
    """

    def __init__(self, rs: RootSystem, t):
        t = np.asarray(t, dtype=float)
        if t.shape != (rs.rank,) or not np.all(np.isfinite(t)):
            raise DomainError(f"t must be {rs.rank} finite reals")
        self.rs = rs
        self.t = t

    def evaluate(self, lams, method: str = "auto") -> CharacterLogs:
        """log chi_lambda(e^t) for each lambda in lams.

        method "auto" takes the paths described on the class; "weight-sum"
        sums every row over its weight system.
        """
        rs = self.rs
        lams = [_dominant_weight(rs, lam) for lam in lams]
        if method not in ("auto", "weight-sum"):
            raise ValueError(f"unknown method {method!r}")
        n = len(lams)
        if method == "auto" and not np.any(self.t):
            values = np.array([math.log(weyl_dimension(rs, lam)) for lam in lams])
            return CharacterLogs(values, np.zeros(n), ("dimension",) * n)

        values = np.full(n, np.nan)
        bounds = np.full(n, np.inf)
        weyl = np.zeros(n, dtype=bool)
        cosets = None if method == "weight-sum" or n == 0 else self._cosets
        if cosets is not None:
            self._coset_rows(cosets, lams, values, bounds, weyl)
        for i in np.flatnonzero(~weyl):
            ws = weight_multiplicities(rs, lams[i])
            values[i] = logsumexp(ws.log_mults_f + ws.pairing_rows_f @ self.t)
        return CharacterLogs(values, bounds, tuple("weyl" if w else "weight-sum" for w in weyl))

    @cached_property
    def _cosets(self) -> _Cosets | None:
        rs = self.rs
        if weyl_group_order(rs.spec) > _MAX_WEYL_ORDER:
            return None  # W is not stacked: every row is a weight sum
        r = rs.rank
        t, eta = reflect_to_chamber(rs, self.t)
        pair = rs.B_f @ t
        wall = pair <= wall_slack(rs, t)
        par = _parabolic(rs.spec, tuple(bool(w) for w in wall))
        dp = np.where(wall, np.abs(pair), 0.0) + (r + 2) * _EPS * (np.abs(rs.B_f) @ np.abs(t))
        eta += float(np.linalg.norm(dp)) * par.b_inv_norm
        pair = np.where(wall, 0.0, pair)
        p_out = par.outside @ pair
        log_terms = np.log(-np.expm1(-p_out))
        log_den = float(np.sum(log_terms))
        return _Cosets(
            par=par,
            q=par.qmat @ pair,
            cinv_t=rs.cartan_inv_f.T @ pair,
            log_den=log_den,
            inv_den=math.exp(min(-log_den, 700.0)),
            den_err=_EPS * (float(np.sum(r + 3 + np.abs(log_terms))) + len(p_out) * abs(log_den)),
            eta=eta,
        )

    def _coset_rows(self, c: _Cosets, lams, values, bounds, weyl) -> None:
        """Fill values and bounds of the rows the coset sum takes."""
        r = self.rs.rank
        n0 = len(c.par.rho0)
        floor = _EPS * (n0 + 2) * c.inv_den
        if floor > CHARACTER_BUDGET:
            bounds[:] = floor
            return
        lam_all = np.array(lams, dtype=float)
        step = max(1, _BLOCK_ENTRIES // len(c.par.sign))
        for lo in range(0, len(lams), step):
            lam = lam_all[lo : lo + step]
            shifted = lam + 1.0
            x = _rowdot(shifted, c.q)
            terms = np.exp(-x)
            log_p1 = np.zeros(len(lam))
            for j in range(n0):
                a = _rowdot(shifted, c.par.poly[j])
                terms *= a / a[:, :1]
                log_p1 += np.log(a[:, 0] / c.par.rho0[j])
            mags = np.abs(terms)
            err = np.sum(mags * ((r + 2) * x + (n0 + 2)), axis=1)
            lam_t = _rowdot(lam, c.cinv_t[None, :])[:, 0]
            log_s = np.maximum(abs(c.log_den), np.log(np.sum(mags, axis=1)))
            size = lam_t + np.abs(log_p1) + log_s + abs(c.log_den)
            norm = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", lam, self.rs.weight_gram_f, lam), 0.0))
            bound = (
                _EPS * (1.0 + err * c.inv_den + (r + 1) * lam_t + (n0 + 1) * np.abs(log_p1) + 3 * size + 2 * n0)
                + c.den_err
                + np.expm1(norm * c.eta)
            )
            bounds[lo : lo + step] = bound
            for i in np.flatnonzero(bound <= CHARACTER_BUDGET):
                total = math.fsum((c.par.sign * terms[i]).tolist())
                if total <= 0.0:
                    raise InternalConsistencyError("character sign certificate failed")
                values[lo + i] = lam_t[i] + log_p1[i] + math.log(total) - c.log_den
                weyl[lo + i] = True


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
        if not self.entries:
            return True
        top = [sum(n * nu[i] for nu, n in self.problem) for i in range(rs.rank)]
        m, adj = rs.cartan_inverse_int
        diff = np.array(top, dtype=np.int64) - np.array(list(self.entries), dtype=np.int64)
        coords = diff @ adj.T  # m times the root coordinates of top - lam
        return bool(np.all(coords >= 0) and np.all(coords % m == 0))

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
    problem = _factors(rs, factors)
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
    problem = _factors(rs, factors)
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
