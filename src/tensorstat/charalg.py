"""Characters, weight systems, and exact tensor product decompositions.

Weights are integer tuples in the fundamental-weight basis throughout.
Multiplicities are exact Python ints; no float enters any decomposition.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EntryCapExceededError,
    InternalConsistencyError,
)
from .rootsys import (
    _MAX_WEYL_ORDER,
    RootSystem,
    _read_only,
    build_root_system,
    dominant_reflect_rows,
    reflect_to_chamber,
    row_runs,
    stabilizer_roots,
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
    if any(c >= 2**63 for c in lam):
        raise DomainError(f"weight {lam} has a coordinate past 2^63 - 1, more than the int64 tables hold")
    return lam


def _dominant_rows(rs: RootSystem, lams) -> np.ndarray:
    """lams as an (n, r) int64 array of integer dominant weights, or _dominant_weight's DomainError.

    One array check serves a whole batch; only a batch that fails it is
    checked weight by weight, so the first bad weight names the error.
    """
    lams = lams if isinstance(lams, np.ndarray) else list(lams)
    n, r = len(lams), rs.rank
    try:
        arr = np.array(lams) if n else np.zeros((0, r), dtype=np.int64)
    except ValueError:  # rows of different lengths
        arr = None
    if arr is None or arr.dtype.kind != "i" or arr.shape != (n, r) or (n and arr.min() < 0):
        arr = np.array([_dominant_weight(rs, lam) for lam in lams], dtype=np.int64).reshape(n, r)
    return arr.astype(np.int64, copy=False)


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
    return _weyl_dimensions(rs, [lam])[0]


def _weyl_dimensions(rs: RootSystem, lams) -> list[int]:
    """dim V(lambda) for each dominant lambda in lams, exact: one pass over the positive roots."""
    arr = _dominant_rows(rs, lams)
    k = np.array(rs.posroot_pairing_int, dtype=np.int64)  # (lam + rho, alpha) and (rho, alpha), one common scale
    den = math.prod(k.sum(axis=1).tolist())
    fits = len(arr) == 0 or (int(arr.max()) + 1) * int(k.sum(axis=1).max()) < 2**63
    pairs = (arr + 1) @ k.T if fits else (arr.astype(object) + 1) @ k.T.astype(object)
    out = []
    for lam, row in zip(arr.tolist(), pairs.tolist()):
        val, rem = divmod(math.prod(row), den)
        if rem or val <= 0:
            raise InternalConsistencyError(f"dimension formula gave {Fraction(math.prod(row), den)} for {tuple(lam)}")
        out.append(val)
    return out


def second_casimir(rs: RootSystem, lam) -> Fraction:
    """Quadratic Casimir eigenvalue (lambda, lambda + 2 rho), exact."""
    lam = _dominant_weight(rs, lam)
    shifted = tuple(c + 2 for c in lam)
    return rs.inner_weight(lam, shifted)


@lru_cache(maxsize=4096)
def _orbit(spec, mu: Weight) -> np.ndarray:
    """The W-orbit of the dominant weight mu, walked once per (algebra, mu) and shared; read-only."""
    points = weyl_orbits(build_root_system(spec), mu)
    points.flags.writeable = False
    return points


class _WeightSystemFields(NamedTuple):
    rs: RootSystem
    highest: Weight
    dominant_multiplicities: dict[Weight, int]


class WeightSystem(_WeightSystemFields):
    """The dominant weights of an irreducible module with their multiplicities; the rest are W-images."""

    __setattr__ = __delattr__ = _read_only

    @property
    def dim(self) -> int:
        return sum(m * len(_orbit(self.rs.spec, mu)) for mu, m in self.dominant_multiplicities.items())

    @cached_property
    def multiplicities(self) -> dict[Weight, int]:
        """Every weight with its multiplicity, built from the shared orbits on first read."""
        spec = self.rs.spec
        return {w: m for mu, m in self.dominant_multiplicities.items() for w in map(tuple, _orbit(spec, mu).tolist())}


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
    quotient must be exact and positive.  Only these dominant
    multiplicities are stored; sum m(mu) |W mu| over the cached orbits is
    checked against Weyl's formula.  This is a batch of one of the
    vectorized pass CharacterPlan runs over all its weight-sum rows at
    once (_freudenthal); both read one LRU of 1024 weight systems.
    """
    return _weight_systems(rs.spec, [_dominant_weight(rs, lam)])[0]


# weight systems by (algebra, highest weight), least recently used first
_WEIGHT_SYSTEMS: OrderedDict[tuple, WeightSystem] = OrderedDict()
_WEIGHT_SYSTEM_SLOTS = 1024
# entries of one chunk of a descent or Freudenthal level: (nodes, roots, rank) or (node, root, k) terms
_LEVEL_ENTRIES = 2**14
# a Freudenthal pass runs in int64 when its a-priori bound stays below this, else in Python ints
_INT64_LIMIT = 2**62
# the largest height of a highest weight whose weight system is built: A1 (8000), height 4000, takes 1.5 s
_MAX_HEIGHT = 4096
# the most dominant weights a built weight system may have: near 4096, A2, B2 and G2 take 0.4-0.9 s
_MAX_DOMINANT = 4096


def _weight_systems(spec, lams: list[Weight]) -> list[WeightSystem]:
    """The weight system of V(lambda) for each dominant lambda in lams; the missing ones from one pass."""
    cache = _WEIGHT_SYSTEMS
    missing = [lam for lam in dict.fromkeys(lams) if (spec, lam) not in cache]
    if missing:
        cache.update(((spec, ws.highest), ws) for ws in _freudenthal(spec, missing))
    out = []
    for lam in lams:
        cache.move_to_end((spec, lam))
        out.append(cache[spec, lam])
    while len(cache) > _WEIGHT_SYSTEM_SLOTS:
        cache.popitem(last=False)
    return out


def _descent(rs: RootSystem, lam: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The dominant weights below each row of lam, one height at a time.

    Returns one (rows, mu, c) triple per nonempty height h = sum(c): the
    row of lam each mu is below, mu, and the root coordinates c of
    lam[row] - mu, sorted by (row, mu); height 0 is lam itself.  Every mu
    at height h is mu' - alpha for a dominant mu' at a smaller height, so a
    height is complete once every smaller one has been stepped from.  A
    system found to have more than _MAX_DOMINANT dominant weights is
    refused at that height, before the rest of the descent is built.
    """
    pos_w = np.array(rs.positive_roots_weight, dtype=np.int64)
    pos_c = np.array(rs.positive_roots, dtype=np.int64)
    heights = pos_c.sum(axis=1)
    block = max(1, _LEVEL_ENTRIES // pos_w.size)
    levels, counts = [], np.zeros(len(lam), dtype=np.int64)
    pending = {0: [(np.arange(len(lam)), lam, np.zeros_like(lam))]}
    while pending:
        h = min(pending)
        rows, mu, c = (np.concatenate(part) for part in zip(*pending.pop(h)))
        order, starts = row_runs(mu, major=rows)
        first = order[starts]
        rows, mu, c = rows[first], mu[first], c[first]
        levels.append((rows, mu, c))
        counts += np.bincount(rows, minlength=len(lam))
        if counts.max() > _MAX_DOMINANT:
            top = tuple(lam[int(np.argmax(counts))].tolist())
            raise DomainError(
                f"V{top} has more than {_MAX_DOMINANT} dominant weights: its Freudenthal recursion grows with "
                f"their count, and {_MAX_DOMINANT} already take about a second at rank 2"
            )
        for lo in range(0, len(rows), block):
            nu = mu[lo : lo + block, None, :] - pos_w
            dominant = nu[:, :, 0] >= 0
            for col in range(1, nu.shape[2]):
                dominant &= nu[:, :, col] >= 0
            i, a = np.nonzero(dominant)
            step = heights[a]
            for g in np.flatnonzero(np.bincount(step)).tolist():
                at, root = i[step == g], a[step == g]
                pending.setdefault(h + g, []).append((rows[lo + at], nu[at, root], c[lo + at] + pos_c[root]))
    return levels


def _freudenthal(spec, lams: list[Weight]) -> list[WeightSystem]:
    """The weight systems of the distinct dominant lams, built together; see weight_multiplicities.

    The recursion runs one height at a time across every system: height h
    reads m only at the dominant representatives of mu + k alpha, which
    lie higher.  k runs from 1 to the last k that keeps mu + k alpha below
    lambda (c_i // alpha_i over alpha_i > 0) and inside the ball
    |nu| <= |lambda| that holds every weight; each mu + k alpha is
    reflected into the chamber and looked up among the sorted int64 keys
    (row, weight) of all the systems, and a weight not found has m = 0.
    A chunk of a height holds at most _LEVEL_ENTRIES terms, or one mu.
    A lambda of height (sum of root coordinates) above _MAX_HEIGHT is
    refused before any level is built, and one with more than
    _MAX_DOMINANT dominant weights during the descent, before the
    recursion starts.
    """
    rs = build_root_system(spec)
    r, n = rs.rank, len(lams)
    m, adj = rs.cartan_inverse_int
    per_coord = adj.sum(axis=0).tolist()  # m times the height of each fundamental weight
    height, top = max((sum(a * b for a, b in zip(per_coord, x)), x) for x in lams)  # m times the height
    if height > _MAX_HEIGHT * m:
        raise DomainError(
            f"V{top} has height {height / m:g}, past {_MAX_HEIGHT}: its weight system is built one height "
            "level at a time, and height 4000 already takes 1.5 s at rank 1 and far longer at higher rank"
        )
    lam = np.array(lams, dtype=np.int64).reshape(n, r)
    levels = _descent(rs, lam)
    rows_all, mu_all, c_all = (np.concatenate(part) for part in zip(*levels))

    # key = row * span + the mixed-radix digits of the weight; every dominant weight of a system is below span
    base = mu_all.max(axis=0) + 1
    span = math.prod(base.tolist())
    if n * span >= 2**62:
        raise DomainError(f"{n} weight systems are too large to index")
    strides = np.array([math.prod(base[:i].tolist()) for i in range(r)], dtype=np.int64)
    keys = rows_all * span + mu_all @ strides
    key_order = np.lexsort([keys])
    sorted_keys = keys[key_order]

    pos_w = np.array(rs.positive_roots_weight, dtype=np.int64)
    pos_c = np.array(rs.positive_roots, dtype=np.int64)
    k_pair = np.array(rs.posroot_pairing_int, dtype=np.int64)
    den = math.lcm(*(x.denominator for x in rs.d))
    dd = np.array([int(den * x) for x in rs.d], dtype=np.int64)
    # |nu . k_alpha| <= lambda . k_theta for every weight nu (theta, the highest root, comes
    # last), m <= dim V(lambda), and a mu has at most n_pos * height terms
    dims = _weyl_dimensions(rs, lams)
    bound = 2 * max(dims) * int(np.max(lam @ k_pair[-1])) * len(pos_c) * int(np.max(c_all.sum(axis=1)))
    mult = np.zeros(len(keys), dtype=np.int64 if bound < _INT64_LIMIT else object)
    mult[:n] = 1

    def chunk(nodes: slice, kmax: np.ndarray, pair: np.ndarray) -> None:
        """m at nodes from the Freudenthal sums over their (alpha, k) terms; pair[j, alpha] = mu_j . k_alpha."""
        node, root = np.nonzero(kmax)  # node-major, so each node's terms are contiguous
        reps = kmax[node, root]
        k = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps) + 1
        weight = np.repeat(pair[node, root], reps) + k * np.repeat(alpha_sq[root], reps)  # nu . k_alpha
        c, mu, row = c_all[nodes], mu_all[nodes], rows_all[nodes]
        nu = np.repeat(mu[node], reps, axis=0) + k[:, None] * np.repeat(pos_w[root], reps, axis=0)
        dominant_reflect_rows(rs, nu)
        key, inside = np.repeat(row[node] * span, reps), np.ones(len(k), dtype=bool)
        for i in range(r):
            key += nu[:, i] * strides[i]
            inside &= nu[:, i] < base[i]
        at = np.minimum(np.searchsorted(sorted_keys, key), len(keys) - 1)
        hit = inside & (sorted_keys[at] == key)
        terms = np.zeros(len(key), dtype=mult.dtype)
        terms[hit] = mult[key_order[at[hit]]] * weight[hit]
        # every mu below lambda has a term: mu + alpha_i is a weight for some simple alpha_i
        counts = kmax.sum(axis=1)
        total = 2 * np.add.reduceat(terms, np.cumsum(counts) - counts)
        denom = (c * (lam[row] + mu + 2)) @ dd
        val = total // denom
        bad = (val * denom != total) | (val <= 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InternalConsistencyError(
                f"Freudenthal gave multiplicity {total[i]}/{denom[i]} at {tuple(mu[i].tolist())}"
            )
        mult[nodes] = val

    support = [np.flatnonzero(col) for col in pos_c.T]
    alpha_sq = np.sum(pos_w * k_pair, axis=1)  # den (alpha, alpha)
    block = max(1, _LEVEL_ENTRIES // pos_w.size)
    start = n
    for rows, _, _ in levels[1:]:  # a height reads m only at smaller heights
        stop = start + len(rows)
        for lo in range(start, stop, block):
            hi = min(lo + block, stop)
            c, mu = c_all[lo:hi], mu_all[lo:hi]
            # weights lie in the ball |nu| <= |lambda|:
            # k^2 (alpha, alpha) + 2 k (mu, alpha) <= (lambda - mu, lambda + mu)
            pair, room = mu @ k_pair.T, ((lam[rows_all[lo:hi]] + mu) * c) @ dd
            room = room[:, None]
            kmax = ((np.sqrt(pair * pair + alpha_sq * room) - pair) // alpha_sq).astype(np.int64)
            kmax -= kmax * (kmax * alpha_sq + 2 * pair) > room  # one rounding step either way
            kmax += (kmax + 1) * ((kmax + 1) * alpha_sq + 2 * pair) <= room
            # and below lambda: k alpha_i <= c_i
            for i, roots in enumerate(support):
                kmax[:, roots] = np.minimum(kmax[:, roots], c[:, i, None] // pos_c[roots, i])
            a, ends = 0, np.cumsum(kmax.sum(axis=1))
            while a < hi - lo:  # nodes a:b hold at most _LEVEL_ENTRIES terms, or are one node
                done = int(ends[a - 1]) if a else 0
                b = max(a + 1, int(np.searchsorted(ends, done + _LEVEL_ENTRIES, side="right")))
                chunk(slice(lo + a, lo + b), kmax[a:b], pair[a:b])
                a = b
        start = stop

    order = np.lexsort([rows_all])  # stable: per system by height, then weight
    cuts = np.searchsorted(rows_all[order], np.arange(n + 1)).tolist()
    mus, ms = list(map(tuple, mu_all[order].tolist())), mult[order].tolist()
    out = []
    for x, dim, lo, hi in zip(lams, dims, cuts, cuts[1:]):
        ws = WeightSystem(rs=rs, highest=x, dominant_multiplicities=dict(zip(mus[lo:hi], ms[lo:hi])))
        if ws.dim != dim:
            raise InternalConsistencyError(f"weight system of {x} sums to {ws.dim}, dimension formula disagrees")
        out.append(ws)
    return out


def character_value(rs: RootSystem, lam, t, method: str = "auto") -> tuple[float, int]:
    """log of the character of V(lambda) at exp(t), with its sign.

    t is a real vector in simple-root coordinates.  The value is a sum of
    exponentials with positive coefficients, so the certified sign is
    always +1; it is returned to keep the signed-log contract explicit.
    One row of CharacterPlan(rs, t).evaluate, which documents the methods.
    """
    return float(CharacterPlan(rs, t).evaluate([lam], method).values[0]), 1


# largest error |computed - exact| in log chi a coset-sum row may carry;
# past it the row is a Freudenthal weight sum
CHARACTER_BUDGET = 1e-11
# entries of one rows x cosets block
_BLOCK_ENTRIES = 2**20
_EPS = float(np.finfo(float).eps)
# eps of the extended coset sum; where long double is no wider than float
# (as on Windows and macOS arm64) that tier is skipped
_EPS_EXT = float(np.finfo(np.longdouble).eps)
# CharacterLogs.paths by tier: weight sum, float coset sum, mixed-precision coset sum
_PATHS = ("weight-sum", "weyl", "weyl-extended")
# largest |(w(lambda + rho), t)| evaluate accepts: its exp/log sites scale
# pairings by factors far below the 2^20 left to the float range
_PAIRING_MAX = float(np.finfo(float).max) / 2**20


class CharacterLogs(NamedTuple):
    """log chi_lambda(e^t) per highest weight, with the path each row took.

    paths[i] is "dimension" (t = 0: log of the exact dimension), "weyl"
    (float coset sum), "weyl-extended" (the same sum with the terms the
    budget needs recomputed in long double) or "weight-sum" (Freudenthal
    weight system).  bounds[i] bounds |computed - exact| of the coset sum:
    on "weyl" and "weyl-extended" rows it is the bound of the returned
    value; on "weight-sum" rows it is the tightest bound (or t-only floor)
    that ruled the coset sum out, the all-long-double one where that tier
    runs, or inf where none was planned; on "dimension" rows it is 0.
    """

    values: np.ndarray
    bounds: np.ndarray
    paths: tuple[str, ...]


def _rowdot(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """L @ Q.T, summed in a fixed coordinate order so a row's value never depends on its batch."""
    out = L[:, :1] * Q[:, 0]
    term = np.empty_like(out)  # one product buffer: fresh rows x cosets temporaries are slow to allocate
    for i in range(1, L.shape[1]):
        out += np.multiply(L[:, i : i + 1], Q[:, i], out=term)
    return out


def _pairdot(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The row-wise dot products of L and Q (or of L and Q's one row), summed in coordinate order like _rowdot."""
    out = L[:, 0] * Q[:, 0]
    for i in range(1, L.shape[1]):
        out += L[:, i] * Q[:, i]
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
    _, M, parities = weyl_orbits(rs, [0 if w else 1 for w in wall], with_actions=True)

    # d * (t - w t) = diag(d) (1 - w) C^-1 diag(1/d) pairings: a matrix >= 0 of
    # integers (t - w t is an integer combination of simple coroots when the
    # pairings are), formed exactly from m C^-1; the long-double coset sum
    # relies on every entry being exact
    m, adj = rs.cartan_inverse_int
    ratio = [[d[i] / (d[j] * m) for j in range(r)] for i in range(r)]
    q_num = np.array([[x.numerator for x in row] for row in ratio], dtype=np.int64)
    q_den = np.array([[x.denominator for x in row] for row in ratio], dtype=np.int64)
    qint, rem = np.divmod((np.eye(r, dtype=np.int64) - M) @ adj * q_num, q_den)
    if np.any(rem):
        raise InternalConsistencyError(f"coset matrix of {spec} at walls {wall} is not integral")
    qmat = qint.astype(float)

    in0 = stabilizer_roots(rs, wall)
    phi0 = [a for a, keep in zip(rs.positive_roots, in0) if keep]
    den = math.lcm(*(x.denominator for x in d))
    kd = np.array([int(den * x) for x in d], dtype=np.int64)
    poly = np.array([kd * (M @ np.array(a, dtype=np.int64)) for a in phi0], dtype=float)
    rho0_root = [sum(Fraction(a[i]) for a in phi0) / 2 for i in range(r)]
    rho0 = np.array(
        [float(den * sum(rho0_root[i] * rs.B[i][j] * a[j] for i in range(r) for j in range(r))) for a in phi0]
    )
    return _Parabolic(
        qmat=qmat,
        sign=parities.astype(float),
        poly=poly.reshape(len(phi0), len(M), r),
        rho0=rho0,
        outside=rs.pos_roots_f[~in0],
        b_inv_norm=math.sqrt(1.0 / float(np.min(np.linalg.eigvalsh(rs.B_f)))),
    )


def _coset_terms(par: _Parabolic, q: np.ndarray, shifted: np.ndarray):
    """x_w, the terms (P_w / P_1) e^{-x_w} and log P_1 of the coset sum at each row Lambda of shifted.

    shifted holds weight coordinates and q = par.qmat @ pairings, so
    x_w = (Lambda, t - w t); see CharacterPlan.
    """
    x = _rowdot(shifted, q)
    terms = np.negative(x)
    np.exp(terms, out=terms)
    log_p1 = np.zeros(len(shifted))
    for poly, rho0 in zip(par.poly, par.rho0):
        a = _rowdot(shifted, poly)
        log_p1 += np.log(a[:, 0] / rho0)
        a /= a[:, :1].copy()
        terms *= a
    return x, terms, log_p1


def _coset_terms_at(par: _Parabolic, q: np.ndarray, shifted: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The terms (P_w / P_1) e^{-x_w} of _coset_terms at given pairs: row j of shifted with coset cols[j].

    The terms take q's dtype, long double in _mixed_coset_sums.  For
    integer Lambda the stabilizer pairings are exact in float, and any other
    Lambda is given in long double, so every step rounds in q's precision.  Every
    pairing is summed in coordinate order, as _rowdot sums it.
    """
    terms = np.exp(-_pairdot(shifted, q[cols]))
    for poly in par.poly:
        terms *= _pairdot(shifted, poly[cols]).astype(q.dtype) / _pairdot(shifted, poly[:1]).astype(q.dtype)
    return terms


def _pairwise_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a in ceil(log2(columns)) levels of pairwise adds, so each rounds at most that often."""
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate([a, np.zeros_like(a[:, :1])], axis=1)  # adding 0 is exact
        a = a[:, 0::2] + a[:, 1::2]
    return a[:, 0]


class _Cosets(NamedTuple):
    """Per-(algebra, t) data of the coset sum; see CharacterPlan."""

    par: _Parabolic
    pair: np.ndarray  # (r,) >= 0: simple-root pairings of the t used, 0 on its walls
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
      before the signed sum.  A row whose float bound exceeds
      CHARACTER_BUDGET but whose bound with every term in long double
      meets it takes the same sum in mixed precision ("weyl-extended"),
      where long double is wider than float.
    - Freudenthal weight sum, for rows whose bounds in both precisions
      exceed CHARACTER_BUDGET and for |W| > 10^6: sum over the dominant
      mu of V(lambda) of m(mu) O_mu(t), with O_mu(t) = sum over nu in
      W mu of e^{(nu, t)} from the cached orbit, every term positive;
      rows share their O_mu.  The weight systems of a call's weight-sum
      rows come from the LRU that weight_multiplicities reads, and the
      missing ones from one batched Freudenthal pass.

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

    The extended tier, _mixed_coset_sums, is shared with the intermediate
    density.  Here it takes c_w = |term_w| ((r + 2) x_w + n0 + 2), the
    floor D on S and the rest above, which stays at float level.  qmat is
    exactly integral and Lambda, the pairings and poly are exact in long
    double, so a term recomputed there rounds as above with eps_ext in
    place of eps.  The tier's t-only floor is eps_ext (n0 + 2 + depth) / D,
    depth = ceil(log2 cosets).
    """

    def __init__(self, rs: RootSystem, t):
        t = np.asarray(t, dtype=float)
        if t.shape != (rs.rank,) or not np.all(np.isfinite(t)):
            raise DomainError(f"t must be {rs.rank} finite reals")
        self.rs = rs
        self.t = t
        self._dt = np.array([float(x) for x in rs.d]) * t  # (nu, t) = nu . dt for nu in weight coordinates
        self._orbit_sums: dict[Weight, tuple[float, float]] = {}  # mu -> (top, sum of e^{z - top})

    def evaluate(self, lams, method: str = "auto") -> CharacterLogs:
        """log chi_lambda(e^t) for each lambda in lams.

        method "auto" takes the paths described on the class; "weight-sum"
        sums every row over its weight system.
        """
        rs = self.rs
        lams = list(map(tuple, _dominant_rows(rs, lams).tolist()))
        if method not in ("auto", "weight-sum"):
            raise ValueError(f"unknown method {method!r}")
        n = len(lams)
        if method == "auto" and not np.any(self.t):
            values = np.array([math.log(d) for d in _weyl_dimensions(rs, lams)])
            return CharacterLogs(values, np.zeros(n), ("dimension",) * n)

        # |(w(lambda + rho), t)| <= |lambda + rho| |t| over W, and the weight Gram matrix is
        # positive, so the coordinatewise largest lambda bounds every row; |t| is taken in
        # units of max(1, max |t_i|), so nothing overflows
        scale = max(1.0, float(np.max(np.abs(self.t))))
        u, top = self.t / scale, np.array([max(c) for c in zip(*lams)], dtype=float) + 1.0
        if n and math.sqrt(float(top @ rs.weight_gram_f @ top) * float(u @ rs.B_f @ u)) > _PAIRING_MAX / scale:
            raise DomainError(f"t is too large: its pairings with lambda + rho may pass {_PAIRING_MAX:.3g}")
        values = np.full(n, np.nan)
        bounds = np.full(n, np.inf)
        tier = np.zeros(n, dtype=np.int8)  # index into _PATHS
        cosets = None if method == "weight-sum" or n == 0 else self._cosets
        if cosets is not None:
            self._coset_rows(cosets, lams, values, bounds, tier)
        rest = np.flatnonzero(tier == 0)
        for i, ws in zip(rest, _weight_systems(rs.spec, [lams[i] for i in rest])):
            values[i] = self._weight_sum(ws)
        return CharacterLogs(values, bounds, tuple(_PATHS[k] for k in tier.tolist()))

    def _weight_sum(self, ws: WeightSystem) -> float:
        """log sum over the dominant mu of ws of m(mu) O_mu(t); each O_mu is formed once per plan."""
        sums, mults = self._orbit_sums, ws.dominant_multiplicities
        for mu in mults.keys() - sums.keys():
            z = _orbit(self.rs.spec, mu) @ self._dt
            top = float(np.max(z))
            sums[mu] = (top, float(np.sum(np.exp(z - top))))
        peak = max(sums[mu][0] for mu in mults)
        return peak + math.log(math.fsum(m * sums[mu][1] * math.exp(sums[mu][0] - peak) for mu, m in mults.items()))

    @cached_property
    def _cosets(self) -> _Cosets | None:
        rs = self.rs
        if weyl_group_order(rs.spec) > _MAX_WEYL_ORDER:
            return None  # W is not stacked: every row is a weight sum
        r = rs.rank
        t, eta, wall = reflect_to_chamber(rs, self.t)
        pair = rs.B_f @ t
        par = _parabolic(rs.spec, tuple(bool(w) for w in wall))
        dp = np.where(wall, np.abs(pair), 0.0) + (r + 2) * _EPS * (np.abs(rs.B_f) @ np.abs(t))
        eta += math.hypot(*dp.tolist()) * par.b_inv_norm  # scaled: a finite dp has a finite norm
        if not math.isfinite(eta):
            return None  # t is lost to overflow: no float row can be certified
        pair = np.where(wall, 0.0, pair)
        p_out = par.outside @ pair
        log_terms = np.log(-np.expm1(-p_out))
        log_den = float(np.sum(log_terms))
        return _Cosets(
            par=par,
            pair=pair,
            q=par.qmat @ pair,
            cinv_t=rs.cartan_inv_f.T @ pair,
            log_den=log_den,
            inv_den=math.exp(min(-log_den, 700.0)),
            den_err=_EPS * (float(np.sum(r + 3 + np.abs(log_terms))) + len(p_out) * abs(log_den)),
            eta=eta,
        )

    def _coset_rows(self, c: _Cosets, lams, values, bounds, tier) -> None:
        """Fill values, bounds and tiers of the rows the coset sum takes, in float or mixed precision."""
        r = self.rs.rank
        n0 = len(c.par.rho0)
        depth = (len(c.par.sign) - 1).bit_length()  # levels of a pairwise sum over a row's terms
        eps_ext = _EPS_EXT if _EPS_EXT < _EPS else math.inf
        floor = min(_EPS * (n0 + 2), eps_ext * (n0 + 2 + depth)) * c.inv_den
        if floor > CHARACTER_BUDGET:
            bounds[:] = floor
            return
        lam_all = np.array(lams, dtype=float)
        step = max(1, _BLOCK_ENTRIES // len(c.par.sign))
        for lo in range(0, len(lams), step):
            lam = lam_all[lo : lo + step]
            x, terms, log_p1 = _coset_terms(c.par, c.q, lam + 1.0)
            mags = np.abs(terms)
            contrib = x  # each term's rounding in units of its eps, |term| ((r + 2) x_w + n0 + 2), in place
            contrib *= r + 2
            contrib += n0 + 2
            contrib *= mags
            lam_t = _rowdot(lam, c.cinv_t[None, :])[:, 0]
            log_s = np.maximum(abs(c.log_den), np.log(np.sum(mags, axis=1)))
            size = lam_t + np.abs(log_p1) + log_s + abs(c.log_den)
            norm = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", lam, self.rs.weight_gram_f, lam), 0.0))
            rest = (
                _EPS * (1.0 + (r + 1) * lam_t + (n0 + 1) * np.abs(log_p1) + 3 * size + 2 * n0)
                + c.den_err
                + np.expm1(np.minimum(norm * c.eta, 1.0))  # past 1 no row passes; the cap keeps expm1 finite
            )
            bound = _EPS * np.sum(contrib, axis=1) * c.inv_den + rest
            bounds[lo : lo + step] = bound
            ok = np.flatnonzero(bound <= CHARACTER_BUDGET)
            tier[lo + ok] = 1
            totals = {i: math.fsum((c.par.sign * terms[i]).tolist()) for i in ok.tolist()}  # S by row
            if len(ok) < len(lam):
                miss = np.flatnonzero(bound > CHARACTER_BUDGET)
                sel = miss if len(ok) else slice(None)  # a view when every row misses
                ext, s_ext, b_ext, bound_ext = _mixed_coset_sums(
                    c.par, c.pair, lam[miss] + 1.0, terms[sel], mags[sel], contrib[sel], c.inv_den, rest[miss]
                )
                bounds[lo + miss] = np.minimum(bound[miss], bound_ext)
                bounds[lo + miss[ext]] = b_ext
                tier[lo + miss[ext]] = 2
                totals.update(zip(miss[ext].tolist(), s_ext.tolist()))
            for i, total in totals.items():
                if total <= 0.0:
                    raise InternalConsistencyError("character sign certificate failed")
                values[lo + i] = lam_t[i] + log_p1[i] + math.log(total) - c.log_den


def _mixed_coset_sums(par: _Parabolic, pair, shifted, terms, mags, contrib, inv_low, rest):
    """The coset sums S of rows a float bound rejected, in mixed precision where that meets the budget.

    The one long-double tier of the coset sum, for CharacterPlan's rows and
    the intermediate density's points, each with its own bound.  Per row:
    shifted is Lambda (in long double where its pairings round in float),
    terms the float terms, mags |term_w| or bounds on them, contrib c_w,
    each term's rounding over eps, 1 / inv_low = L a floor on S and rest the
    rest of its error; pair holds the simple-root pairings.  terms and mags
    are overwritten.  A row is admitted when its bound with every term in
    long double (eps_ext, where that is below eps), summed pairwise in
    depth = ceil(log2 cosets) levels, leaves a slack for terms kept in float:

      slack = (CHARACTER_BUDGET - rest) L - eps_ext (sum_w c_w + depth sum_w |term_w|) >= 0.

    Only the wide terms, the identity and each w with (c_w + depth |term_w|)
    cosets > slack / eps, are recomputed in long double.  The others keep
    their float values, summed pairwise into S_F, and carry at most slack
    together.  The wide terms and S_F are summed pairwise in long double in
    levels = ceil(log2(wide + 1)) adds, so the row's bound is

      (eps err_F + eps_ext (err_L + levels (sum_L |term_w| + |S_F|))) / L + rest,

    err_F summing c_w + depth |term_w| over the float terms, err_L and sum_L
    c_w and |term_w| over the wide ones.  Returns the admitted rows, their S
    in float and their bounds, and every row's all-long-double bound.
    """
    eps_ext = _EPS_EXT if _EPS_EXT < _EPS else math.inf
    n, cosets = terms.shape
    depth = (cosets - 1).bit_length()
    inv_low, rest = np.broadcast_to(inv_low, n), np.broadcast_to(rest, n)
    mag_sum, err = np.sum(mags, axis=1), np.sum(contrib, axis=1)
    bound_ext = eps_ext * (err + depth * mag_sum) * inv_low + rest
    ext = np.flatnonzero(bound_ext <= CHARACTER_BUDGET)
    slack = (CHARACTER_BUDGET - rest[ext]) / inv_low[ext] - eps_ext * (err[ext] + depth * mag_sum[ext])
    sel = ext if len(ext) < n else slice(None)  # a view when every row is admitted
    terms, contrib, share, shifted = terms[sel], contrib[sel], mags[sel], shifted[sel]
    share *= depth  # a float term's rounding, its pairwise sum's included, over eps
    share += contrib
    wide = share > (slack / (_EPS * cosets))[:, None]
    wide[:, 0] = True  # the identity term
    rows, cols = np.divmod(np.flatnonzero(wide), cosets)  # each row's wide terms in coset order
    np.copyto(share, 0.0, where=wide)
    err_float = np.sum(share, axis=1)
    terms *= par.sign
    np.copyto(terms, 0.0, where=wide)
    s_float = _pairwise_sums(terms)
    # q in long double, from the exact qmat and the float pairings, for the cosets with a wide term
    need = np.bincount(cols, minlength=cosets) > 0
    q = np.zeros((cosets, len(pair)), dtype=np.longdouble)
    q[need] = par.qmat[need].astype(np.longdouble) @ np.asarray(pair, dtype=np.longdouble)
    wide_terms = par.sign[cols] * _coset_terms_at(par, q, shifted[rows], cols)
    count = np.bincount(rows, minlength=len(ext))
    # per row: its wide terms, then its float part; a row's layout, and so its sum, is its own
    block = np.zeros((len(ext), int(count.max(initial=0)) + 1), dtype=np.longdouble)
    block[rows, np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)] = wide_terms
    block[np.arange(len(ext)), count] = s_float
    totals = _pairwise_sums(block).astype(float)
    # levels that round: ceil(log2(count + 1)), or ceil(log2 count) when every term is wide and s_float = 0
    levels = np.frexp(count - (count == cosets))[1]
    err_wide = np.bincount(rows, weights=contrib[rows, cols], minlength=len(ext))
    mag_wide = np.bincount(rows, weights=np.abs(wide_terms).astype(float), minlength=len(ext))
    term_err = _EPS * err_float + _EPS_EXT * (err_wide + levels * (mag_wide + np.abs(s_float)))
    return ext, totals, term_err * inv_low[ext] + rest[ext], bound_ext


def _brauer_klimyk(rs: RootSystem, xt: np.ndarray, reflected: int, values, mults: np.ndarray, by_source=False):
    """The Brauer-Klimyk sum: each x + rho reflected into the chamber, signed values summed per target.

    xt: (r, m) int64 x + rho per term, column-major; its first `reflected` columns may leave
    the chamber and are reflected in place.  Term p = j n + i (n = len(values)) carries
    values[i] mults[j] times its parity; singular terms cancel.  Returns (sources, targets,
    sums): the nonzero sums per target dom - rho, sorted by target (by source index i first
    with by_source, else sources is None).  A negative sum is an InternalConsistencyError,
    checked unless every coefficient is positive, when no sum can fall to 0 or below.
    """
    n = len(values)
    if reflected:
        parity = dominant_reflect_rows(rs, xt[:, :reflected].T)  # in place, on a view
    # singular terms cancel
    regular = xt[0] > 0
    for column in xt[1:]:
        regular &= column > 0
    pos = np.flatnonzero(regular)
    if not len(pos):
        return (pos if by_source else None), xt[:, :0].T, values[:0]
    order, starts = row_runs(np.take(xt, pos, axis=1).T, pos % n if by_source else None)
    pos = pos[order]
    src = pos % n
    terms = values[src]
    d = mults.tolist()  # read at each sum: the sign check follows the multiplicities in use
    checked = reflected or min(d) <= 0
    if checked or max(d) != 1:
        coef = np.repeat(mults, n)
        if reflected:
            coef[:reflected] *= parity
        coef = coef[pos]
        scaled = np.flatnonzero(coef != 1)  # most terms are unreflected weights of multiplicity 1
        terms[scaled] *= coef[scaled]
    sums = np.add.reduceat(terms, starts)
    if checked:
        positive = sums > 0
        if not positive.all():
            if np.any(sums < 0):
                i = int(np.argmax(sums < 0))
                target = tuple((xt[:, pos[starts[i]]] - 1).tolist())
                raise InternalConsistencyError(f"negative multiplicity {sums[i]} at {target}")
            starts, sums = starts[positive], sums[positive]
    return (src[starts] if by_source else None), np.take(xt, pos[starts], axis=1).T - 1, sums


def _reflection_reach(rs: RootSystem) -> int:
    """(h - 1) max|C|, h the Coxeter number: reflecting x into the chamber keeps |x_j| within this times max|x|."""
    return (2 * rs.n_positive // rs.rank - 1) * int(np.abs(rs.cartan_int).max())


class Branching:
    """Branching numbers b(lam, mu) of V(lam) (x) V(nu) for one factor nu.

    Klimyk's formula: for each weight mu of V(nu), lam + mu + rho is
    reflected to the dominant chamber; singular terms cancel, the rest
    contribute parity * d_mu to V(dom - rho).  One vectorized fold applies
    it to a whole batch of highest weights at once: decomposition steps
    sum the terms of a table per target, the Markov kernel's rows sum them
    per (source, target).  The instance keeps only the weights of V(nu),
    those with a coordinate below -1 first: only their terms can leave the
    dominant chamber, as lam + mu + rho >= 0 wherever mu >= -1.

    A fold refuses a source coordinate past _key_limit, before any int64
    sum can wrap.  A term x = lam + mu + rho has |x_j| <= max(lam) + S,
    S = max |mu_j + 1|.  Each coordinate of a W-image of x, every step of
    its reflection included, is (x, beta^vee) for a coroot beta^vee,
    whose coefficients sum to at most h - 1 in absolute value
    (h = 2 |Phi+| / r, the Coxeter number); a reflection step also forms
    a coordinate times a Cartan entry.  So (max(lam) + S) (h - 1) max|C|
    < 2^63 keeps every value exact (_reflection_reach), and without
    reflection max(lam) + S < 2^63 does.
    """

    def __init__(self, rs: RootSystem, nu):
        self.rs = rs
        weights = sorted(weight_multiplicities(rs, nu).multiplicities.items(), key=lambda w: (min(w[0]) >= -1, w[0]))
        # (r, weights): mu + rho per column
        self._shifts = np.array([mu for mu, _ in weights], dtype=np.int64).reshape(len(weights), rs.rank).T + 1
        self._mults = np.array([d for _, d in weights], dtype=np.int64)
        self._reflecting = sum(min(mu) < -1 for mu, _ in weights)  # the weights whose terms may reflect
        reach = _reflection_reach(rs) if self._reflecting else 1
        self._key_limit = (2**63 - 1) // reach - int(np.abs(self._shifts).max())

    def fold(self, keys: np.ndarray, values: np.ndarray, by_source: bool = False):
        """Klimyk's formula on sum_i values[i] V(keys[i]) (x) V(nu), summed per target.

        keys: (n, r) int64 dominant weights; values: (n,) positive ints,
        int64 or Python ints in an object array (kept exact).  Returns
        _brauer_klimyk's (sources, targets, sums).

        The terms are laid out weight-major, term p = j n + i pairing
        weight j with source i, so the terms of one weight come in the
        order of keys: sorted keys leave one sorted run per weight for the
        stable sort of row_runs to merge.  Only the block of weights that
        may reflect is reflected.
        """
        r = self.rs.rank
        n = len(keys)
        if n and keys.max() > self._key_limit:
            raise DomainError(
                f"weight coordinate {int(keys.max())} is past {self._key_limit}: "
                "the terms of this fold or their reflections could leave int64"
            )
        # (r, terms), column-major throughout: NumPy loops over a short last axis slowly
        xt = (np.ascontiguousarray(keys.T)[:, None] + self._shifts[:, :, None]).reshape(r, len(self._mults) * n)
        return _brauer_klimyk(self.rs, xt, n * self._reflecting, values, self._mults, by_source)


def klimyk_tensor_step(rs: RootSystem, table: dict[Weight, int], nu) -> dict[Weight, int]:
    """Decompose (sum_lam m_lam V(lam)) tensor V(nu) exactly, for multiplicities m_lam > 0; see Branching."""
    keys = np.array(list(table), dtype=np.int64).reshape(len(table), rs.rank)
    _, targets, sums = Branching(rs, nu).fold(keys, np.array(list(table.values()), dtype=object))
    return dict(zip(map(tuple, targets.tolist()), sums.tolist()))


class _DecompositionTableFields(NamedTuple):
    algebra: str
    problem: tuple[tuple[Weight, int], ...]
    entries: dict[Weight, int]


class DecompositionTable(_DecompositionTableFields):
    """Exact decomposition of a tensor product of irreducibles.

    problem: tuple of (highest weight, power) factor pairs.
    entries: highest weight -> multiplicity, all positive ints.
    """

    __setattr__ = __delattr__ = _read_only

    @property
    def rs(self) -> RootSystem:
        return build_root_system(self.algebra)

    @cached_property
    def _dimension_weights(self) -> tuple[list[int], int]:
        """(m_lam dim V(lam) per entry, in entries order; prod_k dim V(nu_k)^{N_k}), exact, from one pass."""
        dims = _weyl_dimensions(self.rs, list(self.entries) + [nu for nu, _ in self.problem])
        total = 1
        for d, (_, n) in zip(dims[len(self.entries) :], self.problem):
            total *= d**n
        return [m * d for m, d in zip(self.entries.values(), dims)], total

    def check_dimension_identity(self) -> bool:
        """sum_lam m_lam dim V(lam) == prod_k dim V(nu_k)^{N_k}, exact."""
        weights, total = self._dimension_weights
        return sum(weights) == total

    def check_support_in_cone(self) -> bool:
        """Every highest weight lies under sum_k N_k nu_k in the root order."""
        rs = self.rs
        top = [sum(n * nu[i] for nu, n in self.problem) for i in range(rs.rank)]
        coords = rs.root_numerators([top]) - rs.root_numerators(list(self.entries))  # m times top - lam
        return bool(np.all(coords >= 0) and np.all(coords % rs.cartan_inverse_int[0] == 0))

    def sorted_entries(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items())

    def to_json(self) -> str:
        """The table as {"algebra", "problem": [[nu, N], ...], "entries": [[lambda, "m"], ...]}.

        The text is json.dumps(payload, indent=1) byte for byte, written
        directly: with any indent json.dumps runs its pure-Python encoder,
        three times slower on the A1 (1)^1200 table.
        """

        def pairs(rows) -> str:
            # a list of [weight, value] pairs at depth 1 of an indent=1 layout
            if not rows:
                return "[]"
            sep = ",\n    "
            items = (f"  [\n   [\n    {sep.join(map(str, w))}\n   ],\n   {v}\n  ]" for w, v in rows)
            return "[\n" + ",\n".join(items) + "\n ]"

        problem = pairs(self.problem)
        entries = pairs([(lam, f'"{m}"') for lam, m in self.sorted_entries()])
        return f'{{\n "algebra": {json.dumps(self.algebra)},\n "problem": {problem},\n "entries": {entries}\n}}'

    @classmethod
    def from_json(cls, text: str) -> "DecompositionTable":
        payload = json.loads(text)
        return cls(
            algebra=payload["algebra"],
            problem=tuple((tuple(int(c) for c in nu), int(n)) for nu, n in payload["problem"]),
            entries={tuple(int(c) for c in lam): int(m) for lam, m in payload["entries"]},
        )


@lru_cache(maxsize=256)
def _ehrhart(spec, nu: Weight) -> tuple[int, ...]:
    """Differences D_j at 0 of L(k), the number of weights of V(nu)^(x)k, so L(n) = sum_j C(n, j) D_j.

    The weights are the lattice points of k conv(W nu) - k w0 nu, a lattice polytope: L is its
    Ehrhart polynomial, of degree r, so the sizes of the k-fold sums of weights for k <= r fix it.
    """
    r = spec.rank
    mu = np.array(list(weight_multiplicities(build_root_system(spec), nu).multiplicities), dtype=np.int64)
    sums, counts = np.zeros((1, r), dtype=np.int64), [1]
    for _ in range(r):
        sums = (sums[:, None] + mu).reshape(-1, r)
        order, starts = row_runs(sums)
        sums = sums[order[starts]]
        counts.append(len(sums))
    return tuple(int(np.diff(counts, j)[0]) for j in range(r + 1))


def _recurrence_pays(rs: RootSystem, nu: Weight, n: int) -> bool:
    """Whether Miller's recurrence and one Brauer-Klimyk sum cost less than n folds, a priori.

    L(k), the weight count of V(nu)^(x)k, has degree r (_ehrhart), so n folds read about
    n L(n) / ((r + 1) |W|) sources of w terms each, w the weights of V(nu); the terms of the q
    weights with a coordinate below -1 may reflect (Branching) and cost about twice as much.
    The recurrence reads L(n) points of w + |Phi+| terms, each worth about 5/2 fold terms.  So
    it pays where 2 n (w + q) >= 5 (r + 1) |W| (w + |Phi+|).  Past _EHRHART_ROWS k-fold sums
    of weights, the entry cap could not count L(n), and the folds are taken.
    """
    mus = weight_multiplicities(rs, nu).multiplicities
    w, q = len(mus), sum(min(mu) < -1 for mu in mus)
    if math.comb(w + rs.rank - 1, rs.rank) > _EHRHART_ROWS:
        return False
    return 2 * n * (w + q) >= 5 * (rs.rank + 1) * weyl_group_order(rs.spec) * (w + rs.n_positive)


# the most k-fold sums of weights _ehrhart may form
_EHRHART_ROWS = 2**12


def _power_weights(rs: RootSystem, nu: Weight, n: int) -> tuple[np.ndarray, np.ndarray]:
    """K_N: the (r, P) int64 weights of V(nu)^(x)n, column-major, and their multiplicities (object ints).

    Miller's recurrence for a power of a polynomial (Knuth, TAOCP 2, 4.7): P D(P^n) = n D(P) P^n,
    P = sum m(mu) e^mu and D the derivative along the height h, reads at s = tau - n mu0 in root
    coordinates, mu0 the lowest weight and nu_j = mu_j - mu0 >= 0,
      m(mu0) h(s) K(s) = sum_{nu_j != 0} m_j ((n + 1) h(nu_j) - h(s)) K(s - nu_j).
    One exact pass per height level, over level k - 1's points plus a simple root, keeps the s with
    K(s) != 0; a remainder is an InternalConsistencyError.  K lives in a box padded so that every
    s - nu_j stays in it.  Weights whose reflections (_reflection_reach) or box index could leave
    int64 are a DomainError.
    """
    ws = weight_multiplicities(rs, nu).multiplicities
    mu, mults = np.array(list(ws), dtype=np.int64).reshape(len(ws), rs.rank), list(ws.values())
    num = rs.root_numerators(mu)
    low = int(np.argmin(num.sum(axis=1)))
    rc = (num - num[low]) // rs.cartan_inverse_int[0]
    top = rc.max(axis=0).tolist()  # nu - mu0
    dims = [(n + 1) * t + 2 for t in top]  # t of padding below, n t of box, one candidate above
    if n * int(np.abs(mu).max()) + 1 > (2**63 - 1) // _reflection_reach(rs) or math.prod(dims) >= 2**63:
        raise DomainError(f"the weights of V{nu}^(x){n} or their reflections could leave int64")
    strides = np.cumprod([1] + dims[:0:-1])[::-1]
    terms = [(o, m, h) for o, m, h in zip((rc @ strides).tolist(), mults, rc.sum(axis=1).tolist()) if h]
    K = np.zeros(math.prod(dims), dtype=object)
    levels = [np.array([int(np.dot(top, strides))])]
    K[levels[0]] = 1
    for k in range(1, n * sum(top) + 1):
        cand = (levels[-1][:, None] + strides).ravel()
        cand = np.unique(cand) if rs.rank > 1 else cand
        acc = sum(K[cand - o] * (m * ((n + 1) * h - k)) for o, m, h in terms)
        q = acc // (k * mults[low])  # m(mu0) = 1 in an irreducible; else the remainders show it
        if np.any(q * (k * mults[low]) != acc):
            raise InternalConsistencyError(f"Miller's recurrence left a remainder at height {k} of V{nu}^(x){n}")
        levels.append(cand[q != 0])
        K[levels[-1]] = q[q != 0]
    idx = np.concatenate(levels)
    s = np.array(np.unravel_index(idx, dims)) - np.array(top)[:, None]
    return rs.cartan_int @ s + n * mu[low][:, None], K[idx]


def tensor_power_decompose(
    rs: RootSystem, factors, entry_cap: int = 5_000_000
) -> DecompositionTable:
    """Decompose a product of tensor powers of irreducibles, exactly.

    factors: sequence of (highest weight, power) pairs.  The first power, in the given order,
    that _recurrence_pays for is one Brauer-Klimyk sum m_lam = sum_w eps(w) K_N(w(lam + rho)
    - rho) over its weights (_power_weights), refused first if they number over |W| entry_cap.
    Every other factor is one Branching fold per factor applied, in the given order.  The
    table never holds anything but exact highest weight multiplicities.
    """
    problem = _factors(rs, factors)
    keys = np.zeros((1, rs.rank), dtype=np.int64)
    values = np.array([1], dtype=object)
    folds = problem
    first = next((i for i, factor in enumerate(problem) if _recurrence_pays(rs, *factor)), None)
    if first is not None:
        (nu, n), folds = problem[first], problem[:first] + problem[first + 1 :]
        points = sum(math.comb(n, j) * d for j, d in enumerate(_ehrhart(rs.spec, nu)))
        if points > weyl_group_order(rs.spec) * entry_cap:
            raise EntryCapExceededError(f"V{nu}^(x){n} has {points} weights, past |W| x {entry_cap}")
        x, K = _power_weights(rs, nu, n)
        _, keys, values = _brauer_klimyk(rs, x + 1, x.shape[1], K, np.ones(1, dtype=np.int64))
        if len(keys) > entry_cap:
            raise EntryCapExceededError(f"decomposition support exceeded {entry_cap} entries")
    for nu, n in folds:
        branching = Branching(rs, nu)
        for _ in range(n):
            _, keys, values = branching.fold(keys, values)
            if len(keys) > entry_cap:
                raise EntryCapExceededError(f"decomposition support exceeded {entry_cap} entries")
    entries = dict(zip(map(tuple, keys.tolist()), values.tolist()))
    return DecompositionTable(algebra=str(rs.spec), problem=problem, entries=entries)


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

    # m times the height, exact: every weight stripped below is one of these
    height = dict(zip(char, rs.root_numerators(list(char)).sum(axis=1).tolist()))
    entries: dict[Weight, int] = {}
    remaining = {w: m for w, m in char.items() if m != 0}
    while remaining:
        lam = max(remaining, key=lambda w: (height[w], w))
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
