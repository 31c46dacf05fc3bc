"""Root system tables for the simple Lie algebras.

Conventions fixed here, used everywhere else in the package:

* Cartan matrix rows are indexed by coroots,
  ``C[a][b] = 2 (alpha_a, alpha_b) / (alpha_a, alpha_a)``.
* Symmetrizers ``d[a] = (alpha_a, alpha_a) / 2``, normalized so that long
  roots have squared length 2.  The bilinear form behind every pairing in
  the package is ``B = diag(d) @ C``, which is symmetric positive definite.
* A weight is stored as an integer tuple in the fundamental-weight basis.
  The same vector in the simple-root basis is ``C^{-1} @ weight``.
* Everything in this module is exact (int / Fraction).  Float views used by
  the numeric modules are cached on the instance (``*_f`` properties).
* The one weight-to-root map is ``RootSystem.root_numerators`` (integer
  weights to m C^{-1} weight, exact) with its float view ``root_points``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    InvalidAlgebraError,
    WeylGroupTooLargeError,
)

# a simple-root pairing within this many ulps of its operands counts as zero
WALL_ULPS = 64

_RANK_RULES = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


def _read_only(self, name, *value):
    """__setattr__ and __delattr__ of a record subclass: its __dict__ holds cached_property values only."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class _AlgebraSpecFields(NamedTuple):
    family: str
    rank: int


class AlgebraSpec(_AlgebraSpecFields):
    """A simple Lie algebra named by Cartan family and rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        rule = _RANK_RULES.get(family)
        if rule is None or not isinstance(rank, int) or not rule(rank):
            raise InvalidAlgebraError(
                f"no simple Lie algebra {family}{rank}; "
                f"families A(r>=1) B(r>=2) C(r>=2) D(r>=3) E(6,7,8) F4 G2"
            )
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable) -> "AlgebraSpec":
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @classmethod
    def parse(cls, name: str) -> "AlgebraSpec":
        name = name.strip()
        if len(name) < 2:
            raise InvalidAlgebraError(f"cannot parse algebra name {name!r}")
        try:
            rank = int(name[1:])
        except ValueError:
            raise InvalidAlgebraError(f"cannot parse algebra name {name!r}") from None
        return cls(name[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(spec: AlgebraSpec) -> list[list[int]]:
    """Cartan matrix with rows C[a] = <alpha_b, alpha_a^vee>."""
    r = spec.rank
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def link(a, b):
        C[a][b] = -1
        C[b][a] = -1

    if spec.family in ("A", "B", "C"):
        for a in range(r - 1):
            link(a, a + 1)
        if spec.family == "B":
            C[r - 1][r - 2] = -2  # short simple root at the end
        elif spec.family == "C":
            C[r - 2][r - 1] = -2  # long simple root at the end
    elif spec.family == "D":
        for a in range(r - 2):
            link(a, a + 1)
        link(r - 3, r - 1)
    elif spec.family == "E":
        # chain 0-2-3-4-...-(r-1), node 1 attached to node 3
        link(0, 2)
        for a in range(2, r - 1):
            link(a, a + 1)
        link(1, 3)
    elif spec.family == "F":
        link(0, 1)
        link(2, 3)
        C[1][2] = -1
        C[2][1] = -2
    elif spec.family == "G":
        C[0][1] = -1
        C[1][0] = -3
    return C


def symmetrizers(spec: AlgebraSpec) -> list[Fraction]:
    """Half squared lengths d[a], long roots normalized to 2."""
    r = spec.rank
    one = Fraction(1)
    half = Fraction(1, 2)
    if spec.family in ("A", "D", "E"):
        return [one] * r
    if spec.family == "B":
        return [one] * (r - 1) + [half]
    if spec.family == "C":
        return [half] * (r - 1) + [one]
    if spec.family == "F":
        return [one, one, half, half]
    return [one, Fraction(1, 3)]  # G2


def weyl_group_order(spec: AlgebraSpec) -> int:
    r = spec.rank
    if spec.family == "A":
        return math.factorial(r + 1)
    if spec.family in ("B", "C"):
        return 2**r * math.factorial(r)
    if spec.family == "D":
        return 2 ** (r - 1) * math.factorial(r)
    if spec.family == "G":
        return 12
    if spec.family == "F":
        return 1152
    return {6: 51840, 7: 2903040, 8: 696729600}[spec.rank]


def _expected_positive_count(spec: AlgebraSpec) -> int:
    r = spec.rank
    if spec.family == "A":
        return r * (r + 1) // 2
    if spec.family in ("B", "C"):
        return r * r
    if spec.family == "D":
        return r * (r - 1)
    if spec.family == "G":
        return 6
    if spec.family == "F":
        return 24
    return {6: 36, 7: 63, 8: 120}[spec.rank]


def _fraction_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(row for row in range(col, n) if aug[row][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [x - factor * y for x, y in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


def _positive_roots(C: list[list[int]]) -> list[tuple[int, ...]]:
    """Closure of the simple roots, in root-basis integer coordinates.

    Standard string construction: beta + alpha_a is a root iff
    p - <beta, alpha_a^vee> > 0 where p counts how far the string extends
    below beta.  Processing level by level keeps the lookups complete.
    """
    r = len(C)
    simple = [tuple(int(i == a) for i in range(r)) for a in range(r)]
    known = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for a in range(r):
                m = sum(C[a][b] * beta[b] for b in range(r))
                p = 0
                g = list(beta)
                g[a] -= 1
                while tuple(g) in known:
                    p += 1
                    g[a] -= 1
                if p - m > 0:
                    cand = list(beta)
                    cand[a] += 1
                    cand = tuple(cand)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        level = nxt
    return sorted(known, key=lambda v: (sum(v), v))


class _RootSystemFields(NamedTuple):
    spec: AlgebraSpec
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]
    B: tuple[tuple[Fraction, ...], ...]
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    rho_weight: tuple[int, ...]
    rho_root: tuple[Fraction, ...]
    dim_g: int


class RootSystem(_RootSystemFields):
    """Immutable root-system data; build with :func:`build_root_system`."""

    __setattr__ = __delattr__ = _read_only

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    # -- exact helpers -------------------------------------------------

    def root_coords(self, weight_coords) -> tuple[Fraction, ...]:
        """Fundamental-weight coordinates -> simple-root coordinates."""
        if len(weight_coords) != self.rank:
            raise DomainError(f"expected {self.rank} weight coordinates, got {len(weight_coords)}")
        inv = self.cartan_inverse
        return tuple(sum(inv[a][b] * Fraction(weight_coords[b]) for b in range(self.rank)) for a in range(self.rank))

    def weight_coords(self, root_coords) -> tuple[Fraction, ...]:
        """Simple-root coordinates -> fundamental-weight coordinates."""
        if len(root_coords) != self.rank:
            raise DomainError(f"expected {self.rank} root coordinates, got {len(root_coords)}")
        C = self.cartan
        return tuple(sum(C[i][a] * Fraction(root_coords[a]) for a in range(self.rank)) for i in range(self.rank))

    def inner_weight(self, x, y) -> Fraction:
        """(x, y) for two vectors in weight coordinates, exact."""
        G = self._weight_gram
        return sum(Fraction(x[i]) * sum(G[i][j] * Fraction(y[j]) for j in range(self.rank)) for i in range(self.rank))

    @cached_property
    def posroot_pairing_int(self) -> tuple[tuple[int, ...], ...]:
        """Per positive root alpha, integers k with (lambda, alpha) = lambda . k / lcm(denominators of d)."""
        # (omega_i, alpha_a) = d_a delta_ia, so k = den * d * root coordinates
        den = math.lcm(*(x.denominator for x in self.d))
        kd = [int(den * x) for x in self.d]
        return tuple(tuple(x * y for x, y in zip(kd, alpha)) for alpha in self.positive_roots)

    @cached_property
    def cartan_int(self) -> np.ndarray:
        """C as a read-only int64 array."""
        C = np.array(self.cartan, dtype=np.int64)
        C.flags.writeable = False
        return C

    @cached_property
    def cartan_inverse_int(self) -> tuple[int, np.ndarray]:
        """(m, m C^-1) with m the least integer making m C^-1 integral."""
        m = math.lcm(*(x.denominator for row in self.cartan_inverse for x in row))
        return m, np.array([[int(m * x) for x in row] for row in self.cartan_inverse], dtype=np.int64)

    def root_numerators(self, weights) -> np.ndarray:
        """(n, r) integer weights to the int64 numerators m C^-1 weight, m from cartan_inverse_int.

        An a-priori gate keeps every numerator within 2^53, so no product
        wraps and each converts to float exactly; past it is a DomainError.
        """
        adj = self.cartan_inverse_int[1]
        bound = 2**53 // int(np.abs(adj).sum(axis=1).max())
        try:
            lams = np.array(weights, dtype=np.int64).reshape(-1, self.rank)
        except OverflowError:
            lams = None
        if lams is None or (len(lams) and (lams.max() > bound or lams.min() < -bound)):
            raise DomainError(f"weight coordinates past {bound} leave the exact integer root-coordinate table")
        return lams @ adj.T

    def root_points(self, weights) -> np.ndarray:
        """root_numerators over m: float root coordinates, each correctly rounded (bit-equal to float(Fraction))."""
        return self.root_numerators(weights) / self.cartan_inverse_int[0]

    @cached_property
    def _weight_gram(self) -> tuple[tuple[Fraction, ...], ...]:
        # (omega_i, omega_j) = d_j * (C^{-1})_{ji}
        inv = self.cartan_inverse
        return tuple(tuple(self.d[j] * inv[j][i] for j in range(self.rank)) for i in range(self.rank))

    @cached_property
    def positive_roots_weight(self) -> tuple[tuple[int, ...], ...]:
        """Positive roots in fundamental-weight coordinates (integers)."""
        out = []
        for alpha in self.positive_roots:
            w = self.weight_coords(alpha)
            out.append(tuple(int(c) for c in w))
        return tuple(out)

    # -- float views ---------------------------------------------------

    @cached_property
    def B_f(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.B])

    @cached_property
    def cartan_f(self) -> np.ndarray:
        return np.array(self.cartan, dtype=float)

    @cached_property
    def cartan_inv_f(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.cartan_inverse])

    @cached_property
    def pos_roots_f(self) -> np.ndarray:
        return np.array(self.positive_roots, dtype=float)

    @cached_property
    def pos_pairing_f(self) -> np.ndarray:
        """Row alpha gives the functional x -> (x, alpha) on root coordinates."""
        return self.pos_roots_f @ self.B_f

    @cached_property
    def weight_gram_f(self) -> np.ndarray:
        """(omega_i, omega_j): the form on weight coordinates."""
        return np.array([[float(x) for x in row] for row in self._weight_gram])

    @cached_property
    def rho_root_f(self) -> np.ndarray:
        return np.array([float(x) for x in self.rho_root])

    def __repr__(self) -> str:
        return f"RootSystem({self.spec})"


_ROOT_SYSTEM_CACHE: dict[AlgebraSpec, RootSystem] = {}


def build_root_system(spec) -> RootSystem:
    """Construct (and cache) the full root-system record for an algebra."""
    if isinstance(spec, str):
        spec = AlgebraSpec.parse(spec)
    cached = _ROOT_SYSTEM_CACHE.get(spec)
    if cached is not None:
        return cached

    C = cartan_matrix(spec)
    d = symmetrizers(spec)
    r = spec.rank
    B = [[d[a] * C[a][b] for b in range(r)] for a in range(r)]
    for a in range(r):
        for b in range(r):
            if B[a][b] != B[b][a]:
                raise InternalConsistencyError(f"B not symmetric for {spec}")
    # positive definiteness via leading principal minors, exact
    for k in range(1, r + 1):
        if _det_fraction([row[:k] for row in B[:k]]) <= 0:
            raise InternalConsistencyError(f"B not positive definite for {spec}")

    inv = _fraction_inverse([[Fraction(x) for x in row] for row in C])
    pos = _positive_roots(C)
    if len(pos) != _expected_positive_count(spec):
        raise InternalConsistencyError(
            f"{spec}: found {len(pos)} positive roots, expected {_expected_positive_count(spec)}"
        )
    rho_root = tuple(sum(Fraction(alpha[a]) for alpha in pos) / 2 for a in range(r))
    # rho is also the sum of the fundamental weights, the columns of C^-1
    for a in range(r):
        if rho_root[a] != sum(inv[a]):
            raise InternalConsistencyError(f"{spec}: rho mismatch between root sum and weight sum")

    rs = RootSystem(
        spec=spec,
        cartan=tuple(tuple(row) for row in C),
        d=tuple(d),
        B=tuple(tuple(row) for row in B),
        cartan_inverse=tuple(tuple(row) for row in inv),
        positive_roots=tuple(pos),
        rho_weight=(1,) * r,
        rho_root=rho_root,
        dim_g=r + 2 * len(pos),
    )
    _ROOT_SYSTEM_CACHE[spec] = rs
    return rs


def _det_fraction(M) -> Fraction:
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((row for row in range(col, n) if A[row][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for row in range(col + 1, n):
            factor = A[row][col] / A[col][col]
            if factor:
                A[row] = [x - factor * y for x, y in zip(A[row], A[col])]
    return det


def dominant_reflect(rs: RootSystem, coords) -> tuple[tuple[int, ...], int, bool]:
    """Reflect a weight into the dominant chamber.

    Returns (dominant representative, parity of the reflecting word,
    singular flag).  The word applies a simple reflection only at strictly
    negative coordinates, so for nonsingular weights the parity is the
    determinant of the unique chamber-mapping element.  A weight is
    singular exactly when its dominant representative has a zero
    coordinate.
    """
    lam = [int(c) for c in coords]
    cartan = rs.cartan
    r = rs.rank
    parity = 1
    while True:
        a = -1
        for i in range(r):
            if lam[i] < 0:
                a = i
                break
        if a < 0:
            break
        la = lam[a]
        for i in range(r):
            lam[i] -= la * cartan[i][a]
        parity = -parity
    return tuple(lam), parity, any(v == 0 for v in lam)


def dominant_reflect_rows(rs: RootSystem, x: np.ndarray) -> np.ndarray:
    """dominant_reflect's word on every row of the (n, r) int64 array x at once, in place.

    Each pass reflects the rows still outside the chamber at their first
    negative coordinate.  x ends as the dominant representatives; returns
    the (n,) int64 parities of the words.  The first negative coordinate
    is found column by column: NumPy's reductions along a short last axis
    are an order of magnitude slower.
    """
    parity = np.ones(len(x), dtype=np.int64)
    if not len(x) or x.min() >= 0:
        return parity
    cols = rs.cartan_int.T  # row a: C[i][a] over i
    live, y = None, x
    while True:
        first = np.full(len(y), -1)
        for i in range(rs.rank - 1, -1, -1):
            first[y[:, i] < 0] = i
        moving = np.flatnonzero(first >= 0)
        if not len(moving):
            return parity
        live, a = (moving if live is None else live[moving]), first[moving]
        y = x[live]
        y -= y[np.arange(len(live)), a, None] * cols[a]
        x[live] = y
        parity[live] *= -1


def reflect_to_chamber(rs: RootSystem, t) -> tuple[np.ndarray, float, np.ndarray]:
    """Weyl-reflect a root-coordinate vector into the closed dominant chamber.

    Returns the reflected vector t_dom, a bound on the B-norm of the
    rounding error it carries, and the wall mask: per simple root, whether
    (alpha_a, t_dom) is within WALL_ULPS rounding units of zero.  This is
    the one place that decides the walls of t.  Reflections are isometries,
    so each step adds its own rounding to the bound and moves the earlier
    error without growing it.
    """
    t = np.array(t, dtype=float)
    d = np.array([float(x) for x in rs.d])
    abs_B = np.abs(rs.B_f)
    eps = np.finfo(float).eps
    err = 0.0
    for _ in range(10000):
        pair = rs.B_f @ t  # (alpha_a, t) over simple roots
        slack = WALL_ULPS * eps * (abs_B @ np.abs(t))
        a = int(np.argmin(pair))
        if pair[a] >= -slack[a]:
            return t, err, pair <= slack
        err += (rs.rank + 3) * eps * float(abs_B[a] @ np.abs(t)) / d[a] * math.sqrt(2.0 * d[a])
        t[a] -= pair[a] / d[a]
    raise ConvergenceError("chamber reflection did not terminate")


def stabilizer_roots(rs: RootSystem, wall) -> np.ndarray:
    """Mask over rs.positive_roots: True on Phi0+, the roots spanned by the simple roots marked in wall.

    Phi0+ are the positive roots of the stabilizer W0 of a t with these
    walls, the roots t pairs to zero with; the rest pair positively.
    """
    return ~np.any(rs.pos_roots_f[:, ~np.asarray(wall, dtype=bool)] != 0, axis=1)


# largest Weyl group that is enumerated or stacked
_MAX_WEYL_ORDER = 10**6


def row_runs(rows: np.ndarray, major: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an (n, r) int array and find its runs of equal rows.

    Returns (order, starts): the stable lexicographic order of the rows
    (by major first, when given) and the positions in it where each run of
    equal rows (and equal major) begins.  rows[order[starts]] are the
    distinct rows, sorted, each at its first occurrence.

    Each row is ranked by one int64 key, the mixed-radix number whose
    digits are its entries (less their column minima when a column goes
    below 0), major the most significant digit and column 0 next; a
    stable argsort orders the keys and one comparison finds the runs.
    Where the key's range reaches 2^63 a lexsort over the columns takes
    its place.  Both sorts are stable, so both give the same order.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    rows = np.asfortranarray(rows, dtype=np.int64)  # contiguous columns: NumPy reduces across a short axis slowly
    columns = [rows[:, i] for i in range(rows.shape[1])]
    top, low = rows.max(axis=0).tolist(), rows.min(axis=0).tolist()
    if major is not None:
        major = major.astype(np.int64, copy=False)
        columns.insert(0, major)
        top.insert(0, int(major.max()))
        low.insert(0, int(major.min()))
    low = [min(lo, 0) for lo in low]
    radix = [hi - lo + 1 for hi, lo in zip(top, low)]
    if math.prod(radix) < 2**63:
        key = columns[-1] - low[-1] if low[-1] else columns[-1]
        stride = 1
        for column, lo, base in zip(columns[-2::-1], low[-2::-1], radix[:0:-1]):
            stride *= base
            key = key + (column - lo if lo else column) * stride
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        return order, np.flatnonzero(new)
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    # an OR over the columns: NumPy reduces along a short last axis far more slowly
    for column in columns:
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    return order, np.flatnonzero(new)


def weyl_orbits(rs: RootSystem, mu, with_actions: bool = False):
    """The W-orbit of the dominant weight mu, walked level by level.

    From an orbit point x, the simple reflection s_a lengthens the minimal
    element taking mu to x exactly when x_a > 0.  So level k + 1 is level
    k reflected at its positive coordinates; it meets no earlier level,
    and row_runs drops its repeats (sorted, first occurrence kept).
    Returns the (n, r) int64 weight coordinates of the orbit, mu first.
    With with_actions, returns (points, actions, parities): also the
    (n, r, r) int64 root-coordinate matrices of the minimal elements and
    their (n,) parities (-1)^level; the identity comes first.
    """
    C = rs.cartan_int
    level = np.array(mu, dtype=np.int64).reshape(1, rs.rank)
    action = np.eye(rs.rank, dtype=np.int64)[None] if with_actions else None
    levels = [(level, action)]
    parent, simple = np.nonzero(level > 0)
    while len(parent):
        level = level[parent] - level[parent, simple, None] * C.T[simple]
        order, starts = row_runs(level)
        first = order[starts]
        level = level[first]
        if with_actions:
            # s_a on root coordinates subtracts <y, alpha_a^vee> alpha_a from y
            action, a = action[parent[first]], simple[first]
            action[np.arange(len(a)), a] -= np.einsum("nj,njk->nk", C[a], action)
        levels.append((level, action))
        parent, simple = np.nonzero(level > 0)
    points, actions = zip(*levels)
    if not with_actions:
        return np.concatenate(points)
    parities = [np.full(len(p), (-1) ** k, dtype=np.int64) for k, p in enumerate(points)]
    return np.concatenate(points), np.concatenate(actions), np.concatenate(parities)


def enumerate_weyl_group(rs: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """Every Weyl element: (|W|, r, r) int root-coordinate actions, (|W|,) parities.

    The minimal elements over the orbit of rho, which is regular, so each
    element appears once; row 0 is the identity.  The group order is known
    in closed form per family, so groups above _MAX_WEYL_ORDER are rejected
    before any enumeration happens.  Not cached, and nothing in the
    package calls it: its sums over W run over the W/W0 coset
    representatives of weyl_orbits instead.
    """
    order = weyl_group_order(rs.spec)
    if order > _MAX_WEYL_ORDER:
        raise WeylGroupTooLargeError(
            f"Weyl group too large to enumerate: |W| = {order} exceeds cap {_MAX_WEYL_ORDER}",
            order,
        )
    _, actions, parities = weyl_orbits(rs, rs.rho_weight, with_actions=True)
    if len(actions) != order:
        raise InternalConsistencyError(f"{rs.spec}: enumerated {len(actions)} Weyl elements, expected {order}")
    return actions, parities
