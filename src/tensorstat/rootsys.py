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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


@dataclass(frozen=True)
class AlgebraSpec:
    """A simple Lie algebra named by Cartan family and rank."""

    family: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.family)
        if rule is None or not isinstance(self.rank, int) or not rule(self.rank):
            raise InvalidAlgebraError(
                f"no simple Lie algebra {self.family}{self.rank}; "
                f"families A(r>=1) B(r>=2) C(r>=2) D(r>=3) E(6,7,8) F4 G2"
            )

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


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; build with :func:`build_root_system`."""

    spec: AlgebraSpec
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]
    B: tuple[tuple[Fraction, ...], ...]
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    rho_weight: tuple[int, ...]
    rho_root: tuple[Fraction, ...]
    fundamental_weights_root: tuple[tuple[Fraction, ...], ...]
    dim_g: int

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

    def is_dominant(self, weight_coords) -> bool:
        return all(c >= 0 for c in weight_coords)

    def pair_weight_posroot(self, weight_coords, root_index: int) -> Fraction:
        """(lambda, alpha) for lambda in weight coordinates, alpha positive."""
        v = self._posroot_pair_weight[root_index]
        return sum(Fraction(c) * x for c, x in zip(weight_coords, v))

    def inner_weight(self, x, y) -> Fraction:
        """(x, y) for two vectors in weight coordinates, exact."""
        G = self._weight_gram
        return sum(Fraction(x[i]) * sum(G[i][j] * Fraction(y[j]) for j in range(self.rank)) for i in range(self.rank))

    @cached_property
    def _posroot_pair_weight(self) -> tuple[tuple[Fraction, ...], ...]:
        # (omega_i, alpha_a) = d_a delta_ia, so pairing a weight-coordinate
        # vector with a positive root reduces to d * root coordinates.
        return tuple(tuple(self.d[a] * alpha[a] for a in range(self.rank)) for alpha in self.positive_roots)

    @cached_property
    def posroot_pairing_int(self) -> tuple[tuple[int, ...], ...]:
        """Per positive root alpha, integers k with (lambda, alpha) = lambda . k / lcm(denominators of d)."""
        den = math.lcm(*(x.denominator for x in self.d))
        return tuple(tuple(int(den * x) for x in row) for row in self._posroot_pair_weight)

    @cached_property
    def cartan_inverse_int(self) -> tuple[int, np.ndarray]:
        """(m, m C^-1) with m the least integer making m C^-1 integral."""
        m = math.lcm(*(x.denominator for row in self.cartan_inverse for x in row))
        return m, np.array([[int(m * x) for x in row] for row in self.cartan_inverse], dtype=np.int64)

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

    @cached_property
    def rho_pos_pairings_f(self) -> np.ndarray:
        """(rho, alpha) over the positive roots."""
        return self.pos_pairing_f @ self.rho_root_f

    @cached_property
    def weyl_actions(self) -> tuple[np.ndarray, np.ndarray]:
        """Every Weyl element stacked: (|W|, r, r) int root-coordinate actions, (|W|,) parities.

        Row 0 is the identity.  Built from enumerate_weyl_group, so the same
        size cap applies.
        """
        W = enumerate_weyl_group(self)
        actions = np.array([w.action for w in W], dtype=np.int64)
        return actions, np.array([w.parity for w in W], dtype=np.int64)

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
    fw = tuple(tuple(inv[a][i] for a in range(r)) for i in range(r))
    # rho is also the sum of the fundamental weights
    for a in range(r):
        if rho_root[a] != sum(fw[i][a] for i in range(r)):
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
        fundamental_weights_root=fw,
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


def wall_slack(rs: RootSystem, t: np.ndarray) -> np.ndarray:
    """Per simple root, the rounding scale below which (alpha_a, t) counts as zero."""
    return WALL_ULPS * np.finfo(float).eps * (np.abs(rs.B_f) @ np.abs(t))


def reflect_to_chamber(rs: RootSystem, t) -> tuple[np.ndarray, float]:
    """Weyl-reflect a root-coordinate vector into the closed dominant chamber.

    Returns the reflected vector and a bound on the B-norm of the rounding
    error it carries.  Reflections are isometries, so each step adds its own
    rounding to the bound and moves the earlier error without growing it.
    Pairings within wall_slack of zero are left as they are.
    """
    t = np.array(t, dtype=float)
    d = np.array([float(x) for x in rs.d])
    abs_B = np.abs(rs.B_f)
    eps = np.finfo(float).eps
    err = 0.0
    for _ in range(10000):
        pair = rs.B_f @ t  # (alpha_a, t) over simple roots
        a = int(np.argmin(pair))
        if pair[a] >= -wall_slack(rs, t)[a]:
            return t, err
        err += (rs.rank + 3) * eps * float(abs_B[a] @ np.abs(t)) / d[a] * math.sqrt(2.0 * d[a])
        t[a] -= pair[a] / d[a]
    raise ConvergenceError("chamber reflection did not terminate")


@dataclass(frozen=True)
class WeylElement:
    """Group element as reduced word, parity, and root-coordinate matrix."""

    word: tuple[int, ...]
    parity: int
    action: tuple[tuple[int, ...], ...]

    def apply_root(self, x):
        """Act on a vector in root coordinates (exact for int/Fraction)."""
        return tuple(sum(self.action[i][j] * x[j] for j in range(len(x))) for i in range(len(x)))


_WEYL_CACHE: dict[AlgebraSpec, tuple[WeylElement, ...]] = {}


def enumerate_weyl_group(rs: RootSystem, cap: int = 10**6) -> tuple[WeylElement, ...]:
    """All Weyl group elements by breadth-first closure over simple reflections.

    The group order is known in closed form per family, so oversized groups
    are rejected before any enumeration happens.
    """
    order = weyl_group_order(rs.spec)
    if order > cap:
        raise WeylGroupTooLargeError(
            f"Weyl group too large to enumerate: |W| = {order} exceeds cap {cap}",
            order,
        )
    cached = _WEYL_CACHE.get(rs.spec)
    if cached is not None and len(cached) == order:
        return cached

    r = rs.rank
    C = rs.cartan
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    refl = []
    for a in range(r):
        refl.append(tuple(tuple((1 if b == c else 0) - (C[a][c] if b == a else 0) for c in range(r)) for b in range(r)))

    def matmul(X, Y):
        return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(r)) for j in range(r)) for i in range(r))

    # BFS over orbit of rho (regular, so the orbit map is injective)
    start = (1,) * r
    elements = [WeylElement((), 1, ident)]
    seen = {start}
    frontier = [(start, elements[0])]
    while frontier:
        nxt = []
        for vec, el in frontier:
            for a in range(r):
                va = vec[a]
                nv = tuple(vec[i] - va * C[i][a] for i in range(r))
                if nv in seen:
                    continue
                seen.add(nv)
                nel = WeylElement((a,) + el.word, -el.parity, matmul(refl[a], el.action))
                elements.append(nel)
                nxt.append((nv, nel))
        frontier = nxt
    if len(elements) != order:
        raise InternalConsistencyError(f"{rs.spec}: enumerated {len(elements)} Weyl elements, expected {order}")
    result = tuple(elements)
    _WEYL_CACHE[rs.spec] = result
    return result
