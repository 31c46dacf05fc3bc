"""Probability measures on highest weights and their continuum limits.

The character measure puts mass m_lam chi_lam(e^t) / prod_k chi_k(e^t)^N_k
on each summand of a decomposition.  At t = 0 this weighs by dimension
(computed exactly); small t interpolates toward the Gaussian regime.  The
functions here evaluate those measures, their pointwise asymptotics, and
total-variation distances between rescaled exact measures and their limit
densities on rectangular grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .charalg import CharacterPlan, DecompositionTable, Weight, weyl_dimension
from .errors import (
    ConvergenceError,
    DomainError,
    GridCoverageError,
    InternalConsistencyError,
    LegendreDomainError,
    NonRegularError,
)
from .legendre import (
    TensorProblem,
    asymptotic_log_multiplicity,
    f_eval,
    f_grad_hess,
    forward_dual,
    hessian_at_origin,
    limit_density,
    tensor_problem,
)
from .numerics import cell_integrals
from .rootsys import build_root_system, reflect_to_chamber


def plancherel_measure(table: DecompositionTable) -> dict[Weight, Fraction]:
    """Exact dimension-weighted measure m_lam dim(lam) / dim(product)."""
    rs = table.rs
    total = 1
    for nu, n in table.problem:
        total *= weyl_dimension(rs, nu) ** n
    probs = {lam: Fraction(m * weyl_dimension(rs, lam), total) for lam, m in table.entries.items()}
    if sum(probs.values()) != 1:
        raise InternalConsistencyError("dimension-weighted measure does not sum to one")
    return probs


def character_probabilities(table: DecompositionTable, t=None) -> dict[Weight, float]:
    """Character measure as floats; t = None or 0 means dimension weighting."""
    rs = table.rs
    if t is not None:
        t = np.asarray(t, dtype=float)
    if t is None or not np.any(t):
        return {lam: float(p) for lam, p in plancherel_measure(table).items()}
    # sorted order: a fresh table and its cached copy must sum alike
    entries = table.sorted_entries()
    logs = CharacterPlan(rs, t).evaluate([lam for lam, _ in entries] + [nu for nu, _ in table.problem]).values
    log_norm = 0.0
    for (_, n), lg in zip(table.problem, logs[len(entries) :].tolist()):
        log_norm += n * lg
    probs = {}
    for (lam, m), lg in zip(entries, logs.tolist()):
        probs[lam] = math.exp(math.log(m) + lg - log_norm)
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise InternalConsistencyError(f"character measure sums to {total}, expected 1")
    return {lam: p / total for lam, p in probs.items()}


@dataclass(frozen=True)
class Scaling:
    """Affine map a = spread * (lambda_root - center) onto limit-law coordinates.

    x_scalar is the Hess f(0) = x B constant for bulk scalings and None for
    the Gaussian fluctuation scaling.
    """

    epsilon: float
    x_scalar: float | None
    center: tuple[float, ...]
    spread: float

    def apply(self, lam_root: np.ndarray) -> np.ndarray:
        return self.spread * (np.asarray(lam_root, dtype=float) - np.asarray(self.center))


def gaussian_scaling(problem: TensorProblem, t) -> Scaling:
    """Fluctuation coordinates a = (eps lam - eta) / sqrt(eps) around the mean eta.

    eta is taken at t's chamber representative: the measure is
    W-invariant, and its mean sits in the dominant chamber.
    """
    eta = forward_dual(problem, reflect_to_chamber(problem.rs, t)[0])
    eps = problem.epsilon
    return Scaling(epsilon=eps, x_scalar=None, center=tuple(eta / eps), spread=math.sqrt(eps))


def bulk_scaling(problem: TensorProblem) -> Scaling:
    """Semiclassical coordinates a = (lam + rho) * sqrt(eps / x).

    x is the Hess f(0) = x B constant.  Centering at -rho uses the shifted
    weight, the coordinate the dimension and hook products are functions
    of; the shift is O(sqrt(eps)) in limit coordinates, so the limit law
    is unchanged while finite-N convergence is an order faster.
    """
    x, resid = hessian_at_origin(problem)
    if resid > 1e-8 * max(x, 1.0):
        raise InternalConsistencyError(f"Hess f(0) is not proportional to B, residual {resid}")
    rho = tuple(-float(v) for v in problem.rs.rho_root)
    return Scaling(
        epsilon=problem.epsilon,
        x_scalar=x,
        center=rho,
        spread=math.sqrt(problem.epsilon / x),
    )


def asymptotic_log_probability(problem: TensorProblem, lam, t=None) -> float:
    """Pointwise asymptotics of ln P(lambda) under the character measure.

    P(lambda) = m_lambda chi_lambda(e^t) / chi_V(e^t)^N, so the estimate is
    asymptotic_log_multiplicity plus a log weight in lambda minus
    f(t)/eps = N ln chi_V(e^t).  At t = 0 the weight is the dimension,
    prod_alpha (lambda + rho, alpha) / (rho, alpha), taken at leading order
    as prod (lambda, alpha) / (rho, alpha).  At regular t, reflected into
    the positive chamber (the measure is invariant), one Weyl term
    dominates the character: e^{(lambda + rho, t)} / Delta(t) with
    Delta(t) = prod_alpha 2 sinh((alpha, t)/2).  lambda must be strictly
    dominant, where the multiplicity prefactor is finite; nonzero t on a
    chamber wall is outside both regimes (NonRegularError).
    """
    return _asymptotic_estimator(problem, t)(lam)


def _asymptotic_estimator(problem: TensorProblem, t):
    """lam -> asymptotic_log_probability(problem, lam, t), the t-only terms computed once."""
    rs = problem.rs
    eps = problem.epsilon
    if t is None or not np.any(t):
        c = -f_eval(problem, np.zeros(rs.rank)) / eps - float(np.sum(np.log(rs.rho_pos_pairings_f)))

        def log_weight(lam_root):
            return float(np.sum(np.log(rs.pos_pairing_f @ lam_root)))

    else:
        t_dom, _ = reflect_to_chamber(rs, np.asarray(t, dtype=float))
        t_pair = rs.pos_pairing_f @ t_dom
        scale = math.sqrt(float(t_dom @ rs.B_f @ t_dom))
        if np.min(t_pair) <= 1e-8 * scale:
            raise NonRegularError("nonzero t on a chamber wall has no single-phase asymptotics")
        # log 2 sinh(x/2) = x/2 + log(1 - e^{-x}): no overflow at large x, no cancellation at small x
        log_delta = float(np.sum(0.5 * t_pair + np.log(-np.expm1(-t_pair))))
        t_pairing = rs.B_f @ t_dom
        c = float(rs.rho_root_f @ t_pairing) - log_delta - f_eval(problem, t_dom) / eps

        def log_weight(lam_root):
            return float(t_pairing @ lam_root)

    def estimate(lam) -> float:
        log_m = asymptotic_log_multiplicity(problem, lam)
        return log_m + log_weight(np.array([float(v) for v in rs.root_coords(lam)])) + c

    return estimate


@dataclass(frozen=True)
class MeasureRow:
    weight: Weight
    probability: float
    scaled: tuple[float, ...]


@dataclass(frozen=True)
class MeasureTable:
    """Character measure of one decomposition, with rescaled positions."""

    algebra: str
    problem: tuple[tuple[Weight, int], ...]
    t: tuple[float, ...] | None
    epsilon: float
    scaling: Scaling
    rows: tuple[MeasureRow, ...]

    def probabilities(self) -> dict[Weight, float]:
        return {row.weight: row.probability for row in self.rows}

    def _tensor_problem(self) -> TensorProblem:
        return tensor_problem(build_root_system(self.algebra), self.problem, self.epsilon)

    @cached_property
    def asymptotic_log_probabilities(self) -> tuple[float, ...]:
        """asymptotic_log_probability of each row, computed on first read.

        NaN where the formula does not apply: weights on a chamber wall,
        scaled weights on the boundary of the Legendre domain, every row at
        a nonzero t on a chamber wall, and every row of a table of no
        tensor factors.
        """
        nan = (math.nan,) * len(self.rows)
        if not any(n for _, n in self.problem):
            return nan
        try:
            estimate = _asymptotic_estimator(self._tensor_problem(), self.t)
        except NonRegularError:
            return nan
        out = []
        for row in self.rows:
            try:
                out.append(estimate(row.weight))
            except (NonRegularError, LegendreDomainError, ConvergenceError):
                out.append(math.nan)
        return tuple(out)

    def to_csv(self) -> str:
        r = len(self.rows[0].weight) if self.rows else 0
        header = (
            [f"lambda_{i + 1}" for i in range(r)]
            + ["probability", "asymptotic_log_probability"]
            + [f"scaled_{i + 1}" for i in range(r)]
        )
        lines = [",".join(header)]
        for row, asym in zip(self.rows, self.asymptotic_log_probabilities):
            cells = [str(c) for c in row.weight]
            cells.append(repr(row.probability))
            cells.append(repr(asym))
            cells.extend(repr(v) for v in row.scaled)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def assemble_measure_table(problem: TensorProblem, probs: dict[Weight, float], t=None) -> MeasureTable:
    """Package a probability map over dominant weights as a MeasureTable.

    Rows are sorted by weight.  The scaled column uses the Gaussian
    rescaling for nonzero t and the semiclassical one for t = 0.
    """
    rs = problem.rs
    use_t = None if t is None or not np.any(np.asarray(t, dtype=float)) else np.asarray(t, dtype=float)
    scaling = bulk_scaling(problem) if use_t is None else gaussian_scaling(problem, use_t)
    rows = []
    for lam in sorted(probs):
        lam_root = np.array([float(v) for v in rs.root_coords(lam)])
        rows.append(MeasureRow(lam, probs[lam], tuple(float(v) for v in scaling.apply(lam_root))))
    return MeasureTable(
        algebra=str(rs.spec),
        problem=problem.factors,
        t=None if use_t is None else tuple(float(v) for v in use_t),
        epsilon=problem.epsilon,
        scaling=scaling,
        rows=tuple(rows),
    )


def character_measure(table: DecompositionTable, t=None, epsilon: float | None = None) -> MeasureTable:
    """Evaluate the character measure of a decomposition as a MeasureTable."""
    problem = tensor_problem(table.rs, table.problem, epsilon)
    return assemble_measure_table(problem, character_probabilities(table, t), t)


def lattice_aligned_edges(
    scaled_points: np.ndarray, spacing: float, cells_per: int = 2, cover=None
) -> list[np.ndarray]:
    """Grid edges aligned with the lattice of rescaled highest weights.

    The support lies on a translate of (spacing * Z)^r along each axis, so
    cells holding exactly cells_per lattice columns, with lattice points
    interior, avoid the binning combs a lattice-oblivious grid produces.
    cover, if given, lists per-axis (lo, hi) intervals the grid must also
    span (for limit-density tails extending past the exact support).
    """
    pts = np.asarray(scaled_points, dtype=float)
    edges = []
    for ax in range(pts.shape[1]):
        col = pts[:, ax]
        anchor = float(col[0])
        k = np.rint((col - anchor) / spacing)
        if np.max(np.abs(col - (anchor + k * spacing))) > 1e-6 * spacing:
            raise DomainError(f"axis {ax} points do not sit on a lattice of spacing {spacing}")
        k_lo, k_hi = float(np.min(k)), float(np.max(k))
        if cover is not None:
            lo, hi = cover[ax]
            k_lo = min(k_lo, (lo - anchor) / spacing)
            k_hi = max(k_hi, (hi - anchor) / spacing)
        j_lo = math.floor((k_lo + 0.5) / cells_per) - 1
        j_hi = math.ceil((k_hi + 0.5) / cells_per) + 1
        edges.append(anchor + (np.arange(j_lo, j_hi + 1) * cells_per - 0.5) * spacing)
    return edges


@dataclass(frozen=True)
class WeakConvergenceReport:
    tv: float
    exact_mass_in_grid: float
    limit_mass_in_grid: float
    cells: tuple[int, ...]


def weak_convergence_distance(
    m: MeasureTable,
    kind: str,
    edges=None,
    quad_tol: float = 1e-9,
    coverage_tol: float = 1e-6,
) -> WeakConvergenceReport:
    """Total-variation distance between binned exact and limit measures.

    The regime fixes the coordinates: the highest weights are rescaled by
    gaussian_scaling for kind "gaussian" (nonzero t) and by bulk_scaling
    for "plancherel" (t = 0) and "intermediate" (nonzero t), whatever the
    scaled column of m holds.  They are binned over a rectangular grid and
    compared against cell integrals of the matching limit density: the
    Gaussian with the precision matrix at the measure's t, or the chamber
    law with u recovered from t (t is first reflected into the dominant
    chamber; the measure is invariant).  Mass outside the grid counts in
    full toward the distance.

    Without edges the grid is lattice aligned, two lattice columns per
    cell: highest weights of one problem differ by root-lattice vectors,
    integers in root coordinates, so scaled points sit on a lattice of
    spacing scaling.spread.  It also covers the limit law's tail beyond
    s = sqrt(2 ln 1e9), where e^{-s^2/2} = 1e-9: |z| >= sqrt(r) + s for the
    Gaussian, and |b|_B >= sqrt(dim g) + |u|_B + s for the chamber laws,
    whose radial part is the norm of a shifted Gaussian element of g;
    Cauchy-Schwarz in B turns these into per-coordinate bounds.
    """
    problem = m._tensor_problem()
    rs = problem.rs
    eps = m.epsilon
    t_dom = None if m.t is None else reflect_to_chamber(rs, m.t)[0]
    tail = math.sqrt(2.0 * math.log(1e9))
    K = u = None

    if kind == "gaussian":
        if t_dom is None:
            raise DomainError("gaussian comparison needs a nonzero t")
        scaling = gaussian_scaling(problem, m.t)
        _, _, hess = f_grad_hess(problem, t_dom)
        K = rs.B_f @ np.linalg.solve(hess, rs.B_f)
        K = 0.5 * (K + K.T)
        half = (math.sqrt(rs.rank) + tail) * np.sqrt(np.diag(np.linalg.inv(K)))
        cover = [(-h, h) for h in half]
    elif kind in ("plancherel", "intermediate"):
        scaling = bulk_scaling(problem)
        if kind == "plancherel":
            if t_dom is not None:
                raise DomainError("plancherel comparison requires t = 0")
            u = np.zeros(rs.rank)
        else:
            if t_dom is None:
                raise DomainError("intermediate comparison needs a nonzero t")
            u = t_dom * math.sqrt(scaling.x_scalar / eps)
        dim_g = rs.rank + 2 * rs.n_positive
        radius = math.sqrt(dim_g) + math.sqrt(float(u @ rs.B_f @ u)) + tail
        cover = [(0.0, h) for h in radius * np.sqrt(np.diag(np.linalg.inv(rs.B_f)))]
    else:
        raise ValueError(f"unknown comparison kind {kind!r}")

    def density(pts):
        return limit_density(rs, kind, pts, K=K, u=u)

    pvals = np.array([row.probability for row in m.rows])
    scaled = scaling.apply([[float(v) for v in rs.root_coords(row.weight)] for row in m.rows])

    if edges is None:
        edges = lattice_aligned_edges(scaled, scaling.spread, cells_per=2, cover=cover)
    edges = [np.asarray(e, dtype=float) for e in edges]
    shape = tuple(len(e) - 1 for e in edges)

    idx = np.zeros((len(m.rows), rs.rank), dtype=int)
    inside = np.ones(len(m.rows), dtype=bool)
    for ax, e in enumerate(edges):
        pos = np.searchsorted(e, scaled[:, ax], side="right") - 1
        idx[:, ax] = pos
        inside &= (pos >= 0) & (pos < shape[ax])

    P = np.zeros(shape)
    np.add.at(P, tuple(idx[inside].T), pvals[inside])
    p_in = float(pvals[inside].sum())

    Q = cell_integrals(density, edges, tol=quad_tol)
    q_in = float(Q.sum())
    if q_in < 1.0 - coverage_tol:
        raise GridCoverageError(
            f"grid captures only {q_in} of the limit mass (tolerance {coverage_tol})"
        )
    tv = 0.5 * (float(np.abs(P - Q).sum()) + (1.0 - p_in) + max(0.0, 1.0 - q_in))
    return WeakConvergenceReport(
        tv=float(tv),
        exact_mass_in_grid=p_in,
        limit_mass_in_grid=q_in,
        cells=shape,
    )
