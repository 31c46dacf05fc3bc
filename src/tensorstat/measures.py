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
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .charalg import CharacterPlan, DecompositionTable, Weight, _dominant_weight
from .errors import DomainError, GridCoverageError, InternalConsistencyError
from .legendre import (
    TensorProblem,
    _log_multiplicity_rows,
    _raise_row,
    _rows,
    f_eval,
    f_grad_hess,
    forward_dual,
    hessian_at_origin,
    limit_density,
    precision_matrix,
    tensor_problem,
)
from .numerics import MAX_SUBDIV, cell_integrals
from .rootsys import _read_only, build_root_system, reflect_to_chamber, stabilizer_roots


def plancherel_measure(table: DecompositionTable) -> dict[Weight, Fraction]:
    """Exact dimension-weighted measure m_lam dim(lam) / dim(product)."""
    weights, total = table._dimension_weights
    if sum(weights) != total:
        raise InternalConsistencyError("dimension-weighted measure does not sum to one")
    return {lam: Fraction(w, total) for lam, w in zip(table.entries, weights)}


def character_probabilities(table: DecompositionTable, t=None) -> dict[Weight, float]:
    """Character measure as floats; t = None or 0 means dimension weighting.

    One segment of _segment_laws: at t = 0 the exact m_lam dim V(lam), else
    log m_lam + log chi_lam - sum_k N_k log chi_{nu_k} in sorted order (a
    fresh table and its cached copy must sum alike).  Each log chi_lam is
    off by at most e_top, top = sum_k N_k nu_k, and the last term, common
    to every entry, by sum_k N_k e_{nu_k} (e as in _log_chi_error).
    """
    rs = table.rs
    t = None if t is None else np.asarray(t, dtype=float)
    if t is None or not np.any(t):
        weights, total = table._dimension_weights
        weights, totals = np.array(weights, dtype=object), np.array([total], dtype=object)
        return dict(zip(table.entries, _segment_laws(weights, [len(weights)], lambda _: "measure", totals).tolist()))
    entries = table.sorted_entries()
    n = len(entries)
    logs = CharacterPlan(rs, t).evaluate([lam for lam, _ in entries] + [nu for nu, _ in table.problem]).values
    log_norm = 0.0
    for (_, power), lg in zip(table.problem, logs[n:].tolist()):
        log_norm += power * lg
    log_p = np.array([math.log(m) for _, m in entries]) + logs[:n]
    log_p -= log_norm
    top = [sum(power * nu[i] for nu, power in table.problem) for i in range(rs.rank)]
    errors = _log_chi_error(rs, t, [top] + [nu for nu, _ in table.problem])
    powers = np.array([float(power) for _, power in table.problem])
    probs = _segment_laws(log_p, [n], lambda _: "measure", errors=errors[:1], common=lambda _: errors[1:] @ powers)
    return dict(zip([lam for lam, _ in entries], probs.tolist()))


# largest |sum of a law - 1| accepted, and largest a-priori rounding drift
_SUM_TOL = 1e-9


def _segment_laws(weights, lengths, label, totals=None, *, errors=None, common=None) -> np.ndarray:
    """Normalize consecutive segments of weights into laws, returned as one float array.

    Segment k, a measure or a kernel row, is lengths[k] entries; label(k)
    names it in error messages.  With totals (t = 0) the weights are exact
    ints, segment k must sum to totals[k] exactly, and each probability is
    the int ratio, correctly rounded.  Else they are float logs of a law at
    t: each entry of segment k errs by at most errors[k] on its own and by
    at most common(k) in a part all of them share.  A _rounding_drift past
    _SUM_TOL is a DomainError.  The segments of one length are summed
    together, so none depends on the others; a sum that misses 1 by more
    than _SUM_TOL, but by at most log1p(_SUM_TOL) + errors[k] + common(k)
    in the log, is redone in logs (common is asked only then), and a larger
    miss is an InternalConsistencyError.
    """
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    if totals is not None:
        sums = np.add.reduceat(weights, starts)
        off = sums != totals
        if np.any(off):
            k = int(np.argmax(off))
            raise InternalConsistencyError(f"exact {label(k)} sums to {Fraction(sums[k], totals[k])}")
        return (weights / np.repeat(totals, lengths)).astype(float)
    drift = _rounding_drift(errors, weights, lengths)
    if np.any(drift > _SUM_TOL):
        k = int(np.argmax(drift))
        raise DomainError(
            f"t is too large for float characters: their rounding may move the {label(k)} by {drift[k]:.2g}"
        )
    with np.errstate(over="ignore"):  # a segment that overflows fails the sum check below
        probs = np.exp(weights)
    for n in np.flatnonzero(np.bincount(lengths)).tolist():
        at = np.flatnonzero(lengths == n)
        entries = starts[at, None] + np.arange(n)
        rows = probs[entries]
        sums = rows.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > _SUM_TOL)
        if len(off):
            logs = weights[entries[off]]
            top = logs.max(axis=1)
            shifted = np.exp(logs - top[:, None])
            log_sums = top + np.log(shifted.sum(axis=1))
            bound = math.log1p(_SUM_TOL) + (errors[at[off]] + common(at[off]))
            bad = ~(np.abs(log_sums) <= bound)  # a NaN sum is never explained
            if np.any(bad):
                k = off[int(np.argmax(bad))]
                raise InternalConsistencyError(f"{label(at[k])} sums to {float(sums[k])}, expected 1")
            rows[off] = shifted
            sums[off] = shifted.sum(axis=1)
        probs[entries] = rows / sums[:, None]
    return probs


def _log_chi_error(rs, t: np.ndarray, tops) -> np.ndarray:
    """e_top = (r + 3) eps (top + rho, t), t reflected into the chamber: the rounding of log chi_top at t, per top."""
    dt = np.abs(reflect_to_chamber(rs, t)[0]) * np.array([float(x) for x in rs.d])
    return (rs.rank + 3) * float(np.finfo(float).eps) * ((np.asarray(tops, dtype=float) + 1.0) @ dt)


def _rounding_drift(errors: np.ndarray, log_p: np.ndarray, lengths) -> np.ndarray:
    """A-priori bounds on the total variation distance rounding can move character measures by.

    log_p holds one or more measures in consecutive segments, measure k
    in lengths[k] entries, each off by at most errors[k]; one bound is
    returned per measure.  log chi_lambda at t carries an absolute error
    of about e_lambda = (r + 3) eps (lambda + rho, t) with t reflected into
    the chamber (pairings of size |t| lose their low bits, and exp turns
    that into a relative error of p_lambda); every summand lambda is below
    its measure's highest weight top, so e_lambda <= e_top = errors[k].  An
    error common to every entry of a measure (log chi_V, or a kernel row's
    log chi of its source) cancels in p / total, so each entry is compared
    with the measure's likeliest one, j: with s = 2 e_top and a = log
    p_lambda - log p_j as computed, p_lambda / p_j <= e^{a + s} and moves
    by a factor within e^{+-s}, so it moves by at most e^{a + s}
    min(e^s - 1, 2).  Their sum over lambda != j, the sum over all entries
    less j's own e^s, bounds the distance of the normalized measures (that
    difference rounds by about 1e-16, far below any tolerance); no
    distance exceeds 1.
    """
    s = 2 * errors
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(len(s)), lengths)
    # the caps keep every factor finite; a capped row is past any tolerance anyway
    terms = np.exp(np.minimum(log_p - np.maximum.reduceat(log_p, starts)[seg] + s[seg], 300.0))
    others = np.add.reduceat(terms, starts) - np.exp(np.minimum(s, 300.0))
    return np.fmin(1.0, others * np.expm1(np.minimum(s, math.log(3.0))))


class Scaling(NamedTuple):
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
    asymptotic_log_multiplicity, plus the identity term of CharacterPlan's
    coset sum for ln chi_lambda(e^t) at leading order in lambda, minus
    f(t)/eps = N ln chi_V(e^t).  With t reflected into the dominant chamber,
    Phi0+ the positive roots it pairs to zero with and rho0 their half sum,
    that term is (lambda, t) + sum over Phi0+ of ln((lambda, alpha) /
    (rho0, alpha)) - ln D(t), D(t) = prod over the other positive roots of
    1 - e^{-(alpha, t)}.  lambda must be strictly dominant.  A one-row view
    of the batched estimate of a table.
    """
    lam = _dominant_weight(problem.rs, lam)
    est, status = _asymptotic_log_probabilities(problem, [lam], t)
    _raise_row(status[0], lam)
    return float(est[0])


def _asymptotic_log_probabilities(problem: TensorProblem, lams, t) -> tuple[np.ndarray, np.ndarray]:
    """asymptotic_log_probability at each dominant weight (NaN where a row fails), and each row's status."""
    rs = problem.rs
    t_dom, _, wall = reflect_to_chamber(rs, np.zeros(rs.rank) if t is None else t)
    in0 = stabilizer_roots(rs, wall)
    pairing0 = rs.pos_pairing_f[in0]
    rho0 = rs.pos_roots_f[in0].sum(axis=0) / 2
    # log(1 - e^{-p}) has no overflow at large p and no cancellation at small p
    log_den = float(np.sum(np.log(-np.expm1(-(rs.pos_pairing_f[~in0] @ t_dom)))))
    c = -f_eval(problem, t_dom) / problem.epsilon - float(np.sum(np.log(pairing0 @ rho0))) - log_den
    lam_root, log_m, status = _log_multiplicity_rows(problem, lams)
    # (lambda, alpha) >= 0 for dominant lambda: a float pairing below 0 is an exact 0 rounded
    pair0 = np.maximum(_rows(pairing0, lam_root), 0.0)
    with np.errstate(divide="ignore"):  # a wall row's log 0 meets its NaN log_m
        log_pair = np.sum(np.log(pair0), axis=1)
    return log_m + (np.sum(lam_root * (rs.B_f @ t_dom), axis=1) + log_pair) + c, status


class MeasureRow(NamedTuple):
    weight: Weight
    probability: float
    scaled: tuple[float, ...]


class _MeasureTableFields(NamedTuple):
    algebra: str
    problem: tuple[tuple[Weight, int], ...]
    t: tuple[float, ...] | None
    epsilon: float
    scaling: Scaling
    rows: tuple[MeasureRow, ...]


class MeasureTable(_MeasureTableFields):
    """Character measure of one decomposition, with rescaled positions."""

    __setattr__ = __delattr__ = _read_only

    def probabilities(self) -> dict[Weight, float]:
        return {row.weight: row.probability for row in self.rows}

    def _tensor_problem(self) -> TensorProblem:
        return tensor_problem(build_root_system(self.algebra), self.problem, self.epsilon)

    @cached_property
    def asymptotic_log_probabilities(self) -> tuple[float, ...]:
        """asymptotic_log_probability of each row, computed on first read.

        NaN where the formula does not apply: weights on a chamber wall,
        scaled weights on the boundary of the Legendre domain, and every row
        of a table of no tensor factors.  The first two are decided exactly
        on the lattice, before the batched solve: a weight lies on the
        boundary when a root coordinate of top - lambda is 0, top = sum_k
        N_k nu_k (see legendre._log_multiplicity_rows).
        """
        if not any(n for _, n in self.problem):
            return (math.nan,) * len(self.rows)
        est, _ = _asymptotic_log_probabilities(self._tensor_problem(), [row.weight for row in self.rows], self.t)
        return tuple(est.tolist())

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
    lams = sorted(probs)
    scaled = scaling.apply(rs.root_points(lams)).tolist()
    return MeasureTable(
        algebra=str(rs.spec),
        problem=problem.factors,
        t=None if use_t is None else tuple(float(v) for v in use_t),
        epsilon=problem.epsilon,
        scaling=scaling,
        rows=tuple(MeasureRow(lam, probs[lam], tuple(a)) for lam, a in zip(lams, scaled)),
    )


def character_measure(table: DecompositionTable, t=None, epsilon: float | None = None) -> MeasureTable:
    """Evaluate the character measure of a decomposition as a MeasureTable."""
    problem = tensor_problem(table.rs, table.problem, epsilon)
    return assemble_measure_table(problem, character_probabilities(table, t), t)


def lattice_aligned_edges(scaled_points: np.ndarray, spacing: float, cover=None) -> list[np.ndarray]:
    """Grid edges aligned with the lattice of rescaled highest weights.

    The support lies on a translate of (spacing * Z)^r along each axis, so
    cells holding exactly _CELLS_PER lattice columns, with lattice points
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
        j_lo = math.floor((k_lo + 0.5) / _CELLS_PER) - 1
        j_hi = math.ceil((k_hi + 0.5) / _CELLS_PER) + 1
        edges.append(anchor + (np.arange(j_lo, j_hi + 1) * _CELLS_PER - 0.5) * spacing)
    return edges


# cell_integrals evaluates the density at MAX_SUBDIV^r midpoints per cell; a
# comparison grid may take at most this many (2^23 points of rank 2: 128 MiB an array)
_MAX_GRID_POINTS = 2**23
# a grid must capture all but this much of the limit mass
_COVERAGE_TOL = 1e-6
_CELLS_PER = 2  # lattice columns per cell of lattice_aligned_edges


class WeakConvergenceReport(NamedTuple):
    tv: float
    exact_mass_in_grid: float
    limit_mass_in_grid: float
    cells: tuple[int, ...]


def weak_convergence_distance(
    m: MeasureTable,
    kind: str,
    edges=None,
) -> WeakConvergenceReport:
    """Total-variation distance between binned exact and limit measures.

    The highest weights are rescaled by bulk_scaling for "intermediate"
    and by the table's own m.scaling otherwise (bulk_scaling at t = 0,
    gaussian_scaling else), binned over a grid and compared with
    cell_integrals of the limit density; mass outside the grid counts in
    full.  t is reflected into the dominant chamber first.

    "gaussian" (nonzero t) and "plancherel" (t = 0) are one law: with
    Phi0+ the positive roots t pairs to zero with and rho0 their half sum,
    a = sqrt(eps) (lambda + rho0) - eta / sqrt(eps) has the density
    limit_density(rs, "gaussian", a, K, t), K = B Hess f(t)^-1 B and
    eta = B^-1 grad f(t), pulled back to the scaled coordinates by the
    affine map between the two.  "intermediate" is the chamber law with u
    recovered from t, on a chamber wall or off it.

    Without edges the grid is lattice aligned, two lattice columns per
    cell: highest weights of one problem differ by root-lattice vectors,
    integers in root coordinates, so scaled points sit on a lattice of
    spacing scaling.spread.  It also covers the limit law's tail beyond
    s = sqrt(2 ln 1e9), where e^{-s^2/2} = 1e-9: |a|_K >= sqrt(r + 2 |Phi0+|)
    + s, from 0 up when every simple root is a wall, and |b|_B >= sqrt(dim g)
    + |u|_B + s for the intermediate law (a shifted Gaussian element of g
    in norm); Cauchy-Schwarz gives per-coordinate bounds.  A grid needing
    over _MAX_GRID_POINTS quadrature points is a DomainError.  A grid
    capturing under 1 - _COVERAGE_TOL of the limit mass is a
    GridCoverageError; when the midpoints of cell_integrals lie wider
    apart than the law's width on some axis, the error names that spacing
    and width, else the mass the grid captures.  The midpoint rule's own
    error is not estimated.
    """
    problem = m._tensor_problem()
    rs = problem.rs
    r = rs.rank
    eps = m.epsilon
    t_dom, _, wall = reflect_to_chamber(rs, np.zeros(r) if m.t is None else m.t)
    tail = math.sqrt(2.0 * math.log(1e9))
    if kind not in ("gaussian", "plancherel", "intermediate"):
        raise ValueError(f"unknown comparison kind {kind!r}")
    if (kind == "plancherel") != (m.t is None):
        raise DomainError(f"{kind} comparison needs {'t = 0' if kind == 'plancherel' else 'a nonzero t'}")
    if kind == "intermediate":
        scaling = bulk_scaling(problem)
        u = t_dom * math.sqrt(scaling.x_scalar / eps)
        # u B u overflows from |t| of about 1e154; scaling u by a power of two first keeps every bit
        scale = 2.0 ** math.frexp(float(np.max(np.abs(u))))[1]
        radius = math.sqrt(rs.dim_g) + scale * math.sqrt(float((u / scale) @ rs.B_f @ (u / scale))) + tail
        width = np.sqrt(np.diag(np.linalg.inv(rs.B_f)))  # per-axis spread of a unit Gaussian in g
        cover = [(0.0, h) for h in radius * width]

        def density(pts):
            return limit_density(rs, kind, pts, u=u)

    else:
        scaling = m.scaling
        _, grad, hess = f_grad_hess(problem, t_dom)
        K = precision_matrix(rs, hess, sum(problem.tau))
        in0 = stabilizer_roots(rs, wall)
        # a = scale * (scaled point) + shift
        scale = math.sqrt(eps) / scaling.spread
        rho0 = rs.pos_roots_f[in0].sum(axis=0) / 2
        shift = math.sqrt(eps) * (np.asarray(scaling.center) + rho0) - np.linalg.solve(rs.B_f, grad) / math.sqrt(eps)
        width = np.sqrt(np.diag(np.linalg.inv(K)))  # per-axis standard deviation in a
        half = (math.sqrt(r + 2 * int(np.sum(in0))) + tail) * width
        width = width / scale
        lo = np.zeros(r) if np.all(wall) else -half
        cover = list(zip((lo - shift) / scale, (half - shift) / scale))

        def density(pts):
            return scale**r * limit_density(rs, "gaussian", scale * pts + shift, K=K, u=t_dom)

    pvals = np.array([row.probability for row in m.rows])
    scaled = scaling.apply(rs.root_points([row.weight for row in m.rows]))

    def check_size(shape):
        # a product of Python floats past the float range is inf, with no overflow warning
        if math.prod(map(float, shape)) * MAX_SUBDIV**r > _MAX_GRID_POINTS:
            cells = " x ".join(f"{n:.0f}" if n < 1e9 else f"{n:.3g}" for n in shape)
            raise DomainError(f"comparison grid of {cells} cells needs over {_MAX_GRID_POINTS} quadrature points")

    if edges is None:
        check_size([(hi - lo) / (_CELLS_PER * scaling.spread) for lo, hi in cover])  # the cover alone, before any edge
        edges = lattice_aligned_edges(scaled, scaling.spread, cover=cover)
    edges = [np.asarray(e, dtype=float) for e in edges]
    shape = tuple(len(e) - 1 for e in edges)
    check_size(shape)

    # cells are half-open [e_k, e_k+1), as np.histogramdd bins all but its last
    inside = np.all([(x >= e[0]) & (x < e[-1]) for x, e in zip(scaled.T, edges)], axis=0)
    P = np.histogramdd(scaled[inside], bins=edges, weights=pvals[inside])[0]
    p_in = float(pvals[inside].sum())

    Q = cell_integrals(density, edges)
    q_in = float(Q.sum())
    if q_in < 1.0 - _COVERAGE_TOL:
        # a law narrower than the midpoint spacing falls between the midpoints
        spacing = np.array([float(np.max(np.diff(e))) / MAX_SUBDIV for e in edges])
        ax = int(np.argmax(spacing / width))
        if spacing[ax] > width[ax]:
            raise GridCoverageError(
                f"cell quadrature did not resolve the limit law: its {MAX_SUBDIV} midpoints per cell"
                f" lie {spacing[ax]:.3g} apart on axis {ax + 1}, against a limit law of width"
                f" {width[ax]:.3g} there (it found {q_in:.4g} of the limit mass)"
            )
        raise GridCoverageError(f"grid captures only {q_in} of the limit mass (tolerance {_COVERAGE_TOL})")
    tv = 0.5 * (float(np.abs(P - Q).sum()) + (1.0 - p_in) + max(0.0, 1.0 - q_in))
    return WeakConvergenceReport(tv=float(tv), exact_mass_in_grid=p_in, limit_mass_in_grid=q_in, cells=shape)
