"""Rate function of the highest-weight statistics via Legendre duality.

For a product of tensor powers with weights tau_k = epsilon N_k, the free
energy is f(y) = sum_k tau_k ln chi_k(e^y) on the real Cartan subalgebra in
simple-root coordinates.  Its Legendre transform S(xi) = inf_y f(y) - (y, xi)
governs the exponential growth of multiplicities at highest weight
lambda ~ xi / epsilon, and its Hessian data feed the Gaussian, semiclassical
and intermediate limit densities below.  All pairings use the invariant
form B fixed in rootsys.
"""

from __future__ import annotations

import contextlib
import decimal
import json
import math
import operator
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .charalg import (
    _EPS,
    CHARACTER_BUDGET,
    Weight,
    _coset_terms,
    _dominant_weight,
    _factors,
    _mixed_coset_sums,
    _parabolic,
    _rowdot,
    second_casimir,
    weight_multiplicities,
)
from .errors import ConvergenceError, DomainError, LegendreDomainError, NonRegularError, WeylGroupTooLargeError
from .rootsys import _MAX_WEYL_ORDER, RootSystem, _read_only, reflect_to_chamber, stabilizer_roots, weyl_group_order


class _TensorProblemFields(NamedTuple):
    rs: RootSystem
    factors: tuple[tuple[Weight, int], ...]
    epsilon: float


class TensorProblem(_TensorProblemFields):
    """A tensor product problem in its scaled form.

    factors pair a dominant highest weight with its power N_k; epsilon is
    the semiclassical parameter, so tau_k = epsilon N_k.
    """

    __setattr__ = __delattr__ = _read_only

    @property
    def tau(self) -> tuple[float, ...]:
        return tuple(self.epsilon * n for _, n in self.factors)

    @property
    def total_power(self) -> int:
        return sum(n for _, n in self.factors)

    @cached_property
    def _factor_data(self):
        """Per factor: (tau_k, log multiplicities, pairing matrix M).

        Row mu of M is the functional y -> (mu, y) on root coordinates, so
        softmax over (log d + M y) is the tilted weight distribution.
        """
        out = []
        for (nu, _), tk in zip(self.factors, self.tau):
            weights, d = zip(*sorted(weight_multiplicities(self.rs, nu).multiplicities.items()))
            M = np.array(weights, dtype=float) @ self.rs.cartan_inv_f.T @ self.rs.B_f
            out.append((tk, np.log(np.array(d, dtype=float)), M))
        return out


def tensor_problem(rs: RootSystem, factors, epsilon: float | None = None) -> TensorProblem:
    """Validate and build a TensorProblem; epsilon defaults to 1 / sum N_k."""
    fs = _factors(rs, factors)
    total = sum(n for _, n in fs)
    if not any(n > 0 and any(nu) for nu, n in fs):
        raise DomainError("problem needs at least one nontrivial factor with positive power")
    return TensorProblem(rs=rs, factors=fs, epsilon=_checked_epsilon(epsilon, 1.0 / total))


def _checked_epsilon(epsilon, default: float) -> float:
    """epsilon as a float, default where it is None; finite and positive or a DomainError."""
    if epsilon is None:
        epsilon = default
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    return float(epsilon)


def _rows(A, X) -> np.ndarray:
    """A x for every row x of X (A may be a stack too).

    A stacked product makes the same BLAS call for each row whatever else
    is in the batch, so a one-row view returns the bits of its batched row.
    """
    return (A @ X[..., None])[..., 0]


def _f_rows(problem: TensorProblem, Y: np.ndarray):
    """Value, gradient and Hessian of f at each row of Y, one softmax pass per factor."""
    n, r = Y.shape
    val, grad, hess = np.zeros(n), np.zeros((n, r)), np.zeros((n, r, r))
    for tk, logd, M in problem._factor_data:
        z = logd + _rows(M, Y)
        top = np.max(z, axis=1)
        p = np.exp(z - top[:, None])
        Z = p.sum(axis=1)
        p /= Z[:, None]
        val += tk * (top + np.log(Z))
        g = _rows(M.T, p)
        grad += tk * g
        hess += tk * ((M.T * p[:, None, :]) @ M - g[:, :, None] * g[:, None, :])
    return val, grad, hess


def f_eval(problem: TensorProblem, y) -> float:
    """f(y) = sum_k tau_k ln chi_k(e^y)."""
    return f_grad_hess(problem, y)[0]


def f_grad_hess(problem: TensorProblem, y) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of f at y, one softmax pass per factor."""
    val, grad, hess = _f_rows(problem, np.asarray(y, dtype=float)[None])
    return float(val[0]), grad[0], hess[0]


def forward_dual(problem: TensorProblem, y) -> np.ndarray:
    """The mean scaled weight xi(y) = B^{-1} grad f(y), in root coordinates."""
    _, grad, _ = f_grad_hess(problem, y)
    return np.linalg.solve(problem.rs.B_f, grad)


# rows per batched solve: bounds the (rows, weights) softmax arrays of a large table
_BLOCK = 1024
# H = Hess f is rejected when lambda_min(H) < _MIN_EIGENVALUE s or < _MIN_CONDITION lambda_max(H)
_MIN_EIGENVALUE = 1e-12
_MIN_CONDITION = 1e-9
# Newton residual tolerance, relative to s, and the |y| past which xi counts as outside the domain
_DUAL_TOL = 1e-12
_Y_MAX = 400.0
# a row's status in the batched solves: 0 converged, else the error its one-row view raises
_DEGENERATE, _DIVERGED, _STALLED, _MAX_ITER, _BOUNDARY, _WALL, _FACE = range(1, 8)
_ROW_ERRORS = {
    _DEGENERATE: (LegendreDomainError, "xi outside Legendre domain: dual Hessian degenerates"),
    _DIVERGED: (LegendreDomainError, "xi outside Legendre domain: dual iterates diverge"),
    _STALLED: (ConvergenceError, "line search stalled in legendre_dual"),
    _MAX_ITER: (ConvergenceError, "legendre_dual did not converge in {max_iter} iterations"),
    _BOUNDARY: (LegendreDomainError, "Hess f is singular to float precision: the mean weight is at the domain boundary"),
    _WALL: (NonRegularError, "lambda {lam} lies on a chamber wall"),
    _FACE: (LegendreDomainError, "lambda {lam} lies on a face of the product's weight polytope"),
}


def _raise_row(status: int, lam=None, max_iter: int = 200) -> None:
    """Raise the error of a failed row; a converged row (status 0) passes."""
    if status:
        cls, message = _ROW_ERRORS[int(status)]
        raise cls(message.format(lam=lam, max_iter=max_iter))


def _xi_row(problem: TensorProblem, xi) -> np.ndarray:
    """xi as a one-row batch; a DomainError, or a LegendreDomainError off the weight polytope conv(W top).

    top = sum_k tau_k nu_k.  No point of the polytope has a root coordinate
    past max |top| (tested with no arithmetic on xi), and a dominant point
    is in it when it is below top in every root coordinate, up to rounding.
    """
    rs = problem.rs
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (rs.rank,):
        raise DomainError(f"xi must have {rs.rank} coordinates")
    top = rs.cartan_inv_f @ sum(tk * np.array(nu, dtype=float) for (nu, _), tk in zip(problem.factors, problem.tau))
    size = float(np.max(np.abs(top)))
    dom, eta, _ = reflect_to_chamber(rs, xi) if np.all(np.abs(xi) <= size) else (np.inf, 0.0, None)
    if np.any(dom - top > eta / math.sqrt(float(np.min(np.linalg.eigvalsh(rs.B_f)))) + 4 * rs.rank * _EPS * size):
        raise LegendreDomainError("xi outside Legendre domain: it lies off the weight polytope of the product")
    return xi[None]


def _newton_steps(hess: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """-H^-1 R per row, NaN where LAPACK finds H singular."""
    try:
        return -np.linalg.solve(hess, resid[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(resid.shape, np.nan)
        for i in range(len(resid)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = -np.linalg.solve(hess[i], resid[i])
        return out


def _dual_rows(problem: TensorProblem, xi: np.ndarray, max_iter=200):
    """Damped Newton for grad f(y) = B xi at every row of xi, all rows at once.

    Returns y, f(y), Hess f(y) and each row's status.  A row leaves the
    active set when it converges, its Hessian is singular, its iterate
    passes _Y_MAX or its line search stalls.  grad f is s = sum_k tau_k
    times a mean weight, so the residual is measured against s.  A row on
    the domain boundary leaves only after running out toward the
    recession cone; table rows on a wall or face never get here
    (_log_multiplicity_rows), nor xi off the polytope (_xi_row), so that
    run-out is paid by xi within rounding of it.  A row whose target is
    nonzero but within the tolerance at y = 0 (|xi| below about 1e-12 s)
    still takes one step: y = 0 pairs to 0 with every root, and the
    prefactor's log |Delta(x)| would read log 0.
    """
    n, r = xi.shape
    target = _rows(problem.rs.B_f, xi)
    norm_target = np.maximum(sum(problem.tau), np.linalg.norm(target, axis=1))
    y = np.zeros((n, r))
    val, grad, hess = _f_rows(problem, y)
    status = np.full(n, _MAX_ITER)
    act = np.arange(n)
    for it in range(max_iter):
        resid = grad[act] - target[act]
        done = np.linalg.norm(resid, axis=1) <= _DUAL_TOL * norm_target[act]
        if it == 0:
            done &= ~np.any(target[act], axis=1)
        status[act[done]] = 0
        act, resid = act[~done], resid[~done]
        if not act.size:
            break
        step = _newton_steps(hess[act], resid)
        # softmax weights collapse to a face only when y has run off toward
        # the recession cone, i.e. xi is not interior
        singular = np.any(np.isnan(step), axis=1)
        status[act[singular]] = _DEGENERATE
        act, resid, step = act[~singular], resid[~singular], step[~singular]
        # Armijo backtracking on the convex objective f(y) - y . target.
        # Skip it where the predicted decrease is below float resolution of
        # the objective: there the test is noise and pure Newton is already
        # in its quadratic basin.
        y0, tgt = y[act], target[act]
        phi = val[act] - np.sum(y0 * tgt, axis=1)
        slope = np.sum(resid * step, axis=1)
        s = np.ones(len(act))
        cand = y0 + step
        cval, cgrad, chess = _f_rows(problem, cand)
        search = np.abs(slope) > 1e-12 * (1.0 + np.abs(phi))
        while True:
            search &= ~(cval - np.sum(cand * tgt, axis=1) <= phi + 1e-4 * s * slope)
            if not search.any():
                break
            s[search] *= 0.5
            status[act[search & (s < 1e-12)]] = _STALLED
            search &= s >= 1e-12
            cand[search] = y0[search] + s[search, None] * step[search]
            cval[search], cgrad[search], chess[search] = _f_rows(problem, cand[search])
        moved = s >= 1e-12
        act, cand = act[moved], cand[moved]
        y[act], val[act], grad[act], hess[act] = cand, cval[moved], cgrad[moved], chess[moved]
        far = np.linalg.norm(cand, axis=1) > _Y_MAX
        status[act[far]] = _DIVERGED
        act = act[~far]
    return y, val, hess, status


def legendre_dual(problem: TensorProblem, xi, max_iter: int = 200) -> np.ndarray:
    """Solve grad f(y) = B xi for y by damped Newton iteration.

    f is smooth and strictly convex, so the minimizer of f(y) - (y, xi) is
    unique when xi lies in the open domain (the interior of the mean-weight
    polytope).  A point off the polytope is a domain error before the
    solve (_xi_row); one within rounding of it runs away until |y| passes
    _Y_MAX.  This is a one-row view of the batched solve of a table.
    """
    y, _, _, status = _dual_rows(problem, _xi_row(problem, xi), max_iter)
    _raise_row(status[0], max_iter=max_iter)
    return y[0]


class RatePoint(NamedTuple):
    """Rate function data at one point xi (all vectors in root coordinates)."""

    algebra: str
    xi: tuple[float, ...]
    x: tuple[float, ...]
    S: float
    grad_S: tuple[float, ...]
    hess_f: tuple[tuple[float, ...], ...]
    K: tuple[tuple[float, ...], ...]
    log_prefactor: float

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RatePoint":
        p = json.loads(text)
        vectors = {k: tuple(p[k]) for k in ("xi", "x", "grad_S")}
        matrices = {k: tuple(map(tuple, p[k])) for k in ("hess_f", "K")}
        return cls(algebra=p["algebra"], S=p["S"], log_prefactor=p["log_prefactor"], **vectors, **matrices)


def _precision_rows(rs: RootSystem, hess: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """precision_matrix of each H in a stack, NaN where the gate rejects it, and the pass mask."""
    eig = np.linalg.eigvalsh(hess)
    ok = (eig[:, 0] >= _MIN_EIGENVALUE * s) & (eig[:, 0] >= _MIN_CONDITION * eig[:, -1])
    K = np.full(hess.shape, np.nan)
    B = np.broadcast_to(rs.B_f, hess[ok].shape)
    K[ok] = rs.B_f @ np.linalg.solve(hess[ok], B)
    return 0.5 * (K + np.swapaxes(K, 1, 2)), ok


def precision_matrix(rs: RootSystem, hess, s: float = 1.0) -> np.ndarray:
    """K = B H^-1 B for H = Hess f at a point, symmetrized.

    Near the boundary of the Legendre domain the tilted weight distribution
    collapses onto a face and H degenerates exponentially; solves there
    still "converge" by float saturation, so H is gated first.  H is s =
    sum_k tau_k times a covariance of weights.  At a vertex H vanishes in
    every direction, and lambda_min(H) < 1e-12 s is rejected; on an edge
    or face it vanishes across it only, and lambda_min(H) < 1e-9
    lambda_max(H) is rejected.  Neither test changes when epsilon rescales
    H and s together.
    """
    K, ok = _precision_rows(rs, np.asarray(hess, dtype=float)[None], s)
    if not ok[0]:
        _raise_row(_BOUNDARY)
    return K[0]


# rate_point's fields for a batch of xi (arrays, one row per xi), and each row's status
_RateRows = namedtuple("_RateRows", "x S hess K log_prefactor status")


def _rate_rows(problem: TensorProblem, xi: np.ndarray) -> _RateRows:
    """rate_point at every row of xi, solved in blocks of _BLOCK rows."""
    if len(xi) > _BLOCK:
        blocks = [_rate_rows(problem, xi[lo : lo + _BLOCK]) for lo in range(0, len(xi), _BLOCK)]
        return _RateRows(*(np.concatenate(parts) for parts in zip(*blocks)))
    rs = problem.rs
    x, val, hess, status = _dual_rows(problem, xi)
    K = np.full(hess.shape, np.nan)
    good = np.flatnonzero(status == 0)
    K[good], ok = _precision_rows(rs, hess[good], sum(problem.tau))
    status[good[~ok]] = _BOUNDARY
    logdetK = np.full(len(xi), np.nan)
    # K = B H^-1 B is positive definite: the gate bounds the condition of H
    logdetK[good[ok]] = np.linalg.slogdet(K[good[ok]])[1]
    bx = _rows(rs.B_f, x)
    S = val - np.sum(bx * xi, axis=1)
    # a failed row's x may lie past exp's range; its prefactor is NaN anyway
    pair = _rows(rs.pos_pairing_f, np.where(status[:, None] == 0, x, 0.0))
    with np.errstate(divide="ignore"):
        log_delta = np.sum(np.log(np.abs(2.0 * np.sinh(0.5 * pair))), axis=1)
    rho_x = np.sum(bx * rs.rho_root_f, axis=1)
    log_pref = 0.5 * logdetK - 0.5 * rs.rank * math.log(2.0 * math.pi) + log_delta - rho_x
    return _RateRows(x, S, hess, K, log_pref, status)


def rate_point(problem: TensorProblem, xi) -> RatePoint:
    """Evaluate S, its derivatives, and the fluctuation data at xi.

    S(xi) = f(x) - (x, xi) at the dual point x; grad S = -B x; the
    covariance of the Gaussian regime is K^{-1} with K = B H^{-1} B for
    H = Hess f(x).  log_prefactor collects the x-dependent part of the
    multiplicity prefactor (it is -inf when x sits on a chamber wall).
    A one-row view of the batched rate points.
    """
    rs = problem.rs
    xi = _xi_row(problem, xi)
    x, S, hess, K, log_prefactor, status = (field[0] for field in _rate_rows(problem, xi))
    _raise_row(status)
    vectors = {k: tuple(v.tolist()) for k, v in (("xi", xi[0]), ("x", x), ("grad_S", -(rs.B_f @ x)))}
    matrices = {k: tuple(map(tuple, v.tolist())) for k, v in (("hess_f", hess), ("K", K))}
    return RatePoint(algebra=str(rs.spec), S=float(S), log_prefactor=float(log_prefactor), **vectors, **matrices)


def _log_multiplicity_rows(problem: TensorProblem, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """asymptotic_log_multiplicity at each dominant weight, in one batched solve.

    Returns the root coordinates of the weights (rs.root_points), the
    estimates (NaN where a row fails) and each row's status.  The rows are
    lattice weights, so the two ways a row can sit on the boundary of the
    open domain are decided exactly, before the solve: on a chamber wall
    (_WALL), or on a face of the product's weight polytope conv(W top),
    top = sum_k N_k nu_k (_FACE).  As top - w top is a sum of positive
    roots, no point of conv(W top) has a root coordinate above top's, so
    each of these bounds is a supporting hyperplane, and a dominant lambda
    below top lies on a face exactly when a root coordinate of top - lambda
    is 0; so does xi = epsilon lambda, for every epsilon.  Only the other
    rows reach the batched solve, whose rows are independent.
    """
    rs, eps = problem.rs, problem.epsilon
    m, adj = rs.cartan_inverse_int
    numerators = rs.root_numerators(lams)
    lam_root = numerators / m  # rs.root_points, bit for bit
    status, est = np.full(len(lam_root), _WALL), np.full(len(lam_root), np.nan)
    regular = np.all(np.reshape(lams, lam_root.shape) > 0, axis=1)
    top = [sum(n * nu[i] for nu, n in problem.factors) for i in range(rs.rank)]
    # m times top's root coordinates, in ints: a row's are below 2^53, so clipping at 2^62 decides the same
    top_numerators = [min(sum(map(operator.mul, row, top)), 2**62) for row in adj.tolist()]
    below = np.array(top_numerators, dtype=np.int64) - numerators  # m times the root coordinates of top - lambda
    face = regular & np.all(below >= 0, axis=1) & np.any(below == 0, axis=1)
    status[face] = _FACE
    solve = regular & ~face
    rows = _rate_rows(problem, eps * lam_root[solve])
    status[solve] = rows.status
    est[solve] = np.where(rows.status == 0, rows.S / eps + 0.5 * rs.rank * math.log(eps) + rows.log_prefactor, np.nan)
    return lam_root, est, status


def asymptotic_log_multiplicity(problem: TensorProblem, lam) -> float:
    """Leading asymptotic estimate of ln(multiplicity of V(lambda)).

    Requires lambda strictly dominant (regular), so the dual point is an
    interior chamber point and the prefactor is finite.  The estimate is
    S(xi)/epsilon + (r/2) ln epsilon + log_prefactor at xi = epsilon lambda.
    A one-row view of the batched estimate of a table.
    """
    lam = _dominant_weight(problem.rs, lam)
    _, est, status = _log_multiplicity_rows(problem, [lam])
    _raise_row(status[0], lam)
    return float(est[0])


def hessian_at_origin(problem: TensorProblem) -> tuple[float, float]:
    """Scalar x with Hess f(0) = x B, and the residual of that identity.

    x = sum_k tau_k c2(nu_k) / dim g; the residual should vanish to float
    precision for every simple algebra.
    """
    rs = problem.rs
    x = 0.0
    for (nu, _), tk in zip(problem.factors, problem.tau):
        x += tk * float(second_casimir(rs, nu)) / rs.dim_g
    _, _, hess = f_grad_hess(problem, np.zeros(rs.rank))
    resid = float(np.max(np.abs(hess - x * rs.B_f)))
    return x, resid


# most coset terms one limit_density call sums in decimal, a few seconds' work
_DECIMAL_TERMS = 2**17


def _decimal_coset_sums(par, u_pair: np.ndarray, lams: np.ndarray, digits: int) -> list[float]:
    """S of the coset sum at each row Lambda of lams, every operation rounded to the given decimal digits."""

    def dot(row, vec):
        return sum(map(operator.mul, row, vec))

    def decimals(rows):
        return [list(map(decimal.Decimal, row)) for row in rows]

    with decimal.localcontext() as ctx:
        ctx.prec = digits
        (pair,) = decimals([u_pair.tolist()])
        qs = [[dot(row, pair) for row in decimals(q)] for q in par.qmat.tolist()]
        polys, signs, out = [decimals(poly) for poly in par.poly.tolist()], par.sign.tolist(), []
        for lam in decimals(lams.tolist()):
            ones = [dot(poly[0], lam) for poly in polys]
            total = decimal.Decimal(1)  # the identity term, w = 0, is exactly 1
            for w in range(1, len(qs)):
                term = (-dot(qs[w], lam)).exp() * math.prod(dot(poly[w], lam) / one for poly, one in zip(polys, ones))
                total += term if signs[w] > 0 else -term
            out.append(float(total))
        return out


def _intermediate_density(rs: RootSystem, pts: np.ndarray, u: np.ndarray, wall) -> np.ndarray:
    """limit_density's "intermediate" kind at dominant u, its coset sums certified like CharacterPlan's rows.

    The pairings of u and Lambda = C b are taken as computed, a few ulps
    from u and b like any rounded input.  Term w is at most M_w = e^{-x_w}
    prod_k (|Lambda| . |poly_k,w|) / (Lambda . poly_k,1), and the identity
    term is exactly 1.  As each operation rounds by eps / 2 and exp by eps,
    term w != 1 rounds by at most eps c_w, c_w = M_w ((2r - 1) |Lambda| .
    q_w + (r + 1/2) n0 + 1), and the sum adds eps cosets / 2 sum_w M_w.  S
    is at least 1 - sum over w != 1 of M_w, and, as the orbital integral
    I = pi(rho) e^{(b, u)} P_1 S / (pi(b) pi_out(u)) is an average of
    e^{(k b, u)} over the compact group, I >= 1 (Jensen).  p = G_u pi(b)
    P_1 S / pi_out(u), G_u the unit Gaussian centred at u, is certified to
    within CHARACTER_BUDGET of max(p, G_u).  Rows past it in float take the
    mixed tier (charalg._mixed_coset_sums) with these c_w, |term_w| <= M_w,
    that floor on S and rest 0, Lambda in long double; the rows it refuses
    are summed in decimal at the digits the bound asks for, and past
    _DECIMAL_TERMS decimal terms the call raises DomainError.
    """
    order = weyl_group_order(rs.spec)
    if order > _MAX_WEYL_ORDER:
        raise WeylGroupTooLargeError(f"Weyl group too large for the coset sum: |W| = {order}", order)
    r = rs.rank
    par = _parabolic(rs.spec, tuple(bool(w) for w in wall))
    n0, cosets = len(par.rho0), len(par.sign)
    u_pair = np.where(wall, 0.0, rs.B_f @ u)
    # on chamber walls of b the root product vanishes, so the density is zero there
    interior = np.all(pts @ rs.pos_pairing_f.T > 1e-12, axis=1)
    b = pts[interior]
    shifted, q = b @ rs.cartan_f.T, par.qmat @ u_pair
    x, terms, log_p1 = _coset_terms(par, q, shifted)
    big = np.exp(-x)
    for poly in par.poly:
        big *= _rowdot(np.abs(shifted), np.abs(poly)) / _rowdot(shifted, poly[:1])
    rounding = (2 * r - 1) * _rowdot(np.abs(shifted), q) + (r + 0.5) * n0 + 1.0  # c_w / (eps M_w)
    rounding[:, 0] = 0.0  # the identity term is exactly 1
    err = big * (rounding + cosets / 2)
    log_pi_b, log_pi_u = np.sum(np.log(b @ rs.pos_pairing_f.T), axis=1), np.sum(np.log(par.outside @ u_pair))
    log_low = np.maximum.reduce([
        log_pi_b + log_pi_u - b @ u_pair - log_p1 - np.sum(np.log(rs.pos_pairing_f @ rs.rho_root_f)),
        np.log(np.maximum(1.0 - np.sum(big[:, 1:] + _EPS * err[:, 1:], axis=1), 1e-300)),
        log_pi_u - log_pi_b - log_p1,
    ])
    ratio = np.exp(np.minimum(np.log(np.sum(err, axis=1)) - log_low, 700.0))
    sums = terms @ par.sign
    ext = np.flatnonzero(_EPS * ratio > CHARACTER_BUDGET)
    mags, inv_low = big[ext], np.exp(-log_low[ext])
    lam = shifted[ext].astype(np.longdouble)  # Lambda's pairings round: form them in long double
    ok, s_ok, _, _ = _mixed_coset_sums(par, u_pair, lam, terms[ext], mags, mags * rounding[ext], inv_low, 0.0)
    sums[ext[ok]] = s_ok
    wide = np.delete(ext, ok)
    if len(wide) * cosets > _DECIMAL_TERMS:
        raise DomainError(f"the intermediate density needs {len(wide) * cosets} decimal coset terms here")
    if len(wide):
        digits = 2 + math.ceil(math.log10(float(np.max(ratio[wide])) / CHARACTER_BUDGET))
        sums[wide] = _decimal_coset_sums(par, u_pair, shifted[wide], digits)
    log_c = 0.5 * (np.linalg.slogdet(rs.B_f)[1] - r * math.log(2.0 * math.pi) - u @ u_pair)
    log_c -= log_pi_u
    log_b = log_pi_b + b @ u_pair + log_p1
    log_b -= 0.5 * np.einsum("ij,jk,ik->i", b, rs.B_f, b)
    out = np.zeros(len(pts))
    out[interior] = np.exp(log_c + log_b) * np.maximum(sums, 0.0)
    return out


def limit_density(
    rs: RootSystem,
    kind: str,
    points,
    K=None,
    u=None,
) -> np.ndarray:
    """Evaluate a limit density at an array of root-coordinate points.

    kind "gaussian": with Phi0+ the positive roots the parameter u pairs to
    zero with (none if u is None), rho0 their half sum and H = B K^-1 B,

      p(a) = prod over Phi0+ of (alpha, a)^2 e^{-a.Ka/2} / Z

    on the cone (alpha, a) >= 0, alpha in Phi0+, where Z = (2 pi)^{r/2}
    det K^{-1/2} prod over Phi0+ of (rho0, alpha) alpha.H.alpha / (alpha,
    alpha) is the Macdonald-Mehta integral taken factor by factor (K is
    W0-invariant, so a multiple of B on each simple factor of Phi0).  With
    no walls it is the Gaussian of precision K.  kind "plancherel" is its
    other end, K = B with every wall: the chamber law at t = 0.  kind
    "intermediate" interpolates between the two on the chamber.  It is the
    continuum limit of Weyl's character formula, b playing lambda + rho
    and u playing t, so it is CharacterPlan's coset sum over W/W0 (Phi0+
    now the roots u pairs to zero with):

      p(b) = (2 pi)^{-r/2} det B^{1/2} prod over alpha > 0 of (alpha, b)
             e^{(b, u) - |b|^2/2 - |u|^2/2} P_1(b) S(b) / prod over alpha > 0 outside Phi0 of (alpha, u)

    on the open chamber and 0 on its walls; at u = 0 it is "plancherel".
    Each value is within 1e-11 of max(p, G_u), G_u the unit Gaussian
    centred at u, whatever S cancels: S is summed in float, in the mixed
    tier that characters share, or in decimal, by the density's own bound
    (see _intermediate_density).
    u is reflected into the dominant chamber first.  Returns densities
    with respect to Lebesgue measure in root coordinates.
    """
    single = np.ndim(points) == 1
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != rs.rank:
        raise DomainError(f"points must have {rs.rank} columns")
    r = rs.rank
    if kind == "plancherel":
        K, u = rs.B_f, np.zeros(r)
    elif kind not in ("gaussian", "intermediate"):
        raise ValueError(f"unknown density kind {kind!r}")
    if u is None:
        if kind == "intermediate":
            raise DomainError("intermediate density needs the parameter u")
        wall = np.zeros(r, dtype=bool)
    else:
        u, _, wall = reflect_to_chamber(rs, u)
    if kind != "intermediate":
        if K is None:
            raise DomainError("gaussian density needs the precision matrix K")
        K = np.asarray(K, dtype=float)
        sign, logdet = np.linalg.slogdet(K)
        if sign <= 0:
            raise DomainError("K must be positive definite")
        in0 = stabilizer_roots(rs, wall)
        v = rs.pos_pairing_f[in0]  # row alpha: a -> (alpha, a)
        rho0 = rs.pos_roots_f[in0].sum(axis=0) / 2
        # alpha.H.alpha / (alpha, alpha) = v K^-1 v / (alpha, alpha)
        ratio = np.einsum("ij,ji->i", v, np.linalg.solve(K, v.T)) / np.einsum("ij,ij->i", v, rs.pos_roots_f[in0])
        log_z = 0.5 * r * math.log(2.0 * math.pi) - 0.5 * logdet + float(np.sum(np.log((v @ rho0) * ratio)))
        pair = pts @ v.T
        quad = np.einsum("ij,jk,ik->i", pts, K, pts)
        out = np.prod(np.maximum(pair, 0.0) ** 2, axis=1) * np.exp(-log_z - 0.5 * quad)
        out = np.where(np.all(pair > -1e-12, axis=1), out, 0.0)
    else:
        out = _intermediate_density(rs, pts, u, wall)

    return out[0] if single else out
