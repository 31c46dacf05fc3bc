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

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .charalg import Weight, _dominant_weight, _factors, second_casimir, weight_multiplicities
from .errors import (
    ConvergenceError,
    DomainError,
    LegendreDomainError,
    NonRegularError,
)
from .numerics import logsumexp
from .rootsys import RootSystem, reflect_to_chamber, stabilizer_roots


@dataclass(frozen=True)
class TensorProblem:
    """A tensor product problem in its scaled form.

    factors pair a dominant highest weight with its power N_k; epsilon is
    the semiclassical parameter, so tau_k = epsilon N_k.
    """

    rs: RootSystem
    factors: tuple[tuple[Weight, int], ...]
    epsilon: float

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


def f_eval(problem: TensorProblem, y) -> float:
    """f(y) = sum_k tau_k ln chi_k(e^y)."""
    y = np.asarray(y, dtype=float)
    return sum(tk * logsumexp(logd + M @ y) for tk, logd, M in problem._factor_data)


def f_grad_hess(problem: TensorProblem, y) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of f at y, one softmax pass per factor."""
    y = np.asarray(y, dtype=float)
    r = problem.rs.rank
    val = 0.0
    grad = np.zeros(r)
    hess = np.zeros((r, r))
    for tk, logd, M in problem._factor_data:
        z = logd + M @ y
        m = np.max(z)
        p = np.exp(z - m)
        Z = p.sum()
        p /= Z
        val += tk * (m + math.log(Z))
        g = M.T @ p
        grad += tk * g
        hess += tk * ((M.T * p) @ M - np.outer(g, g))
    return val, grad, hess


def forward_dual(problem: TensorProblem, y) -> np.ndarray:
    """The mean scaled weight xi(y) = B^{-1} grad f(y), in root coordinates."""
    _, grad, _ = f_grad_hess(problem, y)
    return np.linalg.solve(problem.rs.B_f, grad)


def legendre_dual(
    problem: TensorProblem,
    xi,
    tol: float = 1e-12,
    max_iter: int = 200,
    y_max: float = 400.0,
) -> np.ndarray:
    """Solve grad f(y) = B xi for y by damped Newton iteration.

    f is smooth and strictly convex, so the minimizer of f(y) - (y, xi) is
    unique when xi lies in the open domain (the interior of the mean-weight
    polytope).  Outside it the iterates run away; that is reported as a
    domain error once |y| passes y_max.
    """
    rs = problem.rs
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (rs.rank,):
        raise DomainError(f"xi must have shape ({rs.rank},)")
    target = rs.B_f @ xi
    norm_target = max(1.0, float(np.linalg.norm(target)))
    y = np.zeros(rs.rank)
    val, grad, hess = f_grad_hess(problem, y)
    for _ in range(max_iter):
        resid = grad - target
        if float(np.linalg.norm(resid)) <= tol * norm_target:
            return y
        try:
            step = np.linalg.solve(hess, -resid)
        except np.linalg.LinAlgError:
            # softmax weights collapse to a face only when y has run off
            # toward the recession cone, i.e. xi is not interior
            raise LegendreDomainError("xi outside Legendre domain: dual Hessian degenerates")
        # Armijo backtracking on the convex objective f(y) - y . target.
        # Skip it when the predicted decrease is below float resolution of
        # the objective: there the test is noise and pure Newton is already
        # in its quadratic basin.
        phi = val - y @ target
        slope = resid @ step
        s = 1.0
        if abs(slope) > 1e-12 * (1.0 + abs(phi)):
            while True:
                cand = y + s * step
                cval = f_eval(problem, cand)
                if cval - cand @ target <= phi + 1e-4 * s * slope:
                    break
                s *= 0.5
                if s < 1e-12:
                    raise ConvergenceError("line search stalled in legendre_dual")
        y = y + s * step
        if float(np.linalg.norm(y)) > y_max:
            raise LegendreDomainError("xi outside Legendre domain: dual iterates diverge")
        val, grad, hess = f_grad_hess(problem, y)
    raise ConvergenceError(f"legendre_dual did not converge in {max_iter} iterations")


@dataclass(frozen=True)
class RatePoint:
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
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RatePoint":
        p = json.loads(text)
        vectors = {k: tuple(p[k]) for k in ("xi", "x", "grad_S")}
        matrices = {k: tuple(map(tuple, p[k])) for k in ("hess_f", "K")}
        return cls(algebra=p["algebra"], S=p["S"], log_prefactor=p["log_prefactor"], **vectors, **matrices)


def precision_matrix(rs: RootSystem, hess) -> np.ndarray:
    """K = B H^-1 B for H = Hess f at a point, symmetrized.

    Near the boundary of the Legendre domain the tilted weight distribution
    collapses onto a face and H degenerates exponentially; solves there
    still "converge" by float saturation, so H is gated first.
    """
    if float(np.min(np.linalg.eigvalsh(hess))) < 1e-12:
        raise LegendreDomainError("Hess f is singular to float precision: the mean weight is at the domain boundary")
    K = rs.B_f @ np.linalg.solve(hess, rs.B_f)
    return 0.5 * (K + K.T)


def rate_point(problem: TensorProblem, xi) -> RatePoint:
    """Evaluate S, its derivatives, and the fluctuation data at xi.

    S(xi) = f(x) - (x, xi) at the dual point x; grad S = -B x; the
    covariance of the Gaussian regime is K^{-1} with K = B H^{-1} B for
    H = Hess f(x).  log_prefactor collects the x-dependent part of the
    multiplicity prefactor (it is -inf when x sits on a chamber wall).
    """
    rs = problem.rs
    xi = np.asarray(xi, dtype=float)
    x = legendre_dual(problem, xi)
    val, _, hess = f_grad_hess(problem, x)
    K = precision_matrix(rs, hess)
    S = val - float(x @ rs.B_f @ xi)
    grad_S = -(rs.B_f @ x)
    sign, logdetK = np.linalg.slogdet(K)
    if sign <= 0:
        raise DomainError("fluctuation matrix K is not positive definite")
    pair = rs.pos_pairing_f @ x
    with np.errstate(divide="ignore"):
        log_delta = float(np.sum(np.log(np.abs(2.0 * np.sinh(0.5 * pair)))))
    rho_x = float(rs.rho_root_f @ rs.B_f @ x)
    r = rs.rank
    log_pref = 0.5 * logdetK - 0.5 * r * math.log(2.0 * math.pi) + log_delta - rho_x
    return RatePoint(
        algebra=str(rs.spec),
        xi=tuple(float(v) for v in xi),
        x=tuple(float(v) for v in x),
        S=float(S),
        grad_S=tuple(float(v) for v in grad_S),
        hess_f=tuple(tuple(float(v) for v in row) for row in hess),
        K=tuple(tuple(float(v) for v in row) for row in K),
        log_prefactor=float(log_pref),
    )


def asymptotic_log_multiplicity(problem: TensorProblem, lam) -> float:
    """Leading asymptotic estimate of ln(multiplicity of V(lambda)).

    Requires lambda strictly dominant (regular), so the dual point is an
    interior chamber point and the prefactor is finite.  The estimate is
    S(xi)/epsilon + (r/2) ln epsilon + log_prefactor at xi = epsilon lambda.
    """
    lam = _dominant_weight(problem.rs, lam)
    if any(c == 0 for c in lam):
        raise NonRegularError(f"lambda {lam} lies on a chamber wall")
    rs = problem.rs
    eps = problem.epsilon
    xi = eps * np.array([float(v) for v in rs.root_coords(lam)])
    rp = rate_point(problem, xi)
    r = rs.rank
    return rp.S / eps + 0.5 * r * math.log(eps) + rp.log_prefactor


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
    "intermediate" needs a regular u and interpolates between the two on
    the chamber.  u is reflected into the dominant chamber first.  Returns
    densities with respect to Lebesgue measure in root coordinates.
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
        if np.any(wall):
            raise NonRegularError("u must be off every chamber wall")
        u_pair = rs.pos_pairing_f @ u
        actions, parities = rs.weyl_actions
        wu = actions @ u  # (|W|, r)
        pair = pts @ rs.pos_pairing_f.T
        quad_b = np.einsum("ij,jk,ik->i", pts, rs.B_f, pts)
        quad_u = float(u @ rs.B_f @ u)
        expo = (pts @ rs.B_f) @ wu.T  # (m, |W|), entries (b, w(u))
        m0 = np.max(expo, axis=1, keepdims=True)
        alt = np.sum(parities[None, :] * np.exp(expo - m0), axis=1)
        sign, logdetB = np.linalg.slogdet(rs.B_f)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pair = np.sum(np.log(np.maximum(pair, 1e-300)), axis=1)
            log_main = 0.5 * logdetB - 0.5 * r * math.log(2.0 * math.pi) + log_pair - float(np.sum(np.log(u_pair)))
            log_main = log_main + m0[:, 0] - 0.5 * quad_b - 0.5 * quad_u
        # on chamber walls both the root product and the alternating sum
        # vanish, so the continuous extension is zero there
        interior = np.all(pair > 1e-12, axis=1)
        out = np.where(interior, np.exp(log_main) * np.maximum(alt, 0.0), 0.0)

    return out[0] if single else out
