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
from dataclasses import dataclass
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
from .rootsys import RootSystem


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
        return json.dumps(
            {
                "algebra": self.algebra,
                "xi": list(self.xi),
                "x": list(self.x),
                "S": self.S,
                "grad_S": list(self.grad_S),
                "hess_f": [list(row) for row in self.hess_f],
                "K": [list(row) for row in self.K],
                "log_prefactor": self.log_prefactor,
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "RatePoint":
        p = json.loads(text)
        return cls(
            algebra=p["algebra"],
            xi=tuple(p["xi"]),
            x=tuple(p["x"]),
            S=p["S"],
            grad_S=tuple(p["grad_S"]),
            hess_f=tuple(tuple(row) for row in p["hess_f"]),
            K=tuple(tuple(row) for row in p["K"]),
            log_prefactor=p["log_prefactor"],
        )


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
    # near the polytope boundary the tilted weight distribution collapses
    # onto a face and H degenerates exponentially; the residual equation
    # still "converges" there by float saturation, so gate on H instead
    if float(np.min(np.linalg.eigvalsh(hess))) < 1e-12:
        raise LegendreDomainError("xi within float tolerance of the domain boundary")
    S = val - float(x @ rs.B_f @ xi)
    grad_S = -(rs.B_f @ x)
    K = rs.B_f @ np.linalg.solve(hess, rs.B_f)
    K = 0.5 * (K + K.T)
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

    kind "gaussian": needs the precision matrix K; supported on all of
    the Cartan space.  kind "plancherel": squared-root-product density,
    normalized on the dominant chamber (zero outside it).  kind
    "intermediate": needs the dominant regular parameter u; interpolates
    between the other two on the chamber.  Returns densities with respect
    to Lebesgue measure in root coordinates.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != rs.rank:
        raise DomainError(f"points must have {rs.rank} columns")
    r = rs.rank

    if kind == "gaussian":
        if K is None:
            raise DomainError("gaussian density needs the precision matrix K")
        K = np.asarray(K, dtype=float)
        sign, logdet = np.linalg.slogdet(K)
        if sign <= 0:
            raise DomainError("K must be positive definite")
        quad = np.einsum("ij,jk,ik->i", pts, K, pts)
        out = np.exp(0.5 * logdet - 0.5 * r * math.log(2.0 * math.pi) - 0.5 * quad)
    elif kind == "plancherel":
        pair = pts @ rs.pos_pairing_f.T  # (m, n_positive)
        inside = np.all(pair > -1e-12, axis=1)
        quad = np.einsum("ij,jk,ik->i", pts, rs.B_f, pts)
        sign, logdetB = np.linalg.slogdet(rs.B_f)
        log_rho = np.sum(np.log(rs.rho_pos_pairings_f))
        prod = np.prod(np.maximum(pair, 0.0) ** 2, axis=1)
        out = (
            math.exp(0.5 * logdetB - 0.5 * r * math.log(2.0 * math.pi) - log_rho)
            * prod
            * np.exp(-0.5 * quad)
        )
        out = np.where(inside, out, 0.0)
    elif kind == "intermediate":
        if u is None:
            raise DomainError("intermediate density needs the parameter u")
        u = np.asarray(u, dtype=float)
        u_pair = rs.pos_pairing_f @ u
        if np.any(u_pair <= 0):
            raise NonRegularError("u must be strictly inside the dominant chamber")
        actions, parities = rs.weyl_actions
        wu = actions @ u  # (|W|, r)
        pair = pts @ rs.pos_pairing_f.T
        inside = np.all(pair > -1e-12, axis=1)
        quad_b = np.einsum("ij,jk,ik->i", pts, rs.B_f, pts)
        quad_u = float(u @ rs.B_f @ u)
        expo = (pts @ rs.B_f) @ wu.T  # (m, |W|), entries (b, w(u))
        m0 = np.max(expo, axis=1, keepdims=True)
        alt = np.sum(parities[None, :] * np.exp(expo - m0), axis=1)
        sign, logdetB = np.linalg.slogdet(rs.B_f)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_main = (
                0.5 * logdetB
                - 0.5 * r * math.log(2.0 * math.pi)
                + np.sum(np.log(np.maximum(pair, 1e-300)), axis=1)
                - float(np.sum(np.log(u_pair)))
                + m0[:, 0]
                - 0.5 * quad_b
                - 0.5 * quad_u
            )
        # on chamber walls both the root product and the alternating sum
        # vanish, so the continuous extension is zero there
        interior = np.all(pair > 1e-12, axis=1)
        out = np.where(interior, np.exp(log_main) * np.maximum(alt, 0.0), 0.0)
    else:
        raise ValueError(f"unknown density kind {kind!r}")

    return out[0] if single else out
