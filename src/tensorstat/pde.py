"""Consistency checks on the rate function S(tau, xi).

For a single tensor factor the rate function satisfies

    exp(dS/dtau) = sum_{mu in wt(V)} d_mu exp(-sum_a mu_a dS/dxi_a),

with the partials available in closed form at the dual point x:
dS/dtau = ln chi_V(e^x) and dS/dxi = -Bx.  Both sides are evaluated
through different code paths (coset-sum character vs weight sum over
the gradient), so the residual exercises the whole Legendre pipeline.
Finite-difference versions of both partials back the analytic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charalg import character_value, weight_multiplicities
from .errors import DomainError
from .legendre import TensorProblem, rate_point, tensor_problem


def _single_factor(problem: TensorProblem):
    if len(problem.factors) != 1:
        raise DomainError("rate-function PDE applies to single-factor problems")
    return problem.factors[0]


def _problem_at_tau(problem: TensorProblem, tau: float) -> TensorProblem:
    nu, n = _single_factor(problem)
    return tensor_problem(problem.rs, [(nu, n)], epsilon=tau / n)


def _rate_S(problem: TensorProblem, tau: float, xi: np.ndarray) -> float:
    return rate_point(_problem_at_tau(problem, tau), xi).S


@dataclass(frozen=True)
class DerivativeReport:
    xi_deviation: float
    tau_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.xi_deviation, self.tau_deviation)


@dataclass(frozen=True)
class PdeReport:
    lhs: float
    rhs: float
    residual: float
    tau_partial: float
    tau_partial_fd: float
    xi_partials: tuple[float, ...]
    xi_partials_fd: tuple[float, ...]

    @property
    def derivatives(self) -> DerivativeReport:
        """Deviation of the central differences from the analytic partials."""
        xi_dev = max(abs(a - f) for a, f in zip(self.xi_partials, self.xi_partials_fd))
        tau_dev = abs(self.tau_partial - self.tau_partial_fd)
        return DerivativeReport(xi_deviation=float(xi_dev), tau_deviation=float(tau_dev))


def pde_residual(problem: TensorProblem, xi, h: float = 1e-5) -> PdeReport:
    """Relative defect of the rate-function PDE at one interior point.

    lhs exponentiates the analytic tau-partial ln chi(e^x); rhs sums
    d_mu exp(mu . (-grad S)) over the weights of the factor.  residual is
    |lhs - rhs| / lhs.  Central differences with step h fill the _fd
    fields for both partials.
    """
    rs = problem.rs
    nu, n = _single_factor(problem)
    tau = problem.epsilon * n
    xi = np.asarray(xi, dtype=float)
    rp = rate_point(problem, xi)
    x = np.array(rp.x)
    grad_S = np.array(rp.grad_S)

    tau_partial, _ = character_value(rs, nu, x)
    lhs = float(np.exp(tau_partial))

    weights, d = zip(*sorted(weight_multiplicities(rs, nu).multiplicities.items()))
    exponents = -(np.array(weights, dtype=float) @ rs.cartan_inv_f.T) @ grad_S
    rhs = float(np.sum(np.array(d, dtype=float) * np.exp(exponents)))
    residual = abs(lhs - rhs) / abs(lhs)

    tau_fd = (_rate_S(problem, tau + h, xi) - _rate_S(problem, tau - h, xi)) / (2 * h)
    xi_fd = []
    for a in range(rs.rank):
        step = np.zeros(rs.rank)
        step[a] = h
        xi_fd.append((rate_point(problem, xi + step).S - rate_point(problem, xi - step).S) / (2 * h))

    return PdeReport(
        lhs=lhs,
        rhs=rhs,
        residual=float(residual),
        tau_partial=float(tau_partial),
        tau_partial_fd=float(tau_fd),
        xi_partials=tuple(float(g) for g in grad_S),
        xi_partials_fd=tuple(float(g) for g in xi_fd),
    )
