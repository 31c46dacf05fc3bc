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

from typing import NamedTuple

import numpy as np

from .charalg import character_value, weight_multiplicities
from .errors import DomainError
from .legendre import TensorProblem, _raise_row, _rate_rows, _rows, _xi_row, tensor_problem


class DerivativeReport(NamedTuple):
    xi_deviation: float
    tau_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.xi_deviation, self.tau_deviation)


class PdeReport(NamedTuple):
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
    fields for both partials.  A one-row view of _pde_rows.
    """
    return _pde_rows(problem, _xi_row(problem, xi), h)[0]


def _pde_rows(problem: TensorProblem, xi: np.ndarray, h: float = 1e-5) -> list[PdeReport]:
    """pde_residual at every row of xi: one batched rate-point solve per problem.

    The problem itself takes the base points and their 2r xi-differences;
    the problems at tau + h and tau - h take the base points.
    """
    if len(problem.factors) != 1:
        raise DomainError("rate-function PDE applies to single-factor problems")
    rs = problem.rs
    ((nu, n),) = problem.factors
    tau = problem.epsilon * n
    k, r = xi.shape
    shifts = xi[:, None, :] + h * np.eye(r), xi[:, None, :] - h * np.eye(r)
    base = _rate_rows(problem, np.concatenate([xi, *(s.reshape(-1, r) for s in shifts)]))
    up, down = (_rate_rows(tensor_problem(rs, [(nu, n)], epsilon=(tau + d) / n), xi) for d in (h, -h))
    _raise_row(max(rows.status.max(initial=0) for rows in (base, up, down)))
    x = base.x[:k]
    grad_S = -_rows(rs.B_f, x)
    tau_partial = np.array([character_value(rs, nu, p)[0] for p in x])
    lhs = np.exp(tau_partial)

    weights, d = zip(*sorted(weight_multiplicities(rs, nu).multiplicities.items()))
    exponents = _rows(-(np.array(weights, dtype=float) @ rs.cartan_inv_f.T), grad_S)
    rhs = np.sum(np.array(d, dtype=float) * np.exp(exponents), axis=1)
    tau_fd = (up.S - down.S) / (2 * h)
    S_up, S_down = base.S[k:].reshape(2, k, r)
    xi_fd = (S_up - S_down) / (2 * h)
    scalars = zip(lhs, rhs, np.abs(lhs - rhs) / np.abs(lhs), tau_partial, tau_fd)
    return [PdeReport(*map(float, v), tuple(g.tolist()), tuple(f.tolist())) for v, g, f in zip(scalars, grad_S, xi_fd)]
