"""The stationary identity chi_nu(e^{x(xi)}) = sum_mu d_mu e^{-(mu, grad S)}."""

import numpy as np
import pytest

from tensorstat import (
    DomainError,
    pde_residual,
    tensor_problem,
)


def _single(rs, nu, n, tau):
    return tensor_problem(rs, [(nu, n)], epsilon=tau / n)


def test_residual_a1_closed_form_point(a1):
    p = _single(a1, (1,), 10, 1.0)
    rep = pde_residual(p, np.array([0.25]))
    # sigma = (0.75, 0.25): chi = 1 / sqrt(sigma1 sigma2) = 4 / sqrt(3)
    assert rep.lhs == pytest.approx(4 / np.sqrt(3), rel=1e-12)
    assert rep.residual < 1e-11
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-11)


def test_residual_at_origin_is_dimension(a1, a2, g2):
    for rs, nu, dim in [(a1, (1,), 2), (a2, (1, 0), 3), (g2, (0, 1), 7)]:
        p = _single(rs, nu, 8, 1.0)
        rep = pde_residual(p, np.zeros(rs.rank))
        assert rep.lhs == pytest.approx(dim, rel=1e-12)
        assert rep.residual < 1e-11


@pytest.mark.parametrize(
    "name,nu",
    [("A1", (1,)), ("A2", (1, 0)), ("B2", (0, 1))],
)
def test_residual_small_on_grid(name, nu, request):
    rs = request.getfixturevalue(name.lower())
    p = tensor_problem(rs, [(nu, 10)], epsilon=0.13)
    from tensorstat import forward_dual

    for corner in np.ndindex(*(3,) * rs.rank):
        y = 0.8 * (np.array(corner, dtype=float) - 1.0)
        xi = forward_dual(p, y)
        rep = pde_residual(p, xi)
        assert rep.residual < 1e-9


def test_finite_difference_cross_check(a1):
    p = _single(a1, (1,), 10, 1.0)
    rep = pde_residual(p, np.array([0.2]), h=1e-5)
    assert rep.tau_partial == pytest.approx(rep.tau_partial_fd, abs=1e-6)
    for exact, fd in zip(rep.xi_partials, rep.xi_partials_fd):
        assert exact == pytest.approx(fd, abs=1e-6)


def test_pde_residual_derivatives_report(a2):
    p = _single(a2, (1, 0), 12, 1.2)
    out = pde_residual(p, np.array([0.05, -0.02])).derivatives
    assert out.max_deviation == max(out.tau_deviation, out.xi_deviation)
    assert out.max_deviation < 1e-6


def test_multi_factor_problems_rejected(a1):
    p = tensor_problem(a1, [((1,), 2), ((2,), 3)])
    with pytest.raises(DomainError):
        pde_residual(p, np.array([0.1]))
