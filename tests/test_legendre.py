"""Scaled log-character, its Legendre transform, and the limit densities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    DomainError,
    LegendreDomainError,
    asymptotic_log_multiplicity,
    build_root_system,
    charalg,
    enumerate_weyl_group,
    f_eval,
    f_grad_hess,
    forward_dual,
    hessian_at_origin,
    legendre,
    legendre_dual,
    limit_density,
    rate_point,
    tensor_power_decompose,
    tensor_problem,
)
from tensorstat.numerics import box_quadrature


def _a1_problem(tau=1.0, n=10):
    rs = build_root_system(AlgebraSpec.parse("A1"))
    return tensor_problem(rs, [((1,), n)], epsilon=tau / n)


def test_tensor_problem_defaults():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    p = tensor_problem(rs, [((1, 0), 3), ((0, 1), 2)])
    assert p.epsilon == pytest.approx(1 / 5)
    assert p.tau == pytest.approx((3 / 5, 2 / 5))
    assert p.total_power == 5


def test_tensor_problem_rejects_bad_input():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    with pytest.raises(DomainError):
        tensor_problem(rs, [((-1,), 2)])
    with pytest.raises(DomainError):
        tensor_problem(rs, [((1,), -2)])
    with pytest.raises(DomainError):
        tensor_problem(rs, [((0,), 3)])  # only trivial factors: no scale


def test_f_closed_form_a1():
    # single factor [1], tau = 1: f(y) = ln(2 cosh y) in root coordinates
    p = _a1_problem()
    for y in [-1.3, 0.0, 0.4, 2.0]:
        assert f_eval(p, np.array([y])) == pytest.approx(math.log(2 * math.cosh(y)), rel=1e-12)
    val, grad, hess = f_grad_hess(p, np.array([0.4]))
    assert grad[0] == pytest.approx(math.tanh(0.4), rel=1e-12)
    assert hess[0, 0] == pytest.approx(1 / math.cosh(0.4) ** 2, rel=1e-12)


def test_forward_dual_matches_gradient():
    rs = build_root_system(AlgebraSpec.parse("B2"))
    p = tensor_problem(rs, [((1, 0), 4), ((0, 1), 4)], epsilon=0.25)
    y = np.array([0.3, -0.5])
    _, grad, _ = f_grad_hess(p, y)
    assert np.asarray(rs.B_f) @ forward_dual(p, y) == pytest.approx(grad)


def test_legendre_dual_a1_artanh():
    # grad f = tanh(y) and B xi = 2 xi, so y = artanh(2 xi) on (-1/2, 1/2)
    p = _a1_problem()
    for xi in [0.0, 0.1, -0.3, 0.45]:
        y = legendre_dual(p, np.array([xi]))
        assert y[0] == pytest.approx(math.atanh(2 * xi), abs=1e-10)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(y=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_dual_roundtrip(name, y):
    rs = build_root_system(AlgebraSpec.parse(name))
    p = tensor_problem(rs, [(tuple([1] + [0] * (rs.rank - 1)), 6)], epsilon=0.2)
    yv = np.array(y)
    xi = forward_dual(p, yv)
    back = legendre_dual(p, xi)
    assert back == pytest.approx(yv, abs=1e-8)


def test_legendre_domain_error_outside_hull():
    # weight hull of [1] in root coordinates is [-1/2, 1/2], scaled by tau = 1
    p = _a1_problem()
    with pytest.raises(LegendreDomainError):
        legendre_dual(p, np.array([0.7]))
    with pytest.raises(LegendreDomainError):
        legendre_dual(p, np.array([-0.9]))
    with pytest.raises(LegendreDomainError):
        legendre_dual(p, np.array([1.4]))


def test_rate_point_fields_a1():
    p = _a1_problem()
    rp = rate_point(p, np.array([0.3]))
    # sigma = (0.8, 0.2): S is the binary entropy, x the half log ratio
    assert rp.S == pytest.approx(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)), rel=1e-12)
    assert rp.x[0] == pytest.approx(0.5 * math.log(4), rel=1e-12)
    assert rp.grad_S[0] == pytest.approx(-2 * rp.x[0], rel=1e-11)  # grad S = -B x
    assert rp.algebra == "A1"
    K = np.array(rp.K)
    assert K[0, 0] == pytest.approx(1 / 0.16, rel=1e-10)  # tau / (sigma1 sigma2)


def test_rate_point_json_roundtrip():
    from tensorstat import RatePoint

    p = _a1_problem()
    rp = rate_point(p, np.array([0.2]))
    back = RatePoint.from_json(rp.to_json())
    assert back == rp


def test_rate_at_origin_is_max_entropy():
    # S(0) = f(0) = tau ln dim V, the largest value of S
    rs = build_root_system(AlgebraSpec.parse("A2"))
    p = tensor_problem(rs, [((1, 0), 8)], epsilon=1 / 8)
    rp0 = rate_point(p, np.zeros(2))
    assert rp0.S == pytest.approx(math.log(3), rel=1e-12)
    assert np.max(np.abs(rp0.x)) < 1e-9
    for xi in [np.array([0.05, 0.0]), np.array([-0.1, 0.2])]:
        assert rate_point(p, xi).S < rp0.S


def test_hessian_at_origin_scalar():
    p = _a1_problem()
    x, resid = hessian_at_origin(p)
    assert x == pytest.approx(0.5, rel=1e-13)  # tau c2 / dim g = 1 * (3/2) / 3
    assert resid < 1e-12
    rs = build_root_system(AlgebraSpec.parse("A2"))
    p2 = tensor_problem(rs, [((1, 0), 9)], epsilon=1 / 9)
    x2, resid2 = hessian_at_origin(p2)
    assert x2 == pytest.approx(float(8 / 3) / 8, rel=1e-13)  # c2(omega1) = 8/3, dim g = 8
    assert resid2 < 1e-12


def test_asymptotic_log_multiplicity_a1():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    n = 120
    table = tensor_power_decompose(rs, [((1,), n)])
    p = tensor_problem(rs, [((1,), n)])
    lam = (24,)  # xi = 0.2 stays well inside the hull
    exact = math.log(table.entries[lam])
    approx = asymptotic_log_multiplicity(p, lam)
    assert abs(approx - exact) / abs(exact) < 0.01


def test_asymptotic_log_multiplicity_tracks_order():
    # leading term S / epsilon dominates: doubling N roughly doubles log m
    rs = build_root_system(AlgebraSpec.parse("A1"))
    vals = []
    for n in [60, 120]:
        p = tensor_problem(rs, [((1,), n)])
        vals.append(asymptotic_log_multiplicity(p, (n // 5,)))
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.1)


def test_limit_density_gaussian_normalization_1d():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    K = np.array([[2.0]])
    xs = np.linspace(-6, 6, 4001)
    dens = limit_density(rs, "gaussian", xs[:, None], K=K)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-8)
    assert dens.max() == pytest.approx(math.sqrt(2 / (2 * math.pi)), rel=1e-12)


def test_limit_density_plancherel_a1_shape():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    xs = np.linspace(-1, 5, 1201)
    dens = limit_density(rs, "plancherel", xs[:, None])
    assert np.all(dens[xs < 0] == 0)
    # B = [[2]], pairing 2x: density (4 / sqrt(pi)) x^2 e^{-x^2} on the half line
    x = 1.3
    expect = (4 / math.sqrt(math.pi)) * x**2 * math.exp(-(x**2))
    at = limit_density(rs, "plancherel", np.array([[x]]))[0]
    assert at == pytest.approx(expect, rel=1e-10)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


def test_limit_density_intermediate_endpoints():
    # u -> 0 recovers the zero-temperature chamber density pointwise
    rs = build_root_system(AlgebraSpec.parse("A1"))
    pts = np.array([[0.4], [1.0], [2.2]])
    small = limit_density(rs, "intermediate", pts, u=np.array([1e-7]))
    planch = limit_density(rs, "plancherel", pts)
    assert small == pytest.approx(planch, rel=1e-5)


def _e6_points(rs):
    """Three chamber points with |N(0,1)| simple pairings (seed 1)."""
    return np.linalg.solve(rs.B_f, np.abs(np.random.default_rng(1).standard_normal((6, 5)))).T[1:4]


def _weight_points(*rows):
    """Chamber points given by their weight coordinates, as a function of the root system."""
    return lambda rs: np.array(rows, dtype=float) @ rs.cartan_inv_f.T


# the u pairings of a G2 (1,0)^16 comparison at t = (0.05, 0.04)
_G2_U = (0.03023716, 0.04031621)


@pytest.mark.parametrize(
    "name, points, u_pairings, tier",
    [
        # the 6480-term float coset sum cancels by up to 1e39: it read 1.8e3, 9.4e9 and 1.8e10 here
        ("E6", _e6_points, (0, 0, 0.1, 0.1, 0, 0.2), "decimal"),
        # a point of that comparison: S = 1.2e-7 from twelve terms near 1 carried a float error of 5.6e-10,
        # past the long-double bound too
        ("G2", lambda rs: np.array([[2.6457513110645907, 4.630064794363033]]), _G2_U, "decimal"),
        # points past their float bound that the mixed tier admits, with some of their terms kept in float
        ("G2", _weight_points((0.5, 1.0), (0.5, 3.0), (1.0, 1.5), (1.5, 1.0), (2.0, 0.5)), (0.1, 0.15), "mixed"),
        ("B2", _weight_points((1.5, 1.5), (2.0, 1.0), (3.0, 0.5)), (0.05, 0.1), "mixed"),
    ],
    ids=["E6", "G2", "G2-mixed", "B2-mixed"],
)
def test_intermediate_density_at_small_u_is_certified(monkeypatch, name, points, u_pairings, tier):
    rs = build_root_system(AlgebraSpec.parse(name))
    pts, u = points(rs), _with_pairings(rs, u_pairings)
    decimal_sums, mixed_sums = legendre._decimal_coset_sums, legendre._mixed_coset_sums
    terms_at = charalg._coset_terms_at
    decimal_rows, wide_terms = [], []
    monkeypatch.setattr(legendre, "_decimal_coset_sums",
                        lambda par, pair, lams, n: decimal_rows.append(len(lams)) or decimal_sums(par, pair, lams, n))
    monkeypatch.setattr(charalg, "_coset_terms_at",
                        lambda par, q, lams, cols: wide_terms.append(len(cols)) or terms_at(par, q, lams, cols))
    dens = limit_density(rs, "intermediate", pts, u=u)
    long_double = charalg._EPS_EXT < charalg._EPS  # else the mixed tier is skipped
    assert bool(decimal_rows) == (tier == "decimal" or not long_double)
    if tier == "mixed" and long_double:
        # the long-double pass forms the wide terms only, not the whole rows x cosets block
        cosets = len(charalg._parabolic(rs.spec, (False,) * rs.rank).sign)
        assert 0 < sum(wide_terms) < len(pts) * cosets
    # 1 <= I(b, u) <= e^{(b, u)} for the orbital integral I = p e^{|u|^2/2} / (Plancherel density)
    low = limit_density(rs, "plancherel", pts) * math.exp(-0.5 * float(u @ rs.B_f @ u))
    assert np.all(low <= dens * (1 + 1e-10)) and np.all(dens <= low * np.exp(pts @ rs.B_f @ u) * (1 + 1e-10))
    # the reference: every point past its float bound summed in decimal, 30 digits past what its bound asks
    # (a rest of inf in the mixed tier's bound admits no row there)
    monkeypatch.setattr(legendre, "_mixed_coset_sums", lambda *args: mixed_sums(*args[:-1], np.inf))
    monkeypatch.setattr(legendre, "_decimal_coset_sums",
                        lambda par, pair, lams, n: decimal_sums(par, pair, lams, n + 30))
    wider = limit_density(rs, "intermediate", pts, u=u)
    d = pts - u
    g_u = np.exp(-0.5 * np.einsum("ij,jk,ik->i", d, rs.B_f, d))
    g_u *= math.sqrt(np.linalg.det(rs.B_f) / (2 * math.pi) ** rs.rank)
    # no value is past the budget of max(p, G_u), G_u the unit Gaussian centred at u
    assert np.all(np.abs(dens - wider) <= 1e-11 * np.maximum(wider, g_u))


def test_limit_density_input_validation():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    with pytest.raises(DomainError):
        limit_density(rs, "gaussian", np.zeros((3, 2)))  # K missing
    with pytest.raises(DomainError):
        limit_density(rs, "intermediate", np.zeros((3, 2)))  # u missing
    with pytest.raises(DomainError):
        limit_density(rs, "plancherel", np.zeros((3, 1)))  # wrong width


@pytest.mark.parametrize(
    "name, K, points",
    [
        # det(-I) > 0 in even rank: a sign check of slogdet let it through
        ("A2", -np.eye(2), [[0.0, 0.0], [1.0, 0.5], [3.0, 2.0]]),
        ("A3", np.diag([1.0, -1.0, -1.0]), [[0.0, 0.0, 0.0], [1.0, 0.5, 0.2]]),
    ],
)
def test_limit_density_refuses_a_k_that_is_not_positive_definite(name, K, points):
    rs = build_root_system(AlgebraSpec.parse(name))
    with pytest.raises(DomainError, match="positive definite"):
        limit_density(rs, "gaussian", np.array(points), K=K)


def _wall_law(name, wall):
    """rs, K = B H^-1 B and H = Hess f(t) for (1, 0, ...)^10 at a t with these walls."""
    rs = build_root_system(AlgebraSpec.parse(name))
    t = rs.cartan_inv_f @ np.where(wall, 0.0, 0.6)
    _, _, hess = f_grad_hess(tensor_problem(rs, [((1,) + (0,) * (rs.rank - 1), 10)]), t)
    return rs, rs.B_f @ np.linalg.solve(hess, rs.B_f), hess, t


@pytest.mark.parametrize(
    "name, wall",
    [
        ("A2", (True, False)), ("A2", (False, True)), ("B2", (True, False)), ("B2", (False, True)),
        ("G2", (True, False)), ("G2", (False, True)),
        ("A3", (True, True, False)), ("A3", (True, False, True)), ("B3", (False, True, True)),
    ],
    ids=["A2-1", "A2-2", "B2-1", "B2-2", "G2-1", "G2-2", "A3-12", "A3-13", "B3-23"],
)
def test_limit_density_normalized_at_a_wall(name, wall):
    # in the simple-root pairings y = B a the cone is an orthant and the
    # integrand is smooth on it, so Gauss-Legendre converges spectrally
    rs, K, hess, t = _wall_law(name, wall)
    half = 11.0 * np.sqrt(np.diag(hess))  # y has covariance H
    y, wts = box_quadrature([(0.0, h) if w else (-h, h) for w, h in zip(wall, half)], 100 if rs.rank == 2 else 60)
    a = np.linalg.solve(rs.B_f, y.T).T
    total = float(limit_density(rs, "gaussian", a, K=K, u=t) @ wts) / abs(np.linalg.det(rs.B_f))
    assert total == pytest.approx(1.0, abs=1e-10)
    # the cone: zero where a wall pairing is negative
    assert limit_density(rs, "gaussian", -a[wts.argmax()], K=K, u=t) == 0.0


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_limit_density_ends_are_plancherel_and_gaussian(name):
    rs = build_root_system(AlgebraSpec.parse(name))
    r = rs.rank
    pts = np.random.default_rng(5).normal(size=(40, r)) @ rs.cartan_inv_f.T
    # every wall and K = B: prod (alpha, a)^2 e^{-a.Ba/2} on the chamber
    # over (2 pi)^{r/2} det B^{-1/2} prod (rho, alpha)
    pair = pts @ rs.pos_pairing_f.T
    rho_pair = rs.pos_pairing_f @ rs.rho_root_f
    quad = np.einsum("ij,jk,ik->i", pts, rs.B_f, pts)
    chamber = np.all(pair > 0, axis=1)
    closed = np.where(chamber, np.prod(pair**2, axis=1) * np.exp(-0.5 * quad), 0.0) * math.sqrt(
        np.linalg.det(rs.B_f) / (2 * math.pi) ** r
    ) / np.prod(rho_pair)
    assert chamber.any() and not chamber.all()
    for dens in (limit_density(rs, "plancherel", pts), limit_density(rs, "gaussian", pts, K=rs.B_f, u=np.zeros(r))):
        assert dens == pytest.approx(closed, rel=1e-12, abs=0)
    # the intermediate law's u = 0 end: one coset, W0 = W
    inter = limit_density(rs, "intermediate", pts, u=np.zeros(r))
    assert np.max(np.abs(inter - limit_density(rs, "plancherel", pts))) <= 1e-13
    # no walls: the Gaussian with precision K, at u = None and at a regular u
    _, K, _, t = _wall_law(name, (False,) * r)
    gauss = np.exp(-0.5 * np.einsum("ij,jk,ik->i", pts, K, pts)) * math.sqrt(np.linalg.det(K) / (2 * math.pi) ** r)
    for u in (None, t):
        assert limit_density(rs, "gaussian", pts, K=K, u=u) == pytest.approx(gauss, rel=1e-12, abs=0)


def _with_pairings(rs, pairings):
    """The root-coordinate vector whose simple-root pairings are these."""
    return np.linalg.solve(rs.B_f, np.asarray(pairings, dtype=float))


_WALL_U = pytest.mark.parametrize("pairings", [(0.0, 0.8), (0.8, 0.0)], ids=["alpha1-wall", "alpha2-wall"])


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@_WALL_U
def test_intermediate_density_normalized_at_a_wall_u(name, pairings):
    # in weight coordinates the chamber is the positive orthant and the
    # integrand is smooth on it, so Gauss-Legendre converges spectrally
    rs = build_root_system(AlgebraSpec.parse(name))
    hi = float(np.max(np.sum(np.abs(rs.cartan_f), axis=1))) * 11.0
    pts_w, wts = box_quadrature([(0.0, hi)] * 2, 140)
    dens = limit_density(rs, "intermediate", pts_w @ rs.cartan_inv_f.T, u=_with_pairings(rs, pairings))
    total = float(dens @ wts) * abs(np.linalg.det(rs.cartan_inv_f))
    assert abs(1.0 - total) <= 1e-12


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@_WALL_U
def test_intermediate_density_is_continuous_across_a_wall_u(name, pairings):
    # the coset sum at a wall u is the limit of the full alternating sum at
    # regular u: moving u by d off the wall moves the density by O(d)
    rs = build_root_system(AlgebraSpec.parse(name))
    pts = np.abs(np.random.default_rng(4).normal(size=(60, 2))) @ rs.cartan_inv_f.T
    on = limit_density(rs, "intermediate", pts, u=_with_pairings(rs, pairings))
    for d in (1e-3, 1e-5):
        off = limit_density(rs, "intermediate", pts, u=_with_pairings(rs, np.where(pairings, pairings, d)))
        assert 0.01 * d <= np.max(np.abs(on - off)) <= d


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_intermediate_density_at_a_regular_u_is_the_alternating_sum_over_w(name):
    # p(b) = (2 pi)^{-r/2} det B^{1/2} prod (alpha, b) sum_w eps(w) e^{(b, w u)}
    #        e^{-|b|^2/2 - |u|^2/2} / prod (alpha, u), summed over all of W
    rs = build_root_system(AlgebraSpec.parse(name))
    r = rs.rank
    u = _with_pairings(rs, np.linspace(0.3, 0.9, r))
    pts = np.abs(np.random.default_rng(6).normal(size=(60, r))) @ rs.cartan_inv_f.T
    actions, parities = enumerate_weyl_group(rs)
    alt = np.exp(pts @ rs.B_f @ (actions @ u).T) @ parities
    quad = np.einsum("ij,jk,ik->i", pts, rs.B_f, pts) + u @ rs.B_f @ u
    full = (
        np.prod(pts @ rs.pos_pairing_f.T, axis=1) * alt * np.exp(-0.5 * quad)
        * math.sqrt(np.linalg.det(rs.B_f) / (2 * math.pi) ** r) / np.prod(rs.pos_pairing_f @ u)
    )
    assert limit_density(rs, "intermediate", pts, u=u) == pytest.approx(full, rel=1e-9, abs=0)


# -- the batched solve ------------------------------------------------------


def test_one_row_views_are_rows_of_the_batch():
    from tensorstat import asymptotic_log_probability, legendre, measures, pde, pde_residual

    rs = build_root_system(AlgebraSpec.parse("G2"))
    p = tensor_problem(rs, [((1, 0), 12)])
    lams = [(1, 1), (2, 3), (5, 1), (3, 2), (7, 1)]
    xi = p.epsilon * np.array([[float(v) for v in rs.root_coords(lam)] for lam in lams])
    y, _, _, status = legendre._dual_rows(p, xi)
    rows = legendre._rate_rows(p, xi)
    _, log_m, _ = legendre._log_multiplicity_rows(p, lams)
    log_p, _ = measures._asymptotic_log_probabilities(p, lams, [0.3, 0.1])
    reports = pde._pde_rows(tensor_problem(rs, [((1, 0), 10)]), xi)
    assert not status.any() and not rows.status.any()
    for i, lam in enumerate(lams):
        assert np.array_equal(legendre_dual(p, xi[i]), y[i])
        rp = rate_point(p, xi[i])
        assert rp.x == tuple(rows.x[i]) and rp.S == rows.S[i] and rp.log_prefactor == rows.log_prefactor[i]
        assert rp.hess_f == tuple(map(tuple, rows.hess[i])) and rp.K == tuple(map(tuple, rows.K[i]))
        assert asymptotic_log_multiplicity(p, lam) == log_m[i]
        assert asymptotic_log_probability(p, lam, [0.3, 0.1]) == log_p[i]
        assert pde_residual(tensor_problem(rs, [((1, 0), 10)]), xi[i]) == reports[i]


def test_blocks_of_a_large_batch_match_one_block(monkeypatch):
    from tensorstat import legendre

    rs = build_root_system(AlgebraSpec.parse("B2"))
    p = tensor_problem(rs, [((1, 0), 6)])
    xi = np.random.default_rng(3).uniform(-0.4, 0.4, size=(50, 2))
    whole = legendre._rate_rows(p, xi)
    monkeypatch.setattr(legendre, "_BLOCK", 7)
    blocked = legendre._rate_rows(p, xi)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b, equal_nan=True)


def test_each_row_of_a_mixed_batch_keeps_its_own_status():
    # interior, outside the hull [-1/2, 1/2] (as in the test above), and at
    # its edge, where Hess f is singular to float precision
    from tensorstat import ConvergenceError, legendre

    p = _a1_problem()
    xi = np.array([[0.3], [0.7], [-0.9], [1.4], [0.5], [-0.2]])
    rows = legendre._rate_rows(p, xi)
    assert rows.status.tolist() == [
        0, legendre._DEGENERATE, legendre._DIVERGED, legendre._DEGENERATE, legendre._BOUNDARY, 0,
    ]
    for i in (0, 5):  # the bad rows leave their neighbours' bits alone
        alone = legendre._rate_rows(p, xi[i : i + 1])
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(alone, rows))
    for i in (1, 2, 3, 4):
        assert np.isnan(rows.log_prefactor[i])
        with pytest.raises(LegendreDomainError) as err:
            rate_point(p, xi[i])
        # the one-row view refuses a point off the polytope before its solve; the edge point keeps its row's error
        cls, message = legendre._ROW_ERRORS[rows.status[i]]
        if i < 4:
            message = "xi outside Legendre domain: it lies off the weight polytope of the product"
        assert type(err.value) is cls and str(err.value) == message
    # a stalled or unfinished solve is a ConvergenceError, in the view too
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
        legendre_dual(p, np.array([0.3]), max_iter=1)


def test_conditioning_gate():
    from tensorstat.legendre import precision_matrix

    rs = build_root_system(AlgebraSpec.parse("A2"))
    assert np.all(np.isfinite(precision_matrix(rs, np.diag([1.0, 2e-9]))))
    with pytest.raises(LegendreDomainError, match="singular to float precision"):
        precision_matrix(rs, np.diag([1.0, 5e-10]))
    with pytest.raises(LegendreDomainError, match="singular to float precision"):
        precision_matrix(rs, np.diag([5e-13, 1e-12]))  # a vertex: small in every direction


def test_float_saturated_dual_points_are_nan():
    # on the edge from (60, 0) to (0, 30) the solve ran the dual point of these
    # four rows out to x ~ (10, 17), where lambda_min / lambda_max of Hess f is
    # about 1e-11, and their estimates were not monotone in lambda; the edge
    # is now found on the lattice, and its neighbours inside stay finite
    from tensorstat import legendre

    rs = build_root_system(AlgebraSpec.parse("A2"))
    p = tensor_problem(rs, [((1, 0), 60)])
    saturated = [(52, 4), (54, 3), (56, 2), (58, 1)]
    neighbours = [(49, 4), (51, 3), (52, 1), (53, 2), (55, 1)]
    _, est, status = legendre._log_multiplicity_rows(p, saturated + neighbours)
    assert np.all(np.isnan(est[:4])) and np.all(status[:4] == legendre._FACE)
    assert np.all(np.isfinite(est[4:]))


def test_newton_tolerance_and_hessian_floor_follow_the_scale_of_f():
    # f, grad f and Hess f scale with s = sum_k tau_k = 8 epsilon here; with
    # an absolute tolerance and floor the float-saturated top weight (8) got
    # an estimate (ratio 767 at epsilon 1e-6, 309556 at 1e3) and the other
    # rows stopped short of the default-epsilon values by 4e-11
    from tensorstat import legendre

    rs = build_root_system(AlgebraSpec.parse("A1"))
    weights = [(2,), (4,), (6,), (8,)]
    _, ref, _ = legendre._log_multiplicity_rows(tensor_problem(rs, [((1,), 8)]), weights)
    for eps in (1e-6, 1e3):
        p = tensor_problem(rs, [((1,), 8)], epsilon=eps)
        _, est, status = legendre._log_multiplicity_rows(p, weights)
        assert math.isnan(est[3]) and status[3] == legendre._FACE
        assert est[:3] == pytest.approx(ref[:3], rel=1e-13, abs=0)
        # the top weight is decided on the lattice now; the solve's own floor still rejects it
        assert legendre._rate_rows(p, np.array([[4.0 * eps]])).status[0] == legendre._BOUNDARY
    assert math.isnan(ref[3])


@pytest.mark.parametrize("n", [10**13, 10**16])
def test_a_weight_near_the_origin_of_a_huge_power_is_finite(n):
    # epsilon lambda within the Newton tolerance of 0 was accepted at y = 0, whose
    # pairings are 0, and the estimate read log 0 = -inf
    rs = build_root_system(AlgebraSpec.parse("A1"))
    p = tensor_problem(rs, [((1,), n)])
    for lam in (2, 4, 100, 10_000):
        k = (n - lam) // 2  # ln(C(n, k) - C(n, k - 1)) = ln C(n, k) + ln((lam + 1) / (n - k + 1))
        exact = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + math.log((lam + 1) / (n - k + 1))
        assert asymptotic_log_multiplicity(p, (lam,)) == pytest.approx(exact, rel=1e-12, abs=0)
    # xi = 0 itself is still its own dual point, on every wall
    assert rate_point(p, [0.0]).x == (0.0,) and rate_point(p, [0.0]).log_prefactor == -math.inf


def _reference_rows(p, weights):
    """_log_multiplicity_rows as it was before the lattice face test: every regular row through _rate_rows."""
    rs, eps = p.rs, p.epsilon
    lam_root = rs.root_points(weights)
    status, est = np.full(len(weights), legendre._WALL), np.full(len(weights), np.nan)
    regular = np.all(np.array(weights) > 0, axis=1)
    rows = legendre._rate_rows(p, eps * lam_root[regular])
    status[regular] = rows.status
    log_m = rows.S / eps + 0.5 * rs.rank * math.log(eps) + rows.log_prefactor
    est[regular] = np.where(rows.status == 0, log_m, np.nan)
    return est, status


def _on_a_face(rs, factors, lam) -> bool:
    """lambda regular, below top = sum_k N_k nu_k, with a root coordinate of top - lambda equal to 0, in Fractions."""
    top = [sum(n * nu[j] for nu, n in factors) for j in range(rs.rank)]
    c = [sum(row[j] * (top[j] - lam[j]) for j in range(rs.rank)) for row in rs.cartan_inverse]
    return min(lam) > 0 and min(c) == 0


_FACE_PROBLEMS = [
    *(("A1", [((nu,), n)]) for nu in (1, 2, 3, 4) for n in (1, 2, 5)),
    ("A2", [((1, 0), 6)]), ("A2", [((1, 1), 4)]), ("A3", [((1, 0, 1), 3)]), ("B2", [((0, 1), 6)]),
    ("B3", [((1, 0, 1), 3)]), ("C3", [((1, 0, 1), 3)]), ("D4", [((1, 0, 1, 1), 3)]), ("G2", [((1, 0), 5)]),
    ("B2", [((0, 1), 5), ((1, 0), 3)]),
]


@pytest.mark.parametrize("epsilon", [None, 0.5, 0.01], ids=["default", "0.5", "0.01"])
def test_face_rows_are_decided_on_the_lattice(monkeypatch, epsilon):
    # against the solve run on every regular row: the same bits and statuses,
    # except at the A1 top vertices N nu, nu >= 2, which the solve "converged"
    # by float saturation (estimates near 12-13 where ln m = 0)
    solved = []
    dual_rows = legendre._dual_rows
    monkeypatch.setattr(legendre, "_dual_rows", lambda p, xi, *a: solved.append(xi.copy()) or dual_rows(p, xi, *a))
    for name, factors in _FACE_PROBLEMS:
        rs = build_root_system(AlgebraSpec.parse(name))
        p = tensor_problem(rs, factors, epsilon)
        # and top + alpha_i (column i of C): past the polytope, some on a supporting hyperplane; these stay with the solve
        top = np.sum([n * np.array(nu) for nu, n in factors], axis=0)
        beyond = [tuple((top + alpha).tolist()) for alpha in np.array(rs.cartan).T if min(top + alpha) > 0]
        weights = sorted(tensor_power_decompose(rs, factors).entries) + beyond
        ref, ref_status = _reference_rows(p, weights)
        solved.clear()
        lam_root, est, status = legendre._log_multiplicity_rows(p, weights)
        face = np.array([_on_a_face(rs, factors, lam) for lam in weights])
        ((nu, n), *_) = factors
        moved = np.array([name == "A1" and nu[0] >= 2 and lam == (n * nu[0],) for lam in weights])
        assert face.any() and np.all(face[moved])
        assert np.all(status[face] == legendre._FACE) and np.all(np.isnan(est[face]))
        # the solve's Hessian gate rejected every other face row
        assert np.array_equal(status[~face], ref_status[~face])
        assert np.all(ref_status[face & ~moved] == legendre._BOUNDARY)
        assert np.all(ref_status[moved] == 0) and np.all(np.isfinite(ref[moved]))
        assert np.array_equal(est[~moved], ref[~moved], equal_nan=True)
        # no face row reaches the solve, and every other regular row does
        xi = np.concatenate(solved) if solved else np.zeros((0, rs.rank))
        regular = np.all(np.array(weights) > 0, axis=1)
        assert np.array_equal(xi, p.epsilon * lam_root[regular & ~face])


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("nu", [2, 3, 4])
def test_the_top_vertex_of_an_a1_power_is_on_the_domain_boundary(nu, n):
    # these rows once returned 11.6-12.8: A1 (3)^2 at lambda = 6, whose multiplicity is 1, gave 12.65
    from tensorstat import asymptotic_log_probability

    rs = build_root_system(AlgebraSpec.parse("A1"))
    p = tensor_problem(rs, [((nu,), n)])
    for estimate in (asymptotic_log_multiplicity, asymptotic_log_probability):
        with pytest.raises(LegendreDomainError) as err:
            estimate(p, (n * nu,))
        assert type(err.value) is LegendreDomainError
        assert str(err.value) == f"lambda ({n * nu},) lies on a face of the product's weight polytope"


# ln m estimates of the asymptotic CSV, recorded before the batched solve
_RECORDED = {
    ("G2", (1, 0), 28): (84, [
        ((0, 7), math.nan), ((1, 17), 55.31928923308706), ((2, 29), 41.50522144870736),
        ((4, 4), 58.58940317496484), ((5, 20), 48.231639099074336), ((7, 4), 57.44642498478538),
        ((8, 25), 31.807730307999478), ((10, 18), 39.22172399588368), ((12, 17), 34.71521890941905),
        ((15, 0), math.nan), ((17, 14), 21.02961866559074), ((21, 7), 20.175723381370393),
    ]),
    ("A2", (1, 1), 34): (68, [
        ((0, 21), math.nan), ((3, 24), 54.44326794335471), ((6, 33), 45.67810830911887),
        ((9, 45), 23.80465183047594), ((13, 16), 55.8216218643264), ((16, 40), 25.199935026363125),
        ((20, 26), 42.2680146951489), ((24, 18), 46.31940702244969), ((28, 19), 40.93467505067031),
        ((32, 29), 19.6351924910904), ((37, 13), 34.669115683639156), ((44, 5), 30.5302580079602),
    ]),
}


@pytest.mark.parametrize("key", list(_RECORDED), ids=["G2-28", "A2-34"])
def test_asymptotic_column_matches_recorded_values(key):
    from tensorstat import legendre

    name, rep, n = key
    rs = build_root_system(AlgebraSpec.parse(name))
    weights = sorted(tensor_power_decompose(rs, [(rep, n)]).entries)
    _, est, _ = legendre._log_multiplicity_rows(tensor_problem(rs, [(rep, n)]), weights)
    n_nan, recorded = _RECORDED[key]
    assert int(np.sum(np.isnan(est))) == n_nan
    got = dict(zip(weights, est.tolist()))
    for lam, value in recorded:
        if math.isnan(value):
            assert math.isnan(got[lam])
        else:
            assert abs(got[lam] - value) <= 1e-12 * max(1.0, abs(value))


def test_batched_evaluations_do_not_grow_with_the_table(monkeypatch):
    from tensorstat import legendre

    rs = build_root_system(AlgebraSpec.parse("A2"))
    calls = []
    f_rows = legendre._f_rows
    monkeypatch.setattr(legendre, "_f_rows", lambda p, y: calls.append(len(y)) or f_rows(p, y))
    counts = {}
    for n in (10, 34):
        weights = sorted(tensor_power_decompose(rs, [((1, 1), n)]).entries)
        calls.clear()
        legendre._log_multiplicity_rows(tensor_problem(rs, [((1, 1), n)]), weights)
        counts[n] = (len(weights), len(calls))
    (small_rows, small_calls), (big_rows, big_calls) = counts[10], counts[34]
    assert big_rows > 10 * small_rows
    assert big_calls <= small_calls + 5 and big_calls < big_rows / 10
