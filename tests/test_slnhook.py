"""sl(n+1) closed forms: hook products, explicit rate function; Kerov density as an oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    DomainError,
    LegendreDomainError,
    build_root_system,
    forward_dual,
    hook_multiplicity,
    partition_from_weight,
    rate_point,
    sigma_from_xi,
    sln_legendre_closed_form,
    sln_rate,
    tensor_power_decompose,
    tensor_problem,
)
from tensorstat import acceptance, slnhook


def weight_from_partition(n, parts):
    """Dominant A_n weight lambda_a = l_a - l_{a+1} of a partition with <= n+1 rows."""
    p = tuple(parts) + (0,) * (n + 1 - len(parts))
    return tuple(p[i] - p[i + 1] for i in range(n))


def kerov_density(n, tau, a):
    """Limiting density of scaled row fluctuations a (summing to zero), Kerov's closed form.

    Gaussian times squared Vandermonde on the hyperplane sum a = 0,
    normalized so integrating over the SORTED sector a_1 >= ... >= a_{n+1},
    parametrized by the first n coordinates, gives 1 (equivalently 1/(n+1)!
    of the full hyperplane integral).
    """
    vand = 1.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            vand *= (a[i] - a[j]) ** 2
    k_fact = math.prod(math.factorial(k) for k in range(1, n + 1))
    m = n + 1
    const = (2 * math.pi) ** (-0.5 * n) / k_fact * tau ** (0.5 * (1 - m * m)) * m ** (0.5 * m * m)
    return float(const * vand * math.exp(-m / (2 * tau) * float(np.sum(a * a))))


def kerov_fluctuations(n, tau, b):
    """Row fluctuations a_i = sqrt(x) (b_i - b_{i-1}) (b_0 = b_{n+1} = 0) of chamber coordinates b.

    x = tau/(n+1) is the semiclassical constant of the vector rep; the
    inverse parametrized by the first n coordinates has Jacobian x^{-n/2},
    so kerov_density(a(b)) * x^{n/2} is the chamber-coordinate density.
    """
    padded = np.concatenate(([0.0], b, [0.0]))
    return math.sqrt(tau / (n + 1)) * (padded[1:] - padded[:-1])


def test_hook_multiplicity_oracles():
    # sl2: [1]^4 = [4] + 3 [2] + 2 [0]
    assert hook_multiplicity(1, (4, 0)) == 1
    assert hook_multiplicity(1, (3, 1)) == 3
    assert hook_multiplicity(1, (2, 2)) == 2
    # sl3 adjoint in V^3
    assert hook_multiplicity(2, (2, 1, 0)) == 2
    assert hook_multiplicity(2, (1, 1, 1)) == 1
    assert hook_multiplicity(2, (3, 0, 0)) == 1


def test_hook_matches_decomposition_sl4():
    rs = build_root_system(AlgebraSpec.parse("A3"))
    n_power = 7
    table = tensor_power_decompose(rs, [((1, 0, 0), n_power)])
    for lam, mult in table.entries.items():
        parts = partition_from_weight(3, lam, n_power)
        assert hook_multiplicity(3, parts) == mult


def test_hook_sweep_checks_each_power_of_one_chain():
    rows = list(slnhook.hook_sweep(3))
    assert [(name, big_n) for name, big_n, _, _ in rows] == sorted((name, big_n) for name, big_n, _, _ in rows)
    assert len(rows) == 17 and all(ok for *_, ok in rows)
    # the highest weights of each power in sorted order: (1); (0), (2); (1), (3)
    assert [lam for name, big_n, lam, _ in rows if name == "A1"] == [(1,), (0,), (2,), (1,), (3,)]
    # acceptance criterion 2 runs this sweep, not a copy of it
    assert acceptance.hook_sweep is slnhook.hook_sweep


def test_partition_weight_roundtrip_oracle():
    assert weight_from_partition(2, (5, 3, 1)) == (2, 2)
    assert partition_from_weight(2, (2, 2), 9) == (5, 3, 1)
    with pytest.raises(DomainError):
        partition_from_weight(2, (2, 2), 8)  # excess not divisible by n + 1
    with pytest.raises(DomainError):
        partition_from_weight(2, (4, 4), 6)  # total too small for the weight


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partition_from_weight(2, (1, -1), 3), "not a dominant A_2 weight"),
        (lambda: hook_multiplicity(1, (2, 1, 1)), "more than 2 parts"),
        (lambda: hook_multiplicity(2, (1, 2)), "not a partition"),
        (lambda: sigma_from_xi(2, 1.0, [0.1]), "xi must have shape"),
    ],
    ids=["weight-not-dominant", "too-many-parts", "parts-increase", "xi-too-short"],
)
def test_malformed_weights_partitions_and_xi_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@given(
    parts=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)).map(
        lambda p: tuple(sorted(p, reverse=True))
    )
)
def test_partition_weight_roundtrip_hypothesis(parts):
    w = weight_from_partition(2, parts)
    back = partition_from_weight(2, w, sum(parts))
    assert back == parts


def test_sln_rate_oracles():
    assert sln_rate(1.0, (0.5, 0.5)) == pytest.approx(math.log(2), rel=1e-14)
    # binary entropy at sigma = (0.8, 0.2)
    assert sln_rate(1.0, (0.8, 0.2)) == pytest.approx(0.5004024235381879, rel=1e-12)
    assert sln_rate(2.0, (1.0, 0.5, 0.5)) == pytest.approx(
        2 * math.log(2) - (0.5 * math.log(0.5)) * 2, rel=1e-12
    )


def test_sln_rate_rejects_bad_sigma():
    with pytest.raises(DomainError):
        sln_rate(1.0, (1.2, -0.2))
    with pytest.raises(DomainError):
        sln_rate(1.0, (0.7, 0.7))  # does not sum to tau


def test_sigma_from_xi_a1():
    assert sigma_from_xi(1, 1.0, np.array([0.3])) == pytest.approx((0.8, 0.2))
    assert np.sum(sigma_from_xi(2, 1.5, np.array([0.1, -0.2]))) == pytest.approx(1.5)


@pytest.mark.parametrize("n,name", [(1, "A1"), (2, "A2"), (3, "A3")])
def test_closed_form_matches_generic_solver(n, name):
    rs = build_root_system(AlgebraSpec.parse(name))
    tau = 1.1
    p = tensor_problem(rs, [(tuple([1] + [0] * (n - 1)), 10)], epsilon=tau / 10)
    rng = np.random.default_rng(2024)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, size=n)
        xi = forward_dual(p, y)
        cf = sln_legendre_closed_form(n, tau, xi)
        rp = rate_point(p, xi)
        assert cf.S == pytest.approx(rp.S, abs=1e-10)
        assert np.asarray(cf.x) == pytest.approx(np.asarray(rp.x), abs=1e-8)
        assert cf.det_K == pytest.approx(np.linalg.det(np.array(rp.K)), rel=1e-7)
        assert cf.log_prefactor == pytest.approx(rp.log_prefactor, abs=1e-7)


def test_closed_form_wall_rejected():
    with pytest.raises(LegendreDomainError):
        sln_legendre_closed_form(1, 1.0, np.array([0.5]))  # sigma_2 = 0
    with pytest.raises(LegendreDomainError):
        sln_legendre_closed_form(1, 1.0, np.array([0.6]))


def test_kerov_density_normalizes_on_sorted_sector():
    # n = 1: integral over a_1 > a_2, a_1 + a_2 = 0, parametrized by a_1 > 0
    tau = 1.0
    xs = np.linspace(1e-6, 8.0, 20001)
    vals = np.array([kerov_density(1, tau, np.array([x, -x])) for x in xs])
    total = np.trapezoid(vals, xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_kerov_density_symmetric_in_sign():
    # density depends on the multiset of entries: swapping a with -a reversed
    tau = 0.8
    a = np.array([1.2, -1.2])
    b = np.array([0.9, -0.9])
    assert kerov_density(1, tau, a) == kerov_density(1, tau, a[::-1] * -1)
    assert kerov_density(1, tau, b) > kerov_density(1, tau, np.array([2.5, -2.5]))


def test_kerov_fluctuations_map():
    out = kerov_fluctuations(1, 2.0, np.array([0.7]))
    assert out == pytest.approx((0.7, -0.7))
    out2 = kerov_fluctuations(2, 3.0, np.array([0.5, 0.2]))
    assert np.sum(out2) == pytest.approx(0.0, abs=1e-14)
    assert len(out2) == 3


def test_kerov_pushforward_matches_chamber_density():
    # a = sqrt(x) diff(b) with x = tau/(n+1) maps the chamber law to the
    # sorted-sector law; densities match after the Jacobian x^{n/2}
    from tensorstat import limit_density

    n = 2
    tau = 1.0
    x = tau / (n + 1)
    rs = build_root_system(AlgebraSpec.parse("A2"))
    rng = np.random.default_rng(11)
    for _ in range(12):
        w = rng.uniform(0.05, 2.5, size=n)
        b = w @ np.asarray(rs.cartan_inv_f).T  # interior of the chamber
        a = kerov_fluctuations(n, tau, b)
        lhs = kerov_density(n, tau, np.asarray(a)) * x ** (n / 2)
        rhs = limit_density(rs, "plancherel", b[None, :])[0]
        assert lhs == pytest.approx(rhs, rel=1e-10)
