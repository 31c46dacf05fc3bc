"""Exact measures on decompositions, coordinate scalings, weak-convergence distance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tensorstat import (
    AlgebraSpec,
    CharacterPlan,
    DecompositionTable,
    DomainError,
    GridCoverageError,
    InternalConsistencyError,
    asymptotic_log_probability,
    build_root_system,
    bulk_scaling,
    character_measure,
    character_probabilities,
    enumerate_weyl_group,
    gaussian_scaling,
    hessian_at_origin,
    lattice_aligned_edges,
    plancherel_measure,
    tensor_power_decompose,
    tensor_problem,
    weak_convergence_distance,
)
from tensorstat import measures


def test_plancherel_measure_exact_fractions(a1, a2):
    t2 = tensor_power_decompose(a1, [((1,), 2)])
    pm = plancherel_measure(t2)
    assert pm == {(2,): Fraction(3, 4), (0,): Fraction(1, 4)}
    t3 = tensor_power_decompose(a1, [((1,), 3)])
    pm3 = plancherel_measure(t3)
    assert pm3 == {(3,): Fraction(4, 8), (1,): Fraction(4, 8)}
    s2 = tensor_power_decompose(a2, [((1, 0), 2)])
    pm_a2 = plancherel_measure(s2)
    assert pm_a2 == {(2, 0): Fraction(6, 9), (0, 1): Fraction(3, 9)}


def test_character_probabilities_t_zero_is_plancherel(a1):
    table = tensor_power_decompose(a1, [((1,), 5)])
    cp = character_probabilities(table, None)
    pm = plancherel_measure(table)
    for lam, q in pm.items():
        assert cp[lam] == pytest.approx(float(q), rel=1e-14)
    assert sum(cp.values()) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("algebra, rep, power", [("A1", (1,), 1200), ("A2", (1, 0), 60), ("G2", (1, 0), 28)])
def test_t_zero_floats_are_the_rounded_fractions(algebra, rep, power):
    # one batched dimension pass serves both; num / total rounds like float(Fraction)
    rs = build_root_system(algebra)
    table = tensor_power_decompose(rs, [(rep, power)])
    exact = plancherel_measure(table)
    assert sum(exact.values()) == 1
    floats = character_probabilities(table, None)
    assert list(floats) == list(exact)
    assert [floats[lam] for lam in exact] == [float(p) for p in exact.values()]


def test_dimension_weights_sum_check_is_an_internal_error(a2):
    table = tensor_power_decompose(a2, [((1, 0), 4)])
    wrong = DecompositionTable(table.algebra, table.problem, {**table.entries, (0, 0): 7})
    assert not wrong.check_dimension_identity()
    with pytest.raises(InternalConsistencyError):
        plancherel_measure(wrong)
    with pytest.raises(InternalConsistencyError):
        character_probabilities(wrong, None)


def test_character_probabilities_a1_closed_form(a1):
    # chi_[2] / chi_[1]^2 at e^t with chi_[1] = 2 cosh t, chi_[2] = 1 + 2 cosh 2t
    table = tensor_power_decompose(a1, [((1,), 2)])
    cp = character_probabilities(table, np.array([1.0]))
    top = 1 + 2 * math.cosh(2.0)
    bottom = (2 * math.cosh(1.0)) ** 2
    assert cp[(2,)] == pytest.approx(top / bottom, rel=1e-13)
    assert cp[(0,)] == pytest.approx(1 - top / bottom, rel=1e-13)


def test_scaling_records(a1):
    p = tensor_problem(a1, [((1,), 16)])
    g = gaussian_scaling(p, np.array([0.5]))
    assert g.x_scalar is None
    assert g.epsilon == pytest.approx(1 / 16)
    b = bulk_scaling(p)
    assert b.x_scalar == pytest.approx(0.5)  # tau c2 / dim g
    assert np.asarray(b.center) == pytest.approx(-np.asarray(a1.rho_root_f, dtype=float))
    assert b.spread == pytest.approx(math.sqrt((1 / 16) / 0.5))


def test_scaling_apply_affine(a1):
    p = tensor_problem(a1, [((1,), 16)])
    b = bulk_scaling(p)
    lam = np.array([[8.0]])
    expect = b.spread * (lam - np.asarray(b.center))
    assert b.apply(lam) == pytest.approx(expect)


def test_measure_table_shape_and_csv(a1):
    m = character_measure(tensor_power_decompose(a1, [((1,), 8)]))
    assert m.algebra == "A1"
    assert sum(r.probability for r in m.rows) == pytest.approx(1.0, abs=1e-12)
    probs = m.probabilities()
    assert set(probs) == {(8,), (6,), (4,), (2,), (0,)}
    text = m.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("lambda")
    assert len(lines) == 1 + len(m.rows)


def test_measure_rows_sorted_and_scaled(a1):
    m = character_measure(tensor_power_decompose(a1, [((1,), 8)]))
    # bulk coordinates: a = eps (lam_root - center) / spread, increasing in lam
    scaled = [r.scaled[0] for r in m.rows]
    assert scaled == sorted(scaled)


@pytest.mark.parametrize("name", ["A2", "G2"])
@pytest.mark.parametrize("t", [None, (0.3, 0.2)], ids=["t0", "regular"])
def test_scaled_column_is_the_exact_root_map(name, t):
    rs = build_root_system(name)
    m = character_measure(tensor_power_decompose(rs, [((1, 0), 12)]), t=t)
    center, spread = np.array(m.scaling.center), m.scaling.spread
    for row in m.rows:
        exact = [float(sum(rs.cartan_inverse[a][b] * row.weight[b] for b in range(2))) for a in range(2)]
        assert np.array(row.scaled).tobytes() == (spread * (np.array(exact) - center)).tobytes()


def test_lattice_aligned_edges_properties():
    pts = (0.35 + 0.5 * np.arange(6))[:, None]
    edges = lattice_aligned_edges(pts, 0.5)
    e = edges[0]
    assert np.allclose(np.diff(e), 1.0)  # two lattice columns (2 * spacing) a cell
    # every lattice point sits strictly inside a cell
    for x in pts[:, 0]:
        k = np.searchsorted(e, x)
        assert 0 < k < len(e)
        assert e[k - 1] < x < e[k]
    # cover extension
    edges2 = lattice_aligned_edges(pts, 0.5, cover=[(-3.0, 6.0)])
    assert edges2[0][0] <= -3.0 and edges2[0][-1] >= 6.0


def test_lattice_aligned_edges_rejects_off_lattice():
    pts = np.array([[0.0], [0.5], [0.77]])
    with pytest.raises(DomainError):
        lattice_aligned_edges(pts, 0.5)


def test_weak_convergence_kind_guards(a1):
    table = tensor_power_decompose(a1, [((1,), 12)])
    bulk = character_measure(table)  # t = 0, semiclassical coordinates
    with pytest.raises(DomainError):
        weak_convergence_distance(bulk, "gaussian")
    with pytest.raises(DomainError):
        weak_convergence_distance(bulk, "intermediate")
    gauss = character_measure(table, t=np.array([0.4]))
    with pytest.raises(DomainError):
        weak_convergence_distance(gauss, "plancherel")
    with pytest.raises(ValueError):
        weak_convergence_distance(bulk, "sato-tate")


def test_weak_convergence_grid_coverage_guard(a1):
    table = tensor_power_decompose(a1, [((1,), 40)])
    m = character_measure(table)
    tight = [np.array([0.0, 0.2, 0.4])]  # misses nearly all of the support
    # its midpoints resolve the law: this once blamed the quadrature, as every comparison ran unconverged
    with pytest.raises(GridCoverageError, match=r"^grid captures only 0\.0437"):
        weak_convergence_distance(m, "plancherel", edges=tight)


def test_weak_convergence_plancherel_trend(a1):
    # grid cells aligned with the rescaled weight lattice; a lattice-blind
    # uniform grid measures binning error instead of weak convergence
    tvs = []
    for n in [40, 80]:
        m = character_measure(tensor_power_decompose(a1, [((1,), n)]))
        pts = np.array([r.scaled for r in m.rows])
        spacing = float(np.min(np.diff(np.unique(pts[:, 0]))))
        edges = lattice_aligned_edges(pts, spacing, cover=[(0.0, 5.0)])
        rep = weak_convergence_distance(m, "plancherel", edges=edges)
        assert 0 <= rep.tv <= 1
        tvs.append(rep.tv)
    assert tvs[1] < tvs[0] < 0.1


def test_weak_convergence_report_fields(a1):
    m = character_measure(tensor_power_decompose(a1, [((1,), 30)]))
    rep = weak_convergence_distance(m, "plancherel")
    assert rep.exact_mass_in_grid == pytest.approx(1.0, abs=1e-6)
    assert 0.9 < rep.limit_mass_in_grid <= 1.0 + 1e-9
    assert len(rep.cells) == 1 and rep.cells[0] >= 10


def test_default_grid_matches_hand_aligned_grid(a1):
    # the default grid is the lattice-aligned one, with spacing read off the scaling
    m = character_measure(tensor_power_decompose(a1, [((1,), 80)]))
    pts = np.array([r.scaled for r in m.rows])
    spacing = float(np.min(np.diff(np.unique(pts[:, 0]))))
    assert spacing == pytest.approx(m.scaling.spread, rel=1e-9)
    edges = lattice_aligned_edges(pts, spacing, cover=[(0.0, 5.0)])
    hand = weak_convergence_distance(m, "plancherel", edges=edges)
    rep = weak_convergence_distance(m, "plancherel")
    assert rep.tv == pytest.approx(hand.tv, rel=1e-9)
    assert rep.limit_mass_in_grid >= 1 - 1e-9


@pytest.mark.parametrize(
    "name, rep, power, t_gauss, t_inter",
    [("A1", (1,), 60, [0.5], [0.1]), ("A2", (1, 0), 20, [0.3, 0.1], [0.05, 0.04])],
)
def test_scaling_and_tv_constant_on_weyl_orbit_of_t(name, rep, power, t_gauss, t_inter):
    # the measure is W-invariant in t (for A1, t and -t), so its scaled
    # column and its distances to the limit laws are too
    rs = build_root_system(AlgebraSpec.parse(name))
    table = tensor_power_decompose(rs, [(rep, power)])
    actions, _ = enumerate_weyl_group(rs)
    ref = None
    for w in actions:
        gauss = character_measure(table, t=w @ np.asarray(t_gauss))
        bulk = character_measure(table, t=w @ np.asarray(t_inter))
        got = (
            [r.probability for r in gauss.rows],
            np.array([r.scaled for r in gauss.rows]),
            weak_convergence_distance(gauss, "gaussian").tv,
            weak_convergence_distance(bulk, "intermediate").tv,
        )
        if ref is None:
            ref = got
            continue
        assert got[0] == pytest.approx(ref[0], rel=1e-12)
        assert np.allclose(got[1], ref[1], rtol=0, atol=1e-12)
        assert got[2] == pytest.approx(ref[2], rel=1e-9)
        assert got[3] == pytest.approx(ref[3], rel=1e-9)


@pytest.mark.parametrize(
    "name, rep, expected",
    [("A2", (1, 0), [0.133, 0.103, 0.072, 0.053]), ("B2", (0, 1), [0.070, 0.037, 0.021, 0.010])],
)
def test_intermediate_tv_at_a_wall_u_falls_with_n(name, rep, expected):
    # u pairs to zero with alpha_1: the law is the W/W0 coset sum, not a domain error
    rs = build_root_system(AlgebraSpec.parse(name))
    u = np.linalg.solve(rs.B_f, [0.0, 0.8])
    tvs = []
    for n in (20, 40, 80, 160):
        table = tensor_power_decompose(rs, [(rep, n)])
        x, _ = hessian_at_origin(tensor_problem(rs, table.problem))
        m = character_measure(table, t=u * math.sqrt(1.0 / (n * x)))
        tvs.append(weak_convergence_distance(m, "intermediate").tv)
    assert tvs == pytest.approx(expected, abs=1e-3)
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_asymptotics_column_filled(a1):
    table = tensor_power_decompose(a1, [((1,), 40)])
    m = character_measure(table)
    interior = [
        (r, asym)
        for r, asym in zip(m.rows, m.asymptotic_log_probabilities)
        if abs(r.scaled[0]) < 3 and r.weight != (0,)
    ]
    assert interior
    filled = 0
    for r, asym in interior:
        if not math.isnan(asym):
            filled += 1
            assert abs(asym - math.log(r.probability)) < 1.0
    assert filled >= len(interior) // 2


@pytest.mark.parametrize("t, final", [(0.5, 2e-3), (0.0, 0.1)])
def test_asymptotic_log_probability_converges_at_the_mode(a1, t, final):
    # each term of the formula is O(1) or larger at the mode, so dropping
    # one (the rho pairing of t, or f / eps) leaves an error that does not
    # shrink with N
    errors = []
    for n in (100, 200, 400):
        table = tensor_power_decompose(a1, [((1,), n)])
        probs = character_probabilities(table, [t])
        mode = max(probs, key=probs.get)
        est = asymptotic_log_probability(tensor_problem(a1, [((1,), n)]), mode, [t])
        errors.append(abs(est - math.log(probs[mode])))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < final


def test_asymptotics_column_filled_at_a_wall(a2):
    # t pairs to zero with alpha_2: the column once was NaN on every row; now
    # only rows on a chamber wall or at the edge of the Legendre domain are.
    # (26, 2) and (28, 1) are at the edge: their dual points are float
    # saturated, lambda_min / lambda_max of Hess f about 4e-12 and 7e-12
    m = character_measure(tensor_power_decompose(a2, [((1, 0), 30)]), t=[0.2, 0.1])
    errors = [
        abs(asym - math.log(row.probability))
        for row, asym in zip(m.rows, m.asymptotic_log_probabilities)
        if not math.isnan(asym)
    ]
    assert len(m.rows) == 91 and len(errors) == 61
    assert np.median(errors) < 0.3


def test_rounding_drift_bound_spares_moderate_t():
    # the bound that refuses a wall t of 1e8 sits far below its tolerance at the
    # pairings of 0.05 to 0.5 the benchmark and the tests use, and at 1e300 where
    # one row carries the whole measure
    for algebra, nu, power, pairings in [
        ("A2", (1, 0), 36, (0.2, 0.0)), ("F4", (0, 0, 0, 1), 5, (0.45, 0.45, 0.0, 0.45)), ("G2", (1, 0), 9, (0.5, 0.5)),
    ]:
        rs = build_root_system(algebra)
        table = tensor_power_decompose(rs, [(nu, power)])
        t = np.linalg.solve(rs.B_f, np.array(pairings))
        entries = table.sorted_entries()
        logs = CharacterPlan(rs, t).evaluate([lam for lam, _ in entries] + [nu]).values
        log_p = np.log([m for _, m in entries]) + logs[:-1] - power * logs[-1]
        top = [power * c for c in nu]
        assert measures._rounding_drift(measures._log_chi_error(rs, t, [top]), log_p, [len(log_p)])[0] < 1e-12
    a1 = build_root_system("A1")
    assert character_probabilities(tensor_power_decompose(a1, [((1,), 4)]), [1e300])[(4,)] == 1.0
    a2 = build_root_system("A2")
    with pytest.raises(DomainError, match="rounding may move the measure by 1.3e-06"):
        character_probabilities(tensor_power_decompose(a2, [((1, 0), 3)]), [1e8, -1e8])
