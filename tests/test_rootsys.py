"""Root system construction: Cartan data, Weyl groups, chamber reflection."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    DomainError,
    InvalidAlgebraError,
    WeylGroupTooLargeError,
    build_root_system,
    cartan_matrix,
    dominant_reflect,
    enumerate_weyl_group,
    weyl_group_order,
)
from tensorstat.rootsys import dominant_reflect_rows, row_runs, weyl_orbits


def test_spec_parse_roundtrip():
    for name in ["A1", "A7", "B2", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]:
        spec = AlgebraSpec.parse(name)
        assert str(spec) == name


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G1", "H2", "A", "2A"])
def test_spec_parse_rejects(bad):
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec.parse(bad)


def test_cartan_matrix_oracles():
    assert cartan_matrix(AlgebraSpec.parse("A1")) == [[2]]
    assert cartan_matrix(AlgebraSpec.parse("A2")) == [[2, -1], [-1, 2]]
    # short root last in the B chain, long root last in the C chain
    assert cartan_matrix(AlgebraSpec.parse("B2")) == [[2, -1], [-2, 2]]
    assert cartan_matrix(AlgebraSpec.parse("C2")) == [[2, -2], [-1, 2]]
    assert cartan_matrix(AlgebraSpec.parse("G2")) == [[2, -1], [-3, 2]]


def test_cartan_matrix_structure():
    # integral, 2 on the diagonal, off-diagonal zero pattern symmetric
    for name in ["A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]:
        C = cartan_matrix(AlgebraSpec.parse(name))
        r = len(C)
        for i in range(r):
            assert C[i][i] == 2
            for j in range(r):
                if i != j:
                    assert C[i][j] <= 0
                    assert (C[i][j] == 0) == (C[j][i] == 0)


def test_symmetrized_cartan_is_symmetric():
    for name in ["A3", "B4", "C3", "D4", "F4", "G2"]:
        rs = build_root_system(AlgebraSpec.parse(name))
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.B[i][j] == rs.B[j][i]
        # B = diag(d) C with d positive rationals
        for i in range(rs.rank):
            assert rs.d[i] > 0
            for j in range(rs.rank):
                assert rs.B[i][j] == rs.d[i] * rs.cartan[i][j]


POSITIVE_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A5": 15,
    "B2": 4,
    "B4": 16,
    "C3": 9,
    "D3": 6,
    "D4": 12,
    "D5": 20,
    "G2": 6,
    "F4": 24,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(AlgebraSpec.parse(name))
    assert rs.n_positive == count
    assert rs.dim_g == rs.rank + 2 * count
    seen = set(rs.positive_roots)
    assert len(seen) == count
    # simple roots are the height-1 layer
    for i in range(rs.rank):
        e = tuple(int(i == j) for j in range(rs.rank))
        assert e in seen


WEYL_ORDERS = {
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C4": 384,
    "D4": 192,
    "G2": 12,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}


def test_weyl_group_orders():
    for name, order in WEYL_ORDERS.items():
        assert weyl_group_order(AlgebraSpec.parse(name)) == order


def test_rho_is_sum_of_fundamental_weights():
    for name in ["A1", "A3", "B2", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(AlgebraSpec.parse(name))
        assert rs.rho_weight == tuple([1] * rs.rank)
        # rho in root coordinates: half sum of positive roots
        half_sum = [Fraction(0)] * rs.rank
        for beta in rs.positive_roots:
            for i in range(rs.rank):
                half_sum[i] += Fraction(beta[i], 2)
        assert tuple(half_sum) == rs.rho_root


def test_rho_pairs_with_simple_roots():
    # (rho, alpha_j) = d_j, i.e. <rho, alpha_j^vee> = 1
    rs = build_root_system(AlgebraSpec.parse("F4"))
    for i, beta in enumerate(rs.positive_roots):
        if sum(beta) != 1:
            continue
        j = beta.index(1)
        den = math.lcm(*(x.denominator for x in rs.d))
        k = rs.posroot_pairing_int[i]
        assert Fraction(sum(c * x for c, x in zip(rs.rho_weight, k)), den) == rs.d[j]


def test_basis_conversion_roundtrip():
    rs = build_root_system(AlgebraSpec.parse("B3"))
    w = (2, 0, 5)
    rc = rs.root_coords(w)
    assert rs.weight_coords(rc) == tuple(Fraction(c) for c in w)


def test_basis_conversion_refuses_the_wrong_coordinate_count(a2):
    with pytest.raises(DomainError, match="expected 2 weight coordinates, got 1"):
        a2.root_coords((1,))
    with pytest.raises(DomainError, match="expected 2 root coordinates, got 3"):
        a2.weight_coords((1, 2, 3))


def _root_oracle(rs, lam) -> list[Fraction]:
    """C^-1 lam in Fractions, straight from the exact inverse."""
    return [sum(rs.cartan_inverse[a][b] * int(lam[b]) for b in range(rs.rank)) for a in range(rs.rank)]


@pytest.mark.parametrize("name", ["A5", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_root_map_matches_the_fraction_oracle(name):
    rs = build_root_system(name)
    m, _ = rs.cartan_inverse_int
    lams = np.random.default_rng(12).integers(0, 10**6 + 1, size=(60, rs.rank))
    lams[0], lams[1] = 0, 10**6
    numerators, points = rs.root_numerators(lams), rs.root_points(lams)
    assert numerators.dtype == np.int64 and points.shape == lams.shape
    for lam, num, pt in zip(lams, numerators.tolist(), points):
        exact = _root_oracle(rs, lam)
        assert num == [m * x for x in exact]
        assert pt.tobytes() == np.array([float(x) for x in exact]).tobytes()
    assert rs.root_points([]).shape == (0, rs.rank)


@pytest.mark.parametrize("name", ["A1", "C3", "E8", "G2"])
def test_root_map_gate(name):
    rs = build_root_system(name)
    m, adj = rs.cartan_inverse_int
    bound = 2**53 // int(np.abs(adj).sum(axis=1).max())
    at = [bound] * rs.rank
    assert rs.root_numerators([at]).tolist() == [[m * x for x in _root_oracle(rs, at)]]
    for past in (bound + 1, -(bound + 1), 2**62, 10**20):
        with pytest.raises(DomainError):
            rs.root_numerators([[past] + [0] * (rs.rank - 1)])


def test_enumerate_weyl_a2():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    actions, parities = enumerate_weyl_group(rs)
    assert len(actions) == 6
    assert parities.sum() == 0
    assert len({a.tobytes() for a in actions}) == 6
    assert (actions[0] == np.eye(2)).all() and parities[0] == 1
    # a product of k simple reflections has determinant (-1)^k
    assert (np.round(np.linalg.det(actions)) == parities).all()


def test_enumerate_weyl_respects_cap():
    rs = build_root_system(AlgebraSpec.parse("E8"))
    with pytest.raises(WeylGroupTooLargeError):
        enumerate_weyl_group(rs)  # |W| = 696729600 over the default cap


def test_dominant_reflect_fixed_points():
    rs = build_root_system(AlgebraSpec.parse("B2"))
    lam, parity, singular = dominant_reflect(rs, (3, 1))
    assert (lam, parity, singular) == ((3, 1), 1, False)
    lam, parity, singular = dominant_reflect(rs, (0, 2))
    assert singular and lam == (0, 2)


def test_dominant_reflect_a1_oracle():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    assert dominant_reflect(rs, (-5,)) == ((5,), -1, False)
    assert dominant_reflect(rs, (4,)) == ((4,), 1, False)
    assert dominant_reflect(rs, (0,)) == ((0,), 1, True)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@given(coords=st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=2))
def test_dominant_reflect_properties(name, coords):
    rs = build_root_system(AlgebraSpec.parse(name))
    lam, parity, singular = dominant_reflect(rs, coords)
    assert min(lam) >= 0
    assert parity in (-1, 1)
    assert singular == any(c == 0 for c in lam)
    # the dominant representative is Weyl-invariant data
    m, adj = rs.cartan_inverse_int
    actions, parities = enumerate_weyl_group(rs)
    moved = (actions @ (adj @ coords)) @ np.array(rs.cartan).T  # m times the weight coordinates
    assert (moved % m == 0).all()
    for w, w_parity in zip((moved // m).tolist(), parities.tolist()):
        lam2, parity2, singular2 = dominant_reflect(rs, w)
        assert lam2 == lam
        assert singular2 == singular
        if not singular:
            assert parity2 == parity * w_parity


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_dominant_reflect_rows_match_dominant_reflect(name):
    rs = build_root_system(name)
    x = np.random.default_rng(3).integers(-6, 7, size=(200, rs.rank))
    expect = [dominant_reflect(rs, row) for row in x.tolist()]
    parity = dominant_reflect_rows(rs, x)
    assert [tuple(row) for row in x.tolist()] == [dom for dom, _, _ in expect]
    assert parity.tolist() == [p for _, p, _ in expect]
    assert len(dominant_reflect_rows(rs, x[:0])) == 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"])
@given(data=st.data())
def test_weyl_orbit_size_is_index_of_stabilizer(name, data):
    rs = build_root_system(AlgebraSpec.parse(name))
    mu = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=rs.rank, max_size=rs.rank))
    points = weyl_orbits(rs, mu)
    m, adj = rs.cartan_inverse_int
    actions, _ = enumerate_weyl_group(rs)
    stabilizer = np.count_nonzero((actions @ (adj @ mu) == adj @ mu).all(axis=1))
    assert len(points) == weyl_group_order(rs.spec) // stabilizer
    assert len({p.tobytes() for p in points}) == len(points)
    assert points[0].tolist() == mu
    for p in points.tolist():
        assert dominant_reflect(rs, p)[0] == tuple(mu)


def test_inner_product_positive_definite_sample():
    rs = build_root_system(AlgebraSpec.parse("G2"))
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.integers(-5, 6, size=2)
        if not np.any(v):
            continue
        q = float(v @ rs.B_f @ v)
        assert q > 0


def test_invalid_rank_zero():
    with pytest.raises(DomainError):
        AlgebraSpec.parse("A0")


@given(
    rows=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=40),
    major=st.lists(st.integers(0, 2), min_size=40, max_size=40),
    scale=st.sampled_from([1, 5, 2**21 + 1, 2**40]),
    offset=st.sampled_from([0, -(2**62), 2**62]),
)
def test_row_runs_match_unique(rows, major, scale, offset):
    # the int64 key takes scales 1 and 5 at offsets 0 and -2^62; the lexsort takes offset 2^62
    # (positive columns keep their entries as digits) and scales from 2^21 + 1 (three spans past 2^24)
    x = np.array(rows, dtype=np.int64) * scale + offset
    order, starts = row_runs(x)
    unique, first = np.unique(x, axis=0, return_index=True)
    assert np.array_equal(x[order[starts]], unique)
    assert np.array_equal(order[starts], first)
    # with a major key: runs of equal (major, row), sorted by major first
    g = np.array(major[: len(x)])
    order, starts = row_runs(x, g)
    keyed = np.column_stack([g, x])
    unique, first = np.unique(keyed, axis=0, return_index=True)
    assert np.array_equal(keyed[order[starts]], unique)
    assert np.array_equal(order[starts], first)
