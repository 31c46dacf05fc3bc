"""Exact representation arithmetic: dimensions, weight systems, decompositions."""

import decimal
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    Branching,
    CharacterPlan,
    DecompositionTable,
    DomainError,
    EntryCapExceededError,
    NonRegularError,
    TransitionKernel,
    asymptotic_log_multiplicity,
    asymptotic_log_probability,
    build_root_system,
    character_value,
    evolve_exact,
    klimyk_tensor_step,
    naive_tensor_decompose,
    sample_paths,
    second_casimir,
    tensor_power_decompose,
    tensor_problem,
    weight_multiplicities,
    weyl_dimension,
)
from tensorstat import charalg
from tensorstat.charalg import CHARACTER_BUDGET

DIMENSION_ORACLES = [
    ("A1", (1,), 2),
    ("A1", (7,), 8),
    ("A2", (1, 0), 3),
    ("A2", (0, 1), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 0), 6),
    ("A2", (2, 2), 27),
    ("A3", (1, 0, 0), 4),
    ("A3", (0, 1, 0), 6),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (1, 1), 16),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 1, 0), 14),
    ("C3", (0, 0, 1), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("G2", (0, 1), 7),
    ("G2", (1, 0), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
]


@pytest.mark.parametrize("name,lam,dim", DIMENSION_ORACLES)
def test_weyl_dimension_oracles(name, lam, dim):
    rs = build_root_system(AlgebraSpec.parse(name))
    assert weyl_dimension(rs, lam) == dim


def test_weyl_dimension_trivial_and_adjoint():
    for name in ["A1", "A2", "B2", "C3", "G2", "F4"]:
        rs = build_root_system(AlgebraSpec.parse(name))
        assert weyl_dimension(rs, (0,) * rs.rank) == 1
        # highest root as a weight: adjoint rep has dim g
        theta_root = max(rs.positive_roots, key=sum)
        theta = rs.weight_coords(theta_root)
        assert weyl_dimension(rs, theta) == rs.dim_g


def test_weyl_dimension_rejects_nondominant():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    with pytest.raises(DomainError):
        weyl_dimension(rs, (-1, 2))


def test_second_casimir_oracles():
    a1 = build_root_system(AlgebraSpec.parse("A1"))
    # m(m+2)/2 in the normalization (alpha, alpha) = 2
    for m in range(1, 6):
        assert second_casimir(a1, (m,)) == Fraction(m * (m + 2), 2)
    a2 = build_root_system(AlgebraSpec.parse("A2"))
    assert second_casimir(a2, (1, 1)) == 6  # adjoint: 2 * dual Coxeter number


def test_weight_system_a1():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    ws = weight_multiplicities(rs, (4,))
    assert ws.multiplicities == {(4,): 1, (2,): 1, (0,): 1, (-2,): 1, (-4,): 1}
    assert ws.dim == 5


def test_weight_system_adjoint_zero_multiplicity():
    # Freudenthal recursion: adjoint zero weight carries mult = rank
    for name in ["A2", "B2", "G2", "C3", "E7", "E8"]:
        rs = build_root_system(AlgebraSpec.parse(name))
        theta = rs.weight_coords(max(rs.positive_roots, key=sum))
        ws = weight_multiplicities(rs, theta)
        assert ws.multiplicities[(0,) * rs.rank] == rs.rank
        assert ws.dim == rs.dim_g


def test_weight_system_e8_3875():
    rs = build_root_system(AlgebraSpec.parse("E8"))
    lam = (1,) + (0,) * 7
    ws = weight_multiplicities(rs, lam)
    assert ws.dim == 3875
    assert ws.dominant_multiplicities == {lam: 1, (0,) * 7 + (1,): 7, (0,) * 8: 35}


def test_weight_system_rejects_wrong_length():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    with pytest.raises(DomainError):
        weight_multiplicities(rs, (1,))


@pytest.mark.parametrize(
    "check",
    [
        weyl_dimension,
        second_casimir,
        weight_multiplicities,
        lambda rs, lam: CharacterPlan(rs, (0.3, 0.1)).evaluate([lam]),
        lambda rs, lam: evolve_exact(rs, lam, None, 2),
        lambda rs, lam: sample_paths(rs, lam, None, 2, 4, 0),
        lambda rs, lam: TransitionKernel(rs, (1, 0), None).row(lam),
        lambda rs, lam: asymptotic_log_multiplicity(tensor_problem(rs, [((1, 0), 30)]), lam),
        lambda rs, lam: asymptotic_log_probability(tensor_problem(rs, [((1, 0), 30)]), lam),
    ],
    ids=[
        "weyl_dimension", "second_casimir", "weight_multiplicities", "evaluate", "evolve_exact",
        "sample_paths", "kernel_row", "asymptotic_log_multiplicity", "asymptotic_log_probability",
    ],
)
@pytest.mark.parametrize("lam", [(1, 0, 0), (1,), (-1, 2), (0.5, 1)], ids=["long", "short", "nondominant", "fraction"])
def test_weights_are_checked_for_rank_integrality_and_dominance(check, lam):
    # a weight of the wrong length or with a fractional coordinate is an
    # error, never silently truncated, padded or reported as a chamber wall
    with pytest.raises(DomainError) as info:
        check(build_root_system("A2"), lam)
    assert not isinstance(info.value, NonRegularError)


@pytest.mark.parametrize(
    "call",
    [
        lambda rs: tensor_power_decompose(rs, [((1, 0), 2.5)]),
        lambda rs: naive_tensor_decompose(rs, [((1, 0), 2.5)]),
        lambda rs: tensor_problem(rs, [((1, 0), 2.5)]),
        lambda rs: tensor_problem(rs, [((1, 0), float("nan"))]),
    ],
    ids=["tensor_power_decompose", "naive_tensor_decompose", "tensor_problem", "tensor_problem_nan"],
)
def test_fractional_powers_are_domain_errors(call):
    # a fractional power was once truncated, and the product of its integer part returned
    with pytest.raises(DomainError, match="must be integers"):
        call(build_root_system("A2"))


def test_weight_systems_are_pinned():
    # SHA-256 of the weight systems of the fundamental weights of ten
    # algebras, plus every lambda in {0,1,2}^r at rank <= 3 (125 systems)
    lines = []
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"]:
        rs = build_root_system(AlgebraSpec.parse(name))
        r = rs.rank
        lams = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        if r <= 3:
            lams += [lam for lam in itertools.product(range(3), repeat=r) if lam not in lams]
        for lam in lams:
            ws = weight_multiplicities(rs, lam)
            lines.append(f"{name} {lam} {sorted(ws.multiplicities.items())}")
    assert len(lines) == 125
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ac5696f2e505d2798155e43f1c6c9bbb86b3d1a49364b08a3b1870b884ab6572"


def test_weight_system_27_of_a2():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    ws = weight_multiplicities(rs, (2, 2))
    assert ws.multiplicities[(0, 0)] == 3
    assert ws.multiplicities[(2, 2)] == 1
    assert ws.dim == 27


def test_character_at_zero_is_dimension():
    rs = build_root_system(AlgebraSpec.parse("B2"))
    for lam in [(0, 0), (1, 0), (2, 1)]:
        logval, sign = character_value(rs, lam, np.zeros(2))
        assert sign == 1
        assert math.exp(logval) == pytest.approx(weyl_dimension(rs, lam), rel=1e-12)


def test_character_a1_closed_form():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    t = np.array([0.7])
    # chi_m(e^t) = sum_{j} e^{(m - 2j) t (omega, alpha)} with (omega, alpha) = 1
    for m in [1, 2, 5]:
        expect = sum(math.exp((m - 2 * j) * 0.7) for j in range(m + 1))
        logval, sign = character_value(rs, (m,), t)
        assert sign == 1
        assert math.exp(logval) == pytest.approx(expect, rel=1e-12)


def test_character_methods_agree():
    # far enough from the walls that the coset sum's bound admits every row
    rs = build_root_system(AlgebraSpec.parse("G2"))
    t = np.array([0.62, -0.24])
    lams = [(1, 0), (0, 1), (1, 1)]
    coset = CharacterPlan(rs, t).evaluate(lams)
    assert coset.paths == ("weyl",) * 3
    for lam, b in zip(lams, coset.values):
        a, _ = character_value(rs, lam, t, method="weight-sum")
        assert a == pytest.approx(b, rel=1e-11)


@given(
    lam=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    t=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_character_methods_agree_hypothesis(lam, t):
    rs = build_root_system(AlgebraSpec.parse("A2"))
    tv = np.array(t)
    a, _ = character_value(rs, lam, tv, method="weight-sum")
    b, _ = character_value(rs, lam, tv, method="auto")
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_klimyk_step_oracles():
    a1 = build_root_system(AlgebraSpec.parse("A1"))
    assert klimyk_tensor_step(a1, {(1,): 1}, (1,)) == {(2,): 1, (0,): 1}
    a2 = build_root_system(AlgebraSpec.parse("A2"))
    assert klimyk_tensor_step(a2, {(1, 0): 1}, (0, 1)) == {(1, 1): 1, (0, 0): 1}
    g2 = build_root_system(AlgebraSpec.parse("G2"))
    seven = klimyk_tensor_step(g2, {(0, 1): 1}, (0, 1))
    assert seven == {(0, 2): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}


@pytest.mark.parametrize(
    "algebra, nu, sources",
    [
        # wall weights (a zero coordinate) are where Klimyk terms cancel
        ("A2", (1, 0), [(0, 0), (1, 0), (0, 3), (2, 0), (2, 1), (3, 3)]),
        ("A2", (1, 1), [(0, 0), (1, 0), (0, 2), (1, 1), (3, 2)]),
        ("B2", (0, 1), [(0, 0), (1, 0), (0, 1), (2, 0), (1, 2)]),
        ("B2", (1, 1), [(0, 0), (0, 2), (1, 1), (3, 0)]),
        ("G2", (1, 0), [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]),
        ("G2", (0, 1), [(0, 0), (1, 0), (0, 2), (2, 1)]),
    ],
)
def test_branching_row_matches_naive(algebra, nu, sources):
    rs = build_root_system(AlgebraSpec.parse(algebra))
    branching = Branching(rs, nu)
    for lam in sources:
        expected = naive_tensor_decompose(rs, [(lam, 1), (nu, 1)]).entries
        assert branching.row(lam) == expected
        assert branching.row(lam) is branching.row(lam)  # built once


def test_tensor_power_a1_oracles():
    rs = build_root_system(AlgebraSpec.parse("A1"))
    t4 = tensor_power_decompose(rs, [((1,), 4)])
    assert dict(t4.entries) == {(4,): 1, (2,): 3, (0,): 2}
    t6 = tensor_power_decompose(rs, [((1,), 6)])
    assert dict(t6.entries) == {(6,): 1, (4,): 5, (2,): 9, (0,): 5}


def test_tensor_cube_a2():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    t3 = tensor_power_decompose(rs, [((1, 0), 3)])
    assert dict(t3.entries) == {(3, 0): 1, (1, 1): 2, (0, 0): 1}
    assert t3.check_dimension_identity()
    assert t3.check_support_in_cone()


def test_mixed_factors_match_naive():
    rs = build_root_system(AlgebraSpec.parse("B2"))
    factors = [((1, 0), 2), ((0, 1), 1)]
    fast = tensor_power_decompose(rs, factors)
    slow = naive_tensor_decompose(rs, factors)
    assert dict(fast.entries) == dict(slow.entries)


@given(
    powers=st.tuples(st.integers(0, 3), st.integers(0, 2)),
)
def test_naive_matches_klimyk_a2(powers):
    rs = build_root_system(AlgebraSpec.parse("A2"))
    factors = [((1, 0), powers[0]), ((1, 1), powers[1])]
    fast = tensor_power_decompose(rs, factors)
    slow = naive_tensor_decompose(rs, factors)
    assert dict(fast.entries) == dict(slow.entries)
    assert fast.check_dimension_identity()


def test_factor_order_is_immaterial():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    a = tensor_power_decompose(rs, [((1, 0), 2), ((0, 1), 3)])
    b = tensor_power_decompose(rs, [((0, 1), 3), ((1, 0), 2)])
    assert dict(a.entries) == dict(b.entries)


def test_entry_cap_enforced():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    with pytest.raises(EntryCapExceededError):
        tensor_power_decompose(rs, [((1, 0), 30)], entry_cap=10)


def test_decomposition_json_roundtrip():
    rs = build_root_system(AlgebraSpec.parse("G2"))
    table = tensor_power_decompose(rs, [((0, 1), 3)])
    text = table.to_json()
    back = DecompositionTable.from_json(text)
    assert dict(back.entries) == dict(table.entries)
    assert back.algebra == table.algebra
    assert back.problem == table.problem
    payload = json.loads(text)
    assert payload["algebra"] == "G2"


def test_dimension_identity_totals():
    # sum of m * dim over the table equals the product of factor dims
    rs = build_root_system(AlgebraSpec.parse("C3"))
    table = tensor_power_decompose(rs, [((1, 0, 0), 4)])
    total = sum(m * weyl_dimension(rs, lam) for lam, m in table.entries.items())
    assert total == 6**4


def _t_with_pairings(rs, pairings):
    """Root-coordinate t whose simple-root pairings are `pairings`."""
    return np.linalg.solve(rs.B_f, np.array(pairings, dtype=float))


def _exact_log_character(rs, lam, t):
    """log chi_lambda(e^t) from the weight system in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # (mu, t) = sum_i mu_i d_i t_i for mu in weight and t in root coordinates
        coeffs = [Fraction(d) * Fraction(float(x)) for d, x in zip(rs.d, t)]
        total = decimal.Decimal(0)
        for mu, m in weight_multiplicities(rs, lam).multiplicities.items():
            pair = sum(c * mi for c, mi in zip(coeffs, mu))
            total += m * (decimal.Decimal(pair.numerator) / decimal.Decimal(pair.denominator)).exp()
        return float(total.ln())


# per algebra: simple-root pairings at a wall, a small-regular and a regular t
EVALUATOR_CASES = {
    "A2": [(0.3, 0.0), (0.44, 0.15), (0.43, 0.48)],
    "B2": [(0.0, 0.45), (0.1, 0.42), (0.41, 0.47)],
    "G2": [(0.0, 0.45), (0.45, 0.1), (0.45, 0.41)],
    "B3": [(0.41, 0.48, 0.0), (0.19, 0.43, 0.49), (0.41, 0.43, 0.45)],
}


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["wall", "small", "regular"])
@pytest.mark.parametrize("algebra", sorted(EVALUATOR_CASES))
def test_log_characters_match_weight_sum(algebra, kind):
    rs = build_root_system(algebra)
    t = _t_with_pairings(rs, EVALUATOR_CASES[algebra][kind])
    vec = (1,) + (0,) * (rs.rank - 1)
    lams = [lam for lam, _ in tensor_power_decompose(rs, [(vec, 6)]).sorted_entries()]
    got = CharacterPlan(rs, t).evaluate(lams)
    ref = CharacterPlan(rs, t).evaluate(lams, method="weight-sum")
    assert ref.paths == ("weight-sum",) * len(lams)
    assert got.paths.count("weyl") >= len(lams) // 2
    for value, bound, path, expect, lam in zip(got.values, got.bounds, got.paths, ref.values, lams):
        assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect))
        if path == "weyl":
            assert bound <= CHARACTER_BUDGET
            assert abs(value - _exact_log_character(rs, lam, t)) <= bound
        else:
            assert bound > CHARACTER_BUDGET


def test_log_characters_rows_do_not_depend_on_the_batch():
    rs = build_root_system("G2")
    t = _t_with_pairings(rs, (0.0, 0.45))
    lams = [(0, 0), (1, 0), (0, 3), (2, 1), (5, 2)]
    batch = CharacterPlan(rs, t).evaluate(lams).values
    for lam, value in zip(lams, batch):
        assert CharacterPlan(rs, t).evaluate([lam]).values[0] == value


def test_log_characters_f4_small_t_skips_the_coset_block(monkeypatch):
    # with every simple pairing at 0.1 the identity term alone rules the
    # float sum out, so no rows x |W| block may be formed
    rs = build_root_system("F4")
    t = _t_with_pairings(rs, (0.1, 0.1, 0.1, 0.1))

    def no_block(*args):
        raise AssertionError("rows x cosets block formed")

    monkeypatch.setattr(charalg, "_rowdot", no_block)
    lams = [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)]
    got = CharacterPlan(rs, t).evaluate(lams)
    assert got.paths == ("weight-sum",) * 3
    assert np.all(got.bounds > CHARACTER_BUDGET)
    for lam, value in zip(lams, got.values):
        assert value == pytest.approx(_exact_log_character(rs, lam, t), rel=1e-13)


def test_log_characters_dimension_path_at_zero():
    rs = build_root_system("B2")
    got = CharacterPlan(rs, np.zeros(2)).evaluate([(0, 0), (2, 1)])
    assert got.paths == ("dimension", "dimension")
    assert np.exp(got.values).tolist() == pytest.approx([1, weyl_dimension(rs, (2, 1))], rel=1e-15)



def test_e6_characters_take_the_coset_sum():
    # |W(E6)| = 51840: the coset sum at a regular t and on the alpha_3 wall
    rs = build_root_system("E6")
    lams = [lam for lam, _ in tensor_power_decompose(rs, [((1, 0, 0, 0, 0, 0), 3)]).sorted_entries()]
    for pairings in [(1.2, 1.6, 1.4, 1.3, 1.7, 1.1), (1.5, 1.5, 0.0, 1.5, 1.5, 1.5)]:
        t = _t_with_pairings(rs, pairings)
        got = CharacterPlan(rs, t).evaluate(lams)
        ref = CharacterPlan(rs, t).evaluate(lams, method="weight-sum")
        assert got.paths == ("weyl",) * len(lams)
        assert np.all(np.abs(got.values - ref.values) <= 1e-12 * np.maximum(1.0, np.abs(ref.values)))
