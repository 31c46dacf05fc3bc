"""Exact representation arithmetic: dimensions, weight systems, decompositions."""

import decimal
import hashlib
import itertools
import json
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    Branching,
    CharacterPlan,
    DecompositionTable,
    DomainError,
    EntryCapExceededError,
    InternalConsistencyError,
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
from tensorstat.rootsys import dominant_reflect

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


def _dominant_multiplicities_by_recursion(rs, lam):
    """Freudenthal's recursion for one system, one dominant_reflect per string point: the batched pass's reference."""
    r = rs.rank
    steps = list(zip(rs.positive_roots_weight, rs.positive_roots))
    coords = {lam: (0,) * r}  # dominant mu -> root coordinates of lambda - mu
    stack = [lam]
    while stack:
        mu = stack.pop()
        for alpha_w, alpha in steps:
            nu = tuple(x - y for x, y in zip(mu, alpha_w))
            if min(nu) >= 0 and nu not in coords:
                coords[nu] = tuple(x + y for x, y in zip(coords[mu], alpha))
                stack.append(nu)
    den = math.lcm(*(x.denominator for x in rs.d))
    dd = [int(den * x) for x in rs.d]
    pos = list(zip(rs.positive_roots_weight, rs.posroot_pairing_int))
    mult = {lam: 1}
    for mu in sorted(coords, key=lambda mu: (sum(coords[mu]), mu))[1:]:
        denom = sum(coords[mu][a] * dd[a] * (lam[a] + mu[a] + 2) for a in range(r))
        total = 0
        for alpha, k in pos:
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, alpha))
                m = mult.get(dominant_reflect(rs, nu)[0], 0)
                if m == 0:
                    break
                total += m * sum(x * y for x, y in zip(nu, k))
        val, rem = divmod(2 * total, denom)
        assert rem == 0 and val > 0
        mult[mu] = val
    return mult


# the summands of V^N, one batch per table: wall and small-t tables of weight-sum rows
ORACLE_TABLES = [
    ("G2", (1, 0), 14), ("B2", (0, 1), 30), ("F4", (0, 0, 0, 1), 6), ("E6", (1, 0, 0, 0, 0, 0), 5),
    ("A2", (1, 0), 36), ("B3", (1, 0, 0), 10),
]


@pytest.mark.parametrize("algebra, nu, power", ORACLE_TABLES, ids=[f"{a}^{n}" for a, _, n in ORACLE_TABLES])
def test_batched_weight_systems_match_the_recursion(algebra, nu, power):
    rs = build_root_system(algebra)
    lams = [lam for lam, _ in tensor_power_decompose(rs, [(nu, power)]).sorted_entries()]
    systems = charalg._freudenthal(rs.spec, lams)
    assert [ws.highest for ws in systems] == lams
    for lam, ws in zip(lams, systems):
        expect = _dominant_multiplicities_by_recursion(rs, lam)
        assert ws.dominant_multiplicities == expect
        assert list(ws.dominant_multiplicities) == list(expect)  # by height, then weight


def test_weight_systems_in_python_ints_match_int64(monkeypatch):
    # past the a-priori int64 bound the pass sums Python ints in object arrays
    rs = build_root_system("G2")
    lams = [lam for lam, _ in tensor_power_decompose(rs, [((1, 0), 8)]).sorted_entries()] + [(3, 2)]
    fast = charalg._freudenthal(rs.spec, lams)
    monkeypatch.setattr(charalg, "_INT64_LIMIT", 0)
    exact = charalg._freudenthal(rs.spec, lams)
    assert [ws.dominant_multiplicities for ws in exact] == [ws.dominant_multiplicities for ws in fast]
    e8 = build_root_system("E8")
    assert charalg._freudenthal(e8.spec, [(1,) + (0,) * 7])[0].dim == 3875


def test_one_evaluate_builds_its_missing_systems_in_one_pass(monkeypatch):
    rs = build_root_system("F4")
    lams = [lam for lam, _ in tensor_power_decompose(rs, [((0, 0, 0, 1), 4)]).sorted_entries()]
    t = _t_with_pairings(rs, (0.1, 0.1, 0.1, 0.1))
    monkeypatch.setattr(charalg, "_WEIGHT_SYSTEMS", charalg.OrderedDict())
    weight_multiplicities(rs, lams[0])
    calls = []
    build = charalg._freudenthal
    monkeypatch.setattr(charalg, "_freudenthal", lambda spec, todo: calls.append(todo) or build(spec, todo))
    got = CharacterPlan(rs, t).evaluate(lams + lams[:3])
    assert got.paths == ("weight-sum",) * (len(lams) + 3)
    assert calls == [lams[1:]]  # the distinct rows not cached, once each
    CharacterPlan(rs, t).evaluate(lams)
    assert len(calls) == 1


def test_weight_system_cache_evicts_the_least_recently_used(monkeypatch):
    rs = build_root_system("A2")
    monkeypatch.setattr(charalg, "_WEIGHT_SYSTEMS", charalg.OrderedDict())
    monkeypatch.setattr(charalg, "_WEIGHT_SYSTEM_SLOTS", 2)
    a, b, c = (weight_multiplicities(rs, lam) for lam in [(1, 0), (0, 1), (1, 1)])
    assert list(charalg._WEIGHT_SYSTEMS) == [(rs.spec, (0, 1)), (rs.spec, (1, 1))]
    assert weight_multiplicities(rs, (1, 1)) is c
    assert weight_multiplicities(rs, (1, 0)) is not a  # rebuilt
    assert list(charalg._WEIGHT_SYSTEMS) == [(rs.spec, (1, 1)), (rs.spec, (1, 0))]


def test_weight_systems_past_the_height_gate_are_refused(monkeypatch):
    a1, a2 = build_root_system(AlgebraSpec.parse("A1")), build_root_system(AlgebraSpec.parse("A2"))
    # refused before any level is built: A1 (100000), height 50000, ran for over a minute
    for lam in [(2 * charalg._MAX_HEIGHT + 1,), (100000,), (2**63 - 1,)]:
        with pytest.raises(DomainError, match=f"past {charalg._MAX_HEIGHT}"):
            weight_multiplicities(a1, lam)
    monkeypatch.setattr(charalg, "_MAX_HEIGHT", 10)
    monkeypatch.setattr(charalg, "_WEIGHT_SYSTEMS", charalg.OrderedDict())
    assert weight_multiplicities(a1, (20,)).dim == 21  # height 10
    assert weight_multiplicities(a2, (6, 4)).dim == weyl_dimension(a2, (6, 4))  # height 8 + 2
    for rs, lam, height in [(a1, (21,), "10.5"), (a2, (7, 4), "11")]:
        with pytest.raises(DomainError, match=f"height {height}, past 10"):
            weight_multiplicities(rs, lam)
    # the gate reads every system of a batch
    with pytest.raises(DomainError, match="height 10.5"):
        charalg._weight_systems(a1.spec, [(2,), (21,)])


def test_weight_systems_past_the_dominant_weight_gate_are_refused(monkeypatch):
    a2, g2 = build_root_system(AlgebraSpec.parse("A2")), build_root_system(AlgebraSpec.parse("G2"))
    counts = {lam: len(weight_multiplicities(a2, lam).dominant_multiplicities) for lam in [(12, 0), (6, 6)]}
    assert counts == {(12, 0): 19, (6, 6): 25}
    monkeypatch.setattr(charalg, "_WEIGHT_SYSTEMS", charalg.OrderedDict())
    monkeypatch.setattr(charalg, "_MAX_DOMINANT", 19)
    assert weight_multiplicities(a2, (12, 0)).dim == weyl_dimension(a2, (12, 0))
    # the limit is per system: a batch of 19 + 19 is built
    assert len(charalg._weight_systems(a2.spec, [(0, 12), (12, 0)])) == 2
    # and checked before the recursion starts, which reflects every string point into the chamber
    monkeypatch.setattr(charalg, "dominant_reflect_rows", None)
    for rs, lam in [(a2, (6, 6)), (a2, (200, 0)), (g2, (200, 0))]:
        with pytest.raises(DomainError, match=re.escape(f"V{lam} has more than 19 dominant weights")):
            weight_multiplicities(rs, lam)
    with pytest.raises(DomainError, match=re.escape("V(6, 6) has more than 19")):
        charalg._weight_systems(a2.spec, [(1, 1), (6, 6)])


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
    assert klimyk_tensor_step(a1, {}, (1,)) == {}
    a2 = build_root_system(AlgebraSpec.parse("A2"))
    assert klimyk_tensor_step(a2, {(1, 0): 1}, (0, 1)) == {(1, 1): 1, (0, 0): 1}
    g2 = build_root_system(AlgebraSpec.parse("G2"))
    seven = klimyk_tensor_step(g2, {(0, 1): 1}, (0, 1))
    assert seven == {(0, 2): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}


def _klimyk_by_reflection(rs, table, nu):
    """sum over lam in table and mu in wt V(nu) of m_lam d_mu parity at dom(lam + mu + rho) - rho, term by term."""
    out = {}
    for lam, m in table.items():
        for mu, d in weight_multiplicities(rs, nu).multiplicities.items():
            dom, parity, singular = dominant_reflect(rs, [a + b + 1 for a, b in zip(lam, mu)])
            if not singular:
                target = tuple(c - 1 for c in dom)
                out[target] = out.get(target, 0) + parity * m * d
    return {lam: m for lam, m in out.items() if m}


# A1 to G2, with the non-minuscule A2 (1,1), B3 (0,1,0) and G2 (0,1)
KLIMYK_FACTORS = [
    ("A1", (1,)), ("A1", (3,)), ("A2", (1, 0)), ("A2", (1, 1)), ("A3", (0, 1, 0)), ("B2", (0, 1)),
    ("B2", (1, 0)), ("B3", (0, 1, 0)), ("C3", (1, 0, 0)), ("D4", (0, 0, 0, 1)), ("G2", (1, 0)), ("G2", (0, 1)),
]


@settings(max_examples=50)
@given(data=st.data())
def test_klimyk_step_matches_termwise_reflection(data):
    for algebra, nu in KLIMYK_FACTORS:
        rs = build_root_system(AlgebraSpec.parse(algebra))
        table = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * rs.rank),
                st.integers(1, 10**40),  # past int64: the multiplicities stay exact
                min_size=1,
                max_size=5,
            ),
            label=algebra,
        )
        assert klimyk_tensor_step(rs, table, nu) == _klimyk_by_reflection(rs, table, nu)


@pytest.mark.parametrize(
    "algebra, nu, power, digest",
    [
        # SHA-256 of to_json, taken from the per-row dict step the fold replaced
        ("A2", (1, 1), 30, "e13295c897145dc4d0557ee6bc5f7b91b765f3b7d2da533e9e92e7a99c4a5a7c"),
        ("B2", (0, 1), 30, "ebaaa061682e3a1cb4c0fb258a2e2f133c8efaf1681c23a3af0527afbada1560"),
        ("G2", (1, 0), 28, "a7bf19daabfa4c6be6db0decebf081c91190dffd01cdc6570594f1bf6267304b"),
        ("B3", (0, 1, 0), 8, "b4b1defdd4752405713eb2da1579b11c2620fe86612c34167efd6e14a287f8e7"),
        # no weight of these V pairs below -1 with a simple coroot, so no term ever reflects and the
        # fold skips reflection, coefficients and the sign check; taken from the lexsort fold
        ("A1", (1,), 1200, "bc99015fd1ce9a729c3fff05ca930f0e09caf0e8b7df4705a450911bd3a62b6c"),
        ("A2", (1, 0), 60, "d8ac36baf6354c6cf774c36b54dd9d5136a0b7335d64a4088e6fec2357a93142"),
        ("A3", (1, 0, 0), 12, "321047dc9323c88b285eb3c12e1b1e3a9ee7a728b51f3fb009643a418e6f2101"),
    ],
)
def test_tensor_powers_are_pinned(algebra, nu, power, digest):
    table = tensor_power_decompose(build_root_system(AlgebraSpec.parse(algebra)), [(nu, power)])
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == digest


def test_negative_klimyk_total_is_a_consistency_error():
    branching = Branching(build_root_system(AlgebraSpec.parse("A1")), (1,))
    branching._mults = -branching._mults  # a corrupt weight system
    with pytest.raises(InternalConsistencyError, match="negative multiplicity"):
        branching.fold(np.array([[1]]), np.array([1], dtype=object))


def test_negative_klimyk_total_by_source_is_a_consistency_error():
    branching = Branching(build_root_system(AlgebraSpec.parse("A1")), (1,))
    branching._mults = -branching._mults  # a corrupt weight system
    with pytest.raises(InternalConsistencyError, match="negative multiplicity"):
        branching.fold(np.array([[1]]), np.ones(1, dtype=np.int64), by_source=True)


def test_fold_refuses_a_source_whose_top_term_wraps_past_int64():
    # lam + mu + rho = 2^63 + 1 wrapped negative, and the fold dropped the target 2^63 without a word
    a1 = build_root_system(AlgebraSpec.parse("A1"))
    with pytest.raises(DomainError, match="int64"):
        klimyk_tensor_step(a1, {(2**63 - 1,): 1}, (1,))


def test_fold_refuses_a_source_whose_top_target_is_int64_max():
    # lam + mu + rho = 2^63 wrapped, and the fold dropped the target 2^63 - 1, which int64 holds
    a1 = build_root_system(AlgebraSpec.parse("A1"))
    with pytest.raises(DomainError, match="int64"):
        klimyk_tensor_step(a1, {(2**63 - 2,): 1}, (1,))


@pytest.mark.parametrize("algebra, nu", [("A1", (1,)), ("A1", (3,)), ("B2", (1, 0)), ("G2", (1, 0)), ("A2", (1, 1))])
def test_fold_is_exact_up_to_its_key_limit(algebra, nu):
    rs = build_root_system(AlgebraSpec.parse(algebra))
    limit = Branching(rs, nu)._key_limit
    assert limit > 2**58  # far above any weight a decomposition can reach
    for lam in [(limit,) * rs.rank, (limit,) + (0,) * (rs.rank - 1), (0,) * (rs.rank - 1) + (limit,)]:
        table = {lam: 3, (1,) * rs.rank: 2}
        assert klimyk_tensor_step(rs, table, nu) == _klimyk_by_reflection(rs, table, nu)
    with pytest.raises(DomainError, match="int64"):
        klimyk_tensor_step(rs, {(limit + 1,) + (0,) * (rs.rank - 1): 1}, nu)


def _fold_rows(branching, sources, values=None):
    """The row of V(lam) (x) V(nu) of each source, in the order of one fold by source; values default to 1."""
    keys = np.array(sources, dtype=np.int64).reshape(len(sources), branching.rs.rank)
    values = np.ones(len(sources), dtype=np.int64) if values is None else np.array(values, dtype=object)
    src, targets, sums = branching.fold(keys, values, by_source=True)
    rows = [{} for _ in sources]
    for i, mu, b in zip(src.tolist(), map(tuple, targets.tolist()), sums.tolist()):
        rows[i][mu] = b
    assert src.tolist() == sorted(src.tolist())
    return rows


@settings(max_examples=30)
@given(data=st.data())
def test_fold_rows_by_source_match_termwise_reflection(data):
    # V whose terms reflect, with values past int64
    for algebra, nu in [("A1", (3,)), ("B2", (1, 0)), ("G2", (1, 0))]:
        rs = build_root_system(AlgebraSpec.parse(algebra))
        sources = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * rs.rank), min_size=1, max_size=6), label=algebra)
        values = data.draw(st.lists(st.integers(1, 10**40), min_size=len(sources), max_size=len(sources)))
        for lam, m, row in zip(sources, values, _fold_rows(Branching(rs, nu), sources, values)):
            assert list(row) == sorted(row)
            assert row == _klimyk_by_reflection(rs, {lam: m}, nu)


def test_branching_rows_of_one_batch_match_single_rows():
    rs = build_root_system(AlgebraSpec.parse("G2"))
    sources = [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3), (1, 0)]
    rows = _fold_rows(Branching(rs, (1, 0)), sources)
    assert rows[1] == rows[5]
    for lam, row in zip(sources, rows):
        assert list(row) == sorted(row)  # targets sorted within each source
        assert row == _fold_rows(Branching(rs, (1, 0)), [lam])[0]


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
    for lam, row in zip(sources, _fold_rows(Branching(rs, nu), sources)):
        expected = naive_tensor_decompose(rs, [(lam, 1), (nu, 1)]).entries
        assert row == expected
        assert klimyk_tensor_step(rs, {lam: 1}, nu) == expected


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
    # top - lam must be a nonnegative integer combination of simple roots
    for entries, inside in (({}, True), ({(0, 3): 1}, False), ({(2, 0): 1}, False)):
        assert t3._replace(entries=entries).check_support_in_cone() == inside


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


def _decompose_by(rs, factors, recurrence, **kwargs):
    """tensor_power_decompose with its path forced: Miller's recurrence for the first factor, or folds only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charalg, "_recurrence_pays", lambda rs, nu, n: recurrence)
        return tensor_power_decompose(rs, factors, **kwargs)


def test_entry_cap_enforced():
    rs = build_root_system(AlgebraSpec.parse("A2"))
    for recurrence in (False, True):
        with pytest.raises(EntryCapExceededError):
            _decompose_by(rs, [((1, 0), 30)], recurrence, entry_cap=10)
        # the cap counts the nonzero support: a cap equal to it passes
        full = _decompose_by(rs, [((1, 1), 12)], recurrence).entries
        assert all(m > 0 for m in full.values())
        capped = _decompose_by(rs, [((1, 1), 12)], recurrence, entry_cap=len(full))
        assert capped.entries == full
        with pytest.raises(EntryCapExceededError):
            _decompose_by(rs, [((1, 1), 12)], recurrence, entry_cap=len(full) - 1)


# per algebra: the highest weights drawn, and the largest power of each factor
POWER_PATH_FACTORS = {
    "A1": ([(1,), (2,), (3,)], 12),
    "A2": ([(1, 0), (0, 1), (1, 1)], 6),
    "B2": ([(1, 0), (0, 1)], 6),
    "G2": ([(1, 0), (0, 1)], 4),
    "B3": ([(1, 0, 0), (0, 0, 1)], 3),
}


@given(data=st.data())
def test_the_recurrence_and_the_folds_give_one_table(data):
    # one or two factors: with two, the recurrence builds the first table and the second is folded onto it
    algebra = data.draw(st.sampled_from(sorted(POWER_PATH_FACTORS)), label="algebra")
    reps, top = POWER_PATH_FACTORS[algebra]
    factors = data.draw(
        st.lists(st.tuples(st.sampled_from(reps), st.integers(0, top)), min_size=1, max_size=2), label="factors"
    )
    rs = build_root_system(AlgebraSpec.parse(algebra))
    by_recurrence = _decompose_by(rs, factors, True)
    folded = _decompose_by(rs, factors, False)
    assert list(by_recurrence.entries.items()) == list(folded.entries.items())


def test_the_recurrence_takes_the_first_factor_it_pays_for(monkeypatch):
    # the gate once asked about the first factor only: (1,1)^2 first sent (1,0)^100 to 100 folds
    rs = build_root_system("A2")
    powers = []
    build = charalg._power_weights
    monkeypatch.setattr(charalg, "_power_weights", lambda rs, nu, n: powers.append((nu, n)) or build(rs, nu, n))
    factors = [((1, 1), 2), ((1, 0), 100)]
    tables = [tensor_power_decompose(rs, order) for order in (factors, factors[::-1])]
    assert powers == [((1, 0), 100)] * 2
    assert list(tables[0].entries.items()) == list(tables[1].entries.items())


@pytest.mark.parametrize(
    "algebra, nu, power, recurrence",
    [
        ("A1", (1,), 1200, True),  # the cli-exact headline
        ("A2", (1, 0), 1000, True),
        # the session-t-sweep, cli-sample and cli-exact tables, where the folds cost less
        ("A2", (1, 0), 36, False),
        ("A2", (1, 0), 60, False),
        ("G2", (1, 0), 9, False),
        ("B3", (1, 0, 0), 10, False),
        ("B3", (1, 0, 0), 12, False),
        ("F4", (0, 0, 0, 1), 5, False),
        ("A2", (1, 1), 34, False),
        ("G2", (1, 0), 28, False),
        # cases a gate of fitted timings got wrong (fold vs recurrence, median of 5 on 2 cores)
        ("A1", (2,), 32, True),  # 2.18 vs 1.26 ms
        ("A1", (3,), 80, True),  # 6.41 vs 5.01 ms
        ("A2", (1, 0), 72, False),  # 6.61 vs 8.60 ms
        ("B2", (0, 1), 116, False),  # 17.7 vs 22.4 ms
        ("A3", (1, 0, 0), 540, False),  # the recurrence peaks at 363 MiB already at N = 200, folds at 61
    ],
)
def test_the_gate_picks_the_cheaper_path(algebra, nu, power, recurrence):
    assert charalg._recurrence_pays(build_root_system(AlgebraSpec.parse(algebra)), nu, power) is recurrence


@pytest.mark.parametrize(
    "algebra, nu",
    [("A1", (2,)), ("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0)), ("A3", (1, 0, 1)), ("C3", (0, 1, 0)), ("D4", (0, 0, 0, 1))],
)
def test_the_weight_count_of_a_power_is_ehrharts_polynomial(algebra, nu):
    # the a-priori entry cap reads L(n) from k <= r; the recurrence's points are the weights
    rs = build_root_system(AlgebraSpec.parse(algebra))
    diffs = charalg._ehrhart(rs.spec, nu)
    for n in range(8):
        assert sum(math.comb(n, j) * d for j, d in enumerate(diffs)) == len(charalg._power_weights(rs, nu, n)[1])


def test_a_remainder_in_millers_recurrence_is_a_consistency_error(monkeypatch):
    # the lowest weight of an irreducible has multiplicity 1; at 2, K would be (P / 2)^3, and 3 / 2 at height 1
    corrupt = types.SimpleNamespace(multiplicities={(1,): 1, (-1,): 2})  # a corrupt weight system
    monkeypatch.setattr(charalg, "weight_multiplicities", lambda rs, nu: corrupt)
    with pytest.raises(InternalConsistencyError, match="remainder at height 1"):
        charalg._power_weights(build_root_system(AlgebraSpec.parse("A1")), (1,), 3)


@pytest.mark.parametrize(
    "algebra, nu, power",
    [
        ("A1", (1,), 2**62),  # a weight coordinate whose reflections pass 2^63
        ("A2", (1, 0), 2**32),  # a box of (2^32 + 3)^2 points
    ],
)
def test_the_recurrence_refuses_int64_overflow_before_it_allocates(algebra, nu, power):
    with pytest.raises(DomainError, match="int64"):
        charalg._power_weights(build_root_system(AlgebraSpec.parse(algebra)), nu, power)


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


@pytest.mark.parametrize(
    "algebra, factors",
    [
        ("A1", [((1,), 300)]),
        ("G2", [((0, 1), 6)]),
        ("B3", [((1, 0, 0), 3), ((0, 0, 1), 2)]),
        ("A2", [((1, 1), 0)]),
        ("A2", []),
    ],
    ids=["A1-big-ints", "G2", "B3-two-factors", "power-0", "no-factors"],
)
def test_to_json_is_the_indent_1_json_layout(algebra, factors):
    # to_json writes the layout itself; json.dumps with an indent runs its pure-Python encoder
    table = tensor_power_decompose(build_root_system(AlgebraSpec.parse(algebra)), factors)
    payload = {
        "algebra": table.algebra,
        "problem": [[list(nu), n] for nu, n in table.problem],
        "entries": [[list(lam), str(m)] for lam, m in table.sorted_entries()],
    }
    assert table.to_json() == json.dumps(payload, indent=1)


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
    # |W(E7)| > 10^6, so every row is a weight sum; a wall t only
    "E7": [(0.41, 0.48, 0.0, 0.43, 0.45, 0.47, 0.44)],
}
KINDS = ("wall", "small", "regular")
# the rows are the summands of V^N: (V, N) per algebra, (1, 0, ..., 0)^6 by default
EVALUATOR_FACTORS = {"E7": ((0,) * 6 + (1,), 2)}
# CharacterLogs.paths, one letter a row
PATH_CODES = {"weight-sum": "s", "weyl": "w", "weyl-extended": "x", "dimension": "d"}
# the path of every row of EVALUATOR_CASES, per kind, as pinned when the long-double tier came in
EVALUATOR_PATHS = {
    "A2": ["w" * 7] * 3,
    "B2": ["w" * 15] * 3,
    "G2": ["w" * 36] * 3,
    "B3": ["w" * 19] * 3,
    "E7": ["s" * 4],
}


def _path_codes(paths) -> str:
    return "".join(PATH_CODES[p] for p in paths)


@pytest.mark.parametrize(
    "algebra, kind",
    [(a, k) for a in sorted(EVALUATOR_CASES) for k in range(len(EVALUATOR_CASES[a]))],
    ids=[f"{a}-{KINDS[k]}" for a in sorted(EVALUATOR_CASES) for k in range(len(EVALUATOR_CASES[a]))],
)
def test_log_characters_match_weight_sum(algebra, kind):
    rs = build_root_system(algebra)
    t = _t_with_pairings(rs, EVALUATOR_CASES[algebra][kind])
    factor = EVALUATOR_FACTORS.get(algebra, ((1,) + (0,) * (rs.rank - 1), 6))
    lams = [lam for lam, _ in tensor_power_decompose(rs, [factor]).sorted_entries()]
    got = CharacterPlan(rs, t).evaluate(lams)
    ref = CharacterPlan(rs, t).evaluate(lams, method="weight-sum")
    assert ref.paths == ("weight-sum",) * len(lams)
    assert _path_codes(got.paths) == EVALUATOR_PATHS[algebra][kind]
    for value, bound, path, expect, lam in zip(got.values, got.bounds, got.paths, ref.values, lams):
        assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect))
        if path in ("weyl", "weyl-extended"):
            assert bound <= CHARACTER_BUDGET
            assert abs(value - _exact_log_character(rs, lam, t)) <= bound
        else:
            assert bound > CHARACTER_BUDGET
    # every weight-sum row, forced or taken, against the 50-digit reference
    for value, lam in zip(ref.values, lams):
        exact = _exact_log_character(rs, lam, t)
        assert abs(value - exact) <= 1e-15 * max(1.0, abs(exact))


def test_log_characters_rows_do_not_depend_on_the_batch():
    cases = [
        ("G2", (0.0, 0.45), [(0, 0), (1, 0), (0, 3), (2, 1), (5, 2)]),
        # mixed-precision rows: which terms go wide, and the sum's layout, are each row's own
        ("F4", (0.41, 0.47, 0.0, 0.44), [(0, 0, 0, 1), (2, 0, 0, 1), (0, 1, 0, 1), (0, 0, 0, 5), (1, 0, 1, 0)]),
    ]
    for algebra, pairings, lams in cases:
        rs = build_root_system(algebra)
        t = _t_with_pairings(rs, pairings)
        batch = CharacterPlan(rs, t).evaluate(lams)
        if algebra == "F4" and charalg._EPS_EXT < charalg._EPS:
            assert set(batch.paths) == {"weyl-extended"}
        for lam, value, bound, path in zip(lams, batch.values, batch.bounds, batch.paths):
            one = CharacterPlan(rs, t).evaluate([lam])
            assert (one.values[0], one.bounds[0], one.paths[0]) == (value, bound, path)


def test_log_characters_f4_small_t_skips_the_coset_block(monkeypatch):
    # with every simple pairing at 0.1 (1/D = 7.6e12) the identity term
    # alone rules the coset sum out in float and in long double, so no
    # rows x |W| block may be formed in either precision
    rs = build_root_system("F4")
    t = _t_with_pairings(rs, (0.1, 0.1, 0.1, 0.1))

    def no_block(*args):
        raise AssertionError("rows x cosets block formed")

    monkeypatch.setattr(charalg, "_rowdot", no_block)
    monkeypatch.setattr(charalg, "_coset_terms", no_block)
    monkeypatch.setattr(charalg, "_coset_terms_at", no_block)
    lams = [(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)]
    got = CharacterPlan(rs, t).evaluate(lams)
    assert got.paths == ("weight-sum",) * 3
    assert np.all(got.bounds > CHARACTER_BUDGET)
    for lam, value in zip(lams, got.values):
        assert value == pytest.approx(_exact_log_character(rs, lam, t), rel=1e-13)


def test_weight_sum_rows_share_cached_orbits(monkeypatch):
    # at small t every F4 row is a weight sum over dominant weights: the
    # rows never build full weight dicts, and a second plan walks no orbit
    rs = build_root_system("F4")
    lams = [lam for lam, _ in tensor_power_decompose(rs, [((0, 0, 0, 1), 5)]).sorted_entries()]
    charalg._WEIGHT_SYSTEMS.clear()
    charalg._orbit.cache_clear()
    got = CharacterPlan(rs, _t_with_pairings(rs, (0.1, 0.1, 0.1, 0.1))).evaluate(lams)
    assert got.paths == ("weight-sum",) * len(lams)
    assert not any("multiplicities" in vars(weight_multiplicities(rs, lam)) for lam in lams)

    calls = []
    walk = charalg.weyl_orbits
    monkeypatch.setattr(charalg, "weyl_orbits", lambda *args, **kwargs: calls.append(args) or walk(*args, **kwargs))
    again = CharacterPlan(rs, _t_with_pairings(rs, (0.12, 0.09, 0.11, 0.1))).evaluate(lams)
    assert again.paths == got.paths
    assert calls == []


def test_log_characters_dimension_path_at_zero():
    rs = build_root_system("B2")
    got = CharacterPlan(rs, np.zeros(2)).evaluate([(0, 0), (2, 1)])
    assert got.paths == ("dimension", "dimension")
    assert np.exp(got.values).tolist() == pytest.approx([1, weyl_dimension(rs, (2, 1))], rel=1e-15)


def test_character_plan_refuses_a_t_of_the_wrong_length_and_an_unknown_method():
    rs = build_root_system("A2")
    with pytest.raises(DomainError, match="t must be 2 finite reals"):
        CharacterPlan(rs, [0.1])
    with pytest.raises(ValueError, match="unknown method 'x'"):
        CharacterPlan(rs, [0.1, 0.2]).evaluate([(1, 0)], method="x")



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


# simple-root pairings of a session-like F4 (0, 0, 0, 1)^5 scan: every row's float
# bound misses the budget, by a factor of 2 or more
F4_EXTENDED_CASES = {
    "wall": (0.41, 0.47, 0.0, 0.44),
    "small": (0.43, 0.08, 0.46, 0.42),
    "regular": (0.41, 0.45, 0.48, 0.43),
}


@pytest.fixture(scope="module")
def f4_rows():
    rs = build_root_system("F4")
    return rs, [lam for lam, _ in tensor_power_decompose(rs, [((0, 0, 0, 1), 5)]).sorted_entries()]


# simple-root pairings of the five F4 measures of the benchmark's session-t-sweep at seed 0
F4_SESSION_CASES = {
    "session-wall-1": (0.411, 0.0, 0.471, 0.455),
    "session-wall-2": (0.496, 0.46, 0.459, 0.0),
    "session-small-1": (0.142, 0.424, 0.418, 0.482),
    "session-small-2": (0.466, 0.189, 0.409, 0.476),
    "session-regular": (0.484, 0.49, 0.492, 0.454),
}


@pytest.mark.parametrize("pairings", [*F4_EXTENDED_CASES.values(), *F4_SESSION_CASES.values()],
                         ids=[*F4_EXTENDED_CASES, *F4_SESSION_CASES])
def test_f4_rows_take_the_long_double_coset_sum(monkeypatch, f4_rows, pairings):
    if not charalg._EPS_EXT < charalg._EPS:
        pytest.skip("long double is no wider than float here")
    rs, lams = f4_rows
    t = _t_with_pairings(rs, pairings)
    calls = []
    monkeypatch.setattr(charalg, "_freudenthal", lambda spec, todo: calls.append(todo))
    got = CharacterPlan(rs, t).evaluate(lams)
    monkeypatch.undo()
    assert calls == []
    assert got.paths == ("weyl-extended",) * len(lams)
    for value, bound, lam in zip(got.values, got.bounds, lams):
        assert bound <= CHARACTER_BUDGET
        assert abs(value - _exact_log_character(rs, lam, t)) <= bound


def test_f4_mixed_rows_recompute_few_terms_in_long_double(monkeypatch, f4_rows):
    # the float pass's values stand for every term but the wide ones, which alone are recomputed
    if not charalg._EPS_EXT < charalg._EPS:
        pytest.skip("long double is no wider than float here")
    rs, lams = f4_rows
    wide, block = [], 0
    terms_at = charalg._coset_terms_at
    monkeypatch.setattr(charalg, "_coset_terms_at", lambda par, q, shifted, cols: wide.append(len(cols))
                        or terms_at(par, q, shifted, cols))
    for pairings in F4_EXTENDED_CASES.values():
        plan = CharacterPlan(rs, _t_with_pairings(rs, pairings))
        assert plan.evaluate(lams).paths == ("weyl-extended",) * len(lams)
        block += len(lams) * len(plan._cosets.par.sign)
    assert len(wide) == 3 and min(wide) >= len(lams)  # at least the identity term of every row
    assert sum(wide) < block / 4


def test_coset_terms_at_pairs_match_a_long_double_block(f4_rows):
    # every (row, coset) pair of an F4 wall block against the whole block formed by matmuls in long double
    rs, lams = f4_rows
    plan = CharacterPlan(rs, _t_with_pairings(rs, F4_EXTENDED_CASES["wall"]))
    par = plan._cosets.par
    q = par.qmat.astype(np.longdouble) @ plan._cosets.pair.astype(np.longdouble)
    shifted = np.array(lams, dtype=float) + 1.0
    rows, cols = np.divmod(np.arange(len(lams) * len(par.sign)), len(par.sign))
    got = charalg._coset_terms_at(par, q, shifted[rows], cols).reshape(len(lams), -1)
    lam_ld = shifted.astype(np.longdouble)
    x = lam_ld @ q.T
    ref = np.exp(-x)
    for poly in par.poly:
        a = lam_ld @ poly.T.astype(np.longdouble)
        ref *= a / a[:, :1]
    assert got.dtype == np.longdouble
    assert np.all(np.abs(got - ref) <= 8 * charalg._EPS_EXT * (1 + x) * np.abs(ref))


@pytest.mark.parametrize("kind", sorted(F4_EXTENDED_CASES))
def test_f4_rows_fall_back_to_the_weight_sum_without_long_double(monkeypatch, f4_rows, kind):
    # where long double is no wider than float the tier is skipped and the rows take the weight sum
    rs, lams = f4_rows
    t = _t_with_pairings(rs, F4_EXTENDED_CASES[kind])
    monkeypatch.setattr(charalg, "_EPS_EXT", charalg._EPS)
    got = CharacterPlan(rs, t).evaluate(lams)
    ref = CharacterPlan(rs, t).evaluate(lams, method="weight-sum")
    assert got.paths == ("weight-sum",) * len(lams)
    assert np.all(got.bounds > CHARACTER_BUDGET)
    assert got.values.tobytes() == ref.values.tobytes()


# the path of every row of the two cases below, as pinned when the long-double tier came in
FLOAT_BITS_PATHS = {
    "B3": "xxwwxxwxwwxwwwxxwwxwwxwwwxwwxwwwwwwxwwwwwwxwwwwwwwwwwwwwwwwww",
    "G2": "xxxxxwwwwxxxwwwwxwwwwwwww",
}


@pytest.mark.parametrize(
    "algebra, factor, pairings",
    [("B3", ((1, 0, 0), 10), (0.45, 0.1, 0.45)), ("G2", ((0, 1), 8), (0.2, 0.1))],
)
def test_float_rows_keep_their_bits_with_the_extended_tier(monkeypatch, algebra, factor, pairings):
    rs = build_root_system(algebra)
    lams = [lam for lam, _ in tensor_power_decompose(rs, [factor]).sorted_entries()]
    t = _t_with_pairings(rs, pairings)
    got = CharacterPlan(rs, t).evaluate(lams)
    monkeypatch.setattr(charalg, "_EPS_EXT", charalg._EPS)
    off = CharacterPlan(rs, t).evaluate(lams)
    if charalg._EPS_EXT < charalg._EPS:
        assert _path_codes(got.paths) == FLOAT_BITS_PATHS[algebra]
    assert set(off.paths) == {"weyl", "weight-sum"}
    for path, value, bound, value_off, bound_off, path_off in zip(
        got.paths, got.values, got.bounds, off.values, off.bounds, off.paths
    ):
        assert (path == "weyl") == (path_off == "weyl")
        if path == "weyl":
            assert value.tobytes() == value_off.tobytes()
            assert bound.tobytes() == bound_off.tobytes()
        else:
            assert bound < bound_off  # the extended bound is the tighter one


# SHA-256 of values, bounds and paths of evaluate at the F4_EXTENDED_CASES and the
# FLOAT_BITS_PATHS cases, as recorded before the mixed tier moved out of CharacterPlan
EVALUATE_DIGESTS = {
    "F4-wall": "d08f41b36808388ef32f4cf9e3e035f5499a4fd6f83243bd4653cccfe1350933",
    "F4-small": "e3087cf8984f5a9443334a4540f53783c71387eef6b2c5a11065389bbdf25a81",
    "F4-regular": "81a38f819e1ca5464023f46401d9cd8e0ea9a6a40b2a20ad5838a3a2002d3e66",
    "B3": "d7b2c1437e10dbb1d09ea20c87708e4763ef55d3427069fca911d5f68a516688",
    "G2": "36e1a02dc3e16b7907c133f0f93359a7d59de25c217d5a4a07df921214da4127",
}
EVALUATE_PIN_CASES = {
    **{f"F4-{kind}": ("F4", ((0, 0, 0, 1), 5), pairings) for kind, pairings in F4_EXTENDED_CASES.items()},
    "B3": ("B3", ((1, 0, 0), 10), (0.45, 0.1, 0.45)),
    "G2": ("G2", ((0, 1), 8), (0.2, 0.1)),
}


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="long-double bits differ without the x87 format")
@pytest.mark.parametrize("case", sorted(EVALUATE_DIGESTS))
def test_evaluate_bits_are_pinned(case):
    algebra, factor, pairings = EVALUATE_PIN_CASES[case]
    rs = build_root_system(algebra)
    lams = [lam for lam, _ in tensor_power_decompose(rs, [factor]).sorted_entries()]
    got = CharacterPlan(rs, _t_with_pairings(rs, pairings)).evaluate(lams)
    digest = hashlib.sha256(got.values.tobytes() + got.bounds.tobytes() + ",".join(got.paths).encode())
    assert digest.hexdigest() == EVALUATE_DIGESTS[case]


def test_pairwise_sums_stay_within_their_depth_bound():
    # ceil(log2 width) levels, each rounding by at most eps relative to the magnitudes below it
    rng = np.random.default_rng(3)
    for width in [1, 2, 3, 5, 8, 1152]:
        a = rng.standard_normal((4, width)) * np.exp(rng.uniform(-20, 20, (4, width)))
        depth = (width - 1).bit_length()
        for row, total in zip(a, charalg._pairwise_sums(a).tolist()):
            assert abs(total - math.fsum(row.tolist())) <= depth * charalg._EPS * float(np.sum(np.abs(row)))
        # trailing zero columns change no sum, so a mixed row's sum does not depend on its batch's width
        sums = {charalg._pairwise_sums(np.pad(a, ((0, 0), (0, extra)))).tobytes() for extra in (0, 1, 3, 17)}
        assert len(sums) == 1


def test_coset_matrices_are_integral():
    for algebra in ["A3", "B3", "C3", "G2", "F4"]:
        rs = build_root_system(algebra)
        for wall in itertools.product([False, True], repeat=rs.rank):
            if all(wall):
                continue
            qmat = charalg._parabolic(rs.spec, wall).qmat
            assert np.all(qmat == np.round(qmat)) and np.all(qmat >= 0)


def test_batched_dimensions_match_one_row_calls():
    for algebra, rep, power in [("A2", (1, 1), 6), ("G2", (1, 0), 6), ("E6", (1, 0, 0, 0, 0, 0), 3)]:
        rs = build_root_system(algebra)
        lams = list(tensor_power_decompose(rs, [(rep, power)]).entries)
        assert charalg._weyl_dimensions(rs, lams) == [weyl_dimension(rs, lam) for lam in lams]
    rs = build_root_system("A2")
    assert charalg._weyl_dimensions(rs, []) == []
    big = 2**62
    assert charalg._weyl_dimensions(rs, [(big, 0)]) == [(big + 1) * (big + 2) // 2]
    for bad in [[(1, -1)], [(1, 0, 0)], [(1.5, 0)], [(2**63, 0)], [(1, 0), (1, 0, 0)]]:
        with pytest.raises(DomainError):
            charalg._weyl_dimensions(rs, bad)
