"""Multiplicative random walk on dominant weights: kernel, evolution, sampling."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorstat import (
    CharacterPlan,
    DomainError,
    TransitionKernel,
    build_root_system,
    character_measure,
    evolve_exact,
    markov,
    sample_paths,
    tensor_power_decompose,
    trajectories_to_jsonl,
    weight_multiplicities,
    weyl_dimension,
)


def test_kernel_row_oracles_t_zero(a1):
    # M(lam -> mu) = b * dim(mu) / (dim(lam) dim(V)), exact at t = 0
    row = TransitionKernel(a1, (1,), None).row((1,))
    assert dict(row.targets) == {(0,): 0.25, (2,): 0.75}
    row2 = TransitionKernel(a1, (1,), None).row((2,))
    assert dict(row2.targets) == {(1,): float(Fraction(1, 3)), (3,): float(Fraction(2, 3))}
    assert row2.probability((3,)) == float(Fraction(2, 3))
    assert row2.probability((7,)) == 0.0


def test_kernel_row_from_origin(a1, a2):
    assert dict(TransitionKernel(a1, (1,), None).row((0,)).targets) == {(1,): 1.0}
    assert dict(TransitionKernel(a2, (1, 0), None).row((0, 0)).targets) == {(1, 0): 1.0}


def test_kernel_row_regular_t_closed_form(a1):
    # M([1] -> [2]) = chi_2(t) / chi_1(t)^2 at e^t, complement to [0]
    t = 0.5
    row = TransitionKernel(a1, (1,), np.array([t])).row((1,))
    p2 = (1 + 2 * math.cosh(2 * t)) / (2 * math.cosh(t)) ** 2
    assert row.probability((2,)) == pytest.approx(p2, rel=1e-12)
    assert row.probability((0,)) == pytest.approx(1 - p2, rel=1e-12)


def test_kernel_rows_are_stochastic(a2, b2):
    for rs, rep in [(a2, (1, 1)), (b2, (0, 1))]:
        kernel = TransitionKernel(rs, rep, np.array([0.3, 0.2]))
        for source in [(0,) * rs.rank, (1, 0), (2, 1)]:
            row = kernel.row(source)
            assert sum(p for _, p in row.targets) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for _, p in row.targets)
            assert all(rs.is_dominant(mu) for mu, _ in row.targets)


def test_kernel_rejects_bad_input(a1):
    with pytest.raises(DomainError):
        TransitionKernel(a1, (-1,), None)
    with pytest.raises(DomainError):
        TransitionKernel(a1, (1,), None).row((-2,))


def test_deep_chamber_row_is_weight_translation(a2):
    # far from the walls every Klimyk shift survives: targets lam + wt(V)
    rep = (1, 0)
    ws = weight_multiplicities(a2, rep)
    lam = (7, 9)
    row = TransitionKernel(a2, rep, None).row(lam)
    expected = {tuple(l + int(m) for l, m in zip(lam, mu)) for mu in ws.multiplicities}
    assert {mu for mu, _ in row.targets} == expected


@given(extra=st.tuples(st.integers(5, 12), st.integers(5, 12)))
def test_deep_chamber_row_hypothesis(extra):
    from tensorstat import AlgebraSpec, build_root_system

    rs = build_root_system(AlgebraSpec.parse("B2"))
    rep = (1, 0)
    ws = weight_multiplicities(rs, rep)
    row = TransitionKernel(rs, rep, None).row(extra)
    expected = {tuple(l + int(m) for l, m in zip(extra, mu)) for mu in ws.multiplicities}
    assert {mu for mu, _ in row.targets} == expected
    assert sum(p for _, p in row.targets) == pytest.approx(1.0, abs=1e-12)


def test_evolve_exact_zero_steps(a1):
    m = evolve_exact(a1, (1,), None, 0)
    assert m.probabilities() == {(0,): 1.0}


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_epsilon_is_checked_at_every_step_count(a1, steps, epsilon):
    with pytest.raises(DomainError):
        evolve_exact(a1, (1,), None, steps, epsilon=epsilon)
    with pytest.raises(DomainError):
        sample_paths(a1, (1,), None, steps, 3, 0, epsilon=epsilon)


def test_evolve_exact_matches_decomposition(a1):
    m = evolve_exact(a1, (1,), None, 4)
    assert m.probabilities() == pytest.approx({(4,): 5 / 16, (2,): 9 / 16, (0,): 2 / 16})


@pytest.mark.parametrize("t", [None, np.array([0.35])])
def test_evolve_exact_telescopes_to_character_measure(a1, t):
    n = 9
    table = tensor_power_decompose(a1, [((1,), n)])
    direct = character_measure(table, t=t)
    walked = evolve_exact(a1, (1,), t, n)
    dp = direct.probabilities()
    wp = walked.probabilities()
    assert set(dp) == set(wp)
    for lam in dp:
        assert wp[lam] == pytest.approx(dp[lam], abs=1e-13)


def test_evolve_exact_rejects_negative_steps(a1):
    with pytest.raises(DomainError):
        evolve_exact(a1, (1,), None, -1)


@pytest.mark.parametrize(
    "case, digest",
    [
        (
            ("A2", (1, 0), np.array([0.1, 0.2]), 12, 600, 424242),
            "cb70dd94976d76e3d6443cdabd299044bf7b788e3301688f10920f4e2c6beb6e",
        ),
        (
            ("B2", (0, 1), None, 9, 300, 3),
            "e79f7eaa69cac6e28160a257b3cc20e9e7f4c9549ff8e73412ef0643251cd51f",
        ),
    ],
    ids=["A2-regular-t", "B2-t-zero"],
)
def test_sample_paths_trajectory_bytes_are_pinned(case, digest):
    # the (seed, chain) contract: a seed fixes the trajectory bytes across versions
    algebra, rep, t, n, chains, seed = case
    _, paths = sample_paths(build_root_system(algebra), rep, t, N=n, chains=chains, seed=seed)
    assert hashlib.sha256(trajectories_to_jsonl(paths).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, chains, n",
    [(0, 1, 1), (3, 9, 9), (2**63, 13, 13), (7, 50, 100), (1, 8192, 30), (2**64 - 1, 5, 7), (5, 3, 0)],
)
def test_philox_uniforms_match_numpy_streams(seed, chains, n):
    # chain c's stream is NumPy's Philox keyed (seed, c), bit for bit
    expected = np.array(
        [
            np.random.Generator(np.random.Philox(key=np.array([seed, c], dtype=np.uint64))).random(n)
            for c in range(chains)
        ]
    ).reshape(chains, n)
    assert np.array_equal(markov._philox_uniforms(seed, 0, chains, n), expected)


def test_sample_paths_bytes_do_not_depend_on_block_size(a2, monkeypatch):
    kwargs = dict(t=np.array([0.1, 0.2]), N=9, chains=40, seed=2**64 - 1)
    whole = trajectories_to_jsonl(sample_paths(a2, (1, 0), **kwargs)[1])
    monkeypatch.setattr(markov, "_BLOCK", 7)
    blocked = trajectories_to_jsonl(sample_paths(a2, (1, 0), **kwargs)[1])
    assert blocked == whole


def test_evolve_exact_keeps_states_whose_mass_underflows(a1):
    # at t = 800 every path that ends at (1,) has a probability that underflows to 0.0
    walked = evolve_exact(a1, (1,), [800.0], 3).probabilities()
    direct = character_measure(tensor_power_decompose(a1, [((1,), 3)]), t=[800.0]).probabilities()
    assert walked == direct == {(1,): 0.0, (3,): 1.0}


def test_kernel_evaluates_characters_once_per_step(a2, monkeypatch):
    # the characters of the sources and targets of every row a step builds
    # go to CharacterPlan.evaluate in one batch
    calls = []
    evaluate = CharacterPlan.evaluate

    def counted(self, lams, method="auto"):
        calls.append(len(lams))
        return evaluate(self, lams, method)

    monkeypatch.setattr(CharacterPlan, "evaluate", counted)
    t, n = np.array([0.3, 0.1]), 12
    evolve_exact(a2, (1, 0), t, n)
    assert len(calls) <= 1 + n  # chi_V, then at most one batch per step
    calls.clear()
    sample_paths(a2, (1, 0), t, n, 500, seed=3, keep_paths=False)
    assert len(calls) <= 1 + n


def test_sample_paths_seed_sensitivity(a1):
    m1, _ = sample_paths(a1, (1,), None, 6, 400, seed=1)
    m2, _ = sample_paths(a1, (1,), None, 6, 400, seed=2)
    assert m1.probabilities() != m2.probabilities()


def test_sample_paths_concentrates(a1):
    # 20k chains: empirical law within a few percent of the exact one
    m, paths = sample_paths(a1, (1,), None, 10, 20_000, seed=7, keep_paths=False)
    assert paths == ()
    exact = evolve_exact(a1, (1,), None, 10).probabilities()
    for lam, p in exact.items():
        assert m.probabilities().get(lam, 0.0) == pytest.approx(p, abs=0.02)


def test_trajectory_jsonl_format(a1):
    _, paths = sample_paths(a1, (1,), None, 3, 2, seed=5)
    text = trajectories_to_jsonl(paths)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    for chain, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["seed"] == 5
        assert rec["chain"] == chain
        steps = rec["steps"]
        assert len(steps) == 4  # includes the starting point at the origin
        assert steps[0] == [0]
        # consecutive steps differ by a weight of V
        for a, b in zip(steps, steps[1:]):
            assert tuple(b[i] - a[i] for i in range(1)) in weight_multiplicities(
                a1, (1,)
            ).multiplicities


def test_trajectories_to_jsonl_matches_per_trajectory_encoding(b2):
    # 2500 lines cross the writer's 1024-line batches
    _, paths = sample_paths(b2, (0, 1), np.array([0.3, 0.2]), 4, 2500, seed=9)
    assert trajectories_to_jsonl(paths) == "\n".join(tr.to_jsonl() for tr in paths) + "\n"
    assert trajectories_to_jsonl(()) == "\n"


def test_single_chain_single_step(a1):
    m, paths = sample_paths(a1, (1,), None, 1, 1, seed=0)
    assert m.probabilities() == {(1,): 1.0}
    assert paths[0].steps == ((0,), (1,))


def test_sampled_mass_and_dimension_consistency(b2):
    m, _ = sample_paths(b2, (0, 1), None, 5, 1000, seed=3, keep_paths=False)
    assert sum(m.probabilities().values()) == pytest.approx(1.0, abs=1e-12)
    exact = evolve_exact(b2, (0, 1), None, 5)
    assert set(m.probabilities()) <= set(exact.probabilities())
    # every sampled state is a genuine summand of V^{otimes 5}
    table = tensor_power_decompose(b2, [((0, 1), 5)])
    for lam in m.probabilities():
        assert lam in table.entries
        assert weyl_dimension(b2, lam) >= 1
