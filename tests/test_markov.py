"""Multiplicative random walk on dominant weights: kernel, evolution, sampling."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorstat import (
    CharacterPlan,
    DomainError,
    TransitionKernel,
    build_root_system,
    character_measure,
    charalg,
    evolve_exact,
    klimyk_tensor_step,
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
            assert all(min(mu) >= 0 for mu, _ in row.targets)


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
    "call",
    [
        lambda rs: evolve_exact(rs, (1, 0), None, 2.5),
        lambda rs: sample_paths(rs, (1, 0), None, 2.5, 5, 0),
        lambda rs: sample_paths(rs, (1, 0), None, 6, 2.5, 0),
        lambda rs: sample_paths(rs, (1, 0), None, 6, 5, seed=0.5),
    ],
    ids=["evolve_steps", "sample_steps", "sample_chains", "sample_seed"],
)
def test_fractional_steps_chains_and_seeds_are_domain_errors(a2, call):
    # steps and chains once raised a bare TypeError; seed 0.5 ran silently
    # on a stream unlike seed 0's
    with pytest.raises(DomainError, match="must be integers"):
        call(a2)


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
    [
        (0, 1, 1), (3, 9, 9), (2**63, 13, 13), (7, 50, 100), (1, 8192, 30), (2**64 - 1, 5, 7), (5, 3, 0),
        pytest.param(2**64 - 1, range(5, 12), 7, id="offset"),
        # 300 chains x 30 counter blocks cross the 8192-word pass: 27 blocks, then 3
        pytest.param(11, range(100, 400), 118, id="offset-two-passes"),
        pytest.param(2**63 + 5, range(8000, 8003), 10925, id="offset-deep-counters"),
    ],
)
def test_philox_uniforms_match_numpy_streams(seed, chains, n):
    # chain c's stream is NumPy's Philox keyed (seed, c), bit for bit; an int
    # counts chains from 0, a range names them
    chains = range(chains) if isinstance(chains, int) else chains
    expected = np.array(
        [
            np.random.Generator(np.random.Philox(key=np.array([seed, c], dtype=np.uint64))).random(n)
            for c in chains
        ]
    ).reshape(len(chains), n)
    assert np.array_equal(markov._philox_uniforms(seed, chains.start, chains.stop, n), expected)


def test_sample_paths_bytes_do_not_depend_on_block_size(a2, monkeypatch):
    kwargs = dict(t=np.array([0.1, 0.2]), N=9, chains=40, seed=2**64 - 1)
    whole = trajectories_to_jsonl(sample_paths(a2, (1, 0), **kwargs)[1])
    monkeypatch.setattr(markov, "_BLOCK", 7)
    blocked = trajectories_to_jsonl(sample_paths(a2, (1, 0), **kwargs)[1])
    assert blocked == whole


def test_rows_built_while_sampling_match_rows_built_first(a2, monkeypatch):
    # a fresh kernel builds rows inside the step loop; after _evolve every row
    # exists and sampling builds none
    t, n, chains, seed = np.array([0.3, 0.1]), 12, 300, 5
    monkeypatch.setattr(markov, "_BLOCK", 128)
    lazy, trajectories = sample_paths(a2, (1, 0), t, n, chains, seed)
    kernel = TransitionKernel(a2, (1, 0), t)
    markov._evolve(kernel, n)
    built = []
    monkeypatch.setattr(TransitionKernel, "_build_row", lambda self, sids: built.append(sids))
    blocks = []
    counts = markov._sample(kernel, n, chains, seed, lambda lo, paths: blocks.append(paths))
    assert not built
    ends = np.flatnonzero(counts)
    assert dict(zip(map(kernel.state, ends.tolist()), (counts[ends] / chains).tolist())) == lazy.probabilities()
    paths = [tuple(map(kernel.state, path)) for block in blocks for path in block.tolist()]
    assert paths == [tr.steps for tr in trajectories]


def test_evolve_exact_keeps_states_whose_mass_underflows(a1):
    # at t = 800 every path that ends at (1,) has a probability that underflows to 0.0
    walked = evolve_exact(a1, (1,), [800.0], 3).probabilities()
    direct = character_measure(tensor_power_decompose(a1, [((1,), 3)]), t=[800.0]).probabilities()
    assert walked == direct == {(1,): 0.0, (3,): 1.0}


@pytest.mark.parametrize(
    "name, rep, t",
    [
        ("A2", (1, 0), (1e25, 1e25)),
        ("A2", (1, 0), (1.0000000000000001e23, 1.0000000000000001e23)),
        ("G2", (1, 0), (1090000000000.0002, 1890000000000.0005)),
    ],
)
def test_kernel_rows_at_a_huge_t_cancel_their_common_rounding(name, rep, t):
    # log chi_lambda + log chi_V round alike for a whole row; the row sums read inf, 0.0 and
    # 1.0001220777633837 (InternalConsistencyError) before the row was normalized in logs
    rs = build_root_system(name)
    walked = evolve_exact(rs, rep, t, 4).probabilities()
    direct = character_measure(tensor_power_decompose(rs, [(rep, 4)]), t=t).probabilities()
    assert set(walked) == set(direct)
    assert max(abs(walked[lam] - direct[lam]) for lam in direct) <= 1e-12


def _row_by_loop(kernel, lam):
    """One kernel row as a per-row loop builds it: targets, then probabilities as floats."""
    rs, branches = kernel.rs, klimyk_tensor_step(kernel.rs, {lam: 1}, kernel.rep)
    targets = sorted(branches)
    if kernel.t is None:
        denom = weyl_dimension(rs, lam) * weyl_dimension(rs, kernel.rep)
        return targets, np.array([float(Fraction(branches[mu] * weyl_dimension(rs, mu), denom)) for mu in targets])
    log_chi = kernel._log_chi
    probs = np.exp([math.log(branches[mu]) + log_chi[mu] - log_chi[lam] - kernel._log_chi_v for mu in targets])
    return targets, probs / float(probs.sum())


@pytest.mark.parametrize("t", [None, (0.3, 0.2)], ids=["t-zero", "regular-t"])
@pytest.mark.parametrize("rep", [(1, 0), (0, 1)], ids=["1,0", "0,1"])
def test_kernel_rows_of_one_batch_match_rows_built_alone(rep, t):
    # G2 (1,0) has rows of 1 to 13 targets, (0,1) of 1 to 7; a batch groups its
    # row sums by length, and each row must still get the bits it gets alone
    g2 = build_root_system("G2")
    batch = TransitionKernel(g2, rep, t)
    markov._evolve(batch, 6)
    built = np.flatnonzero(batch._targets[:, 0] >= 0)
    alone = TransitionKernel(g2, rep, t)
    for lam in batch._states:
        alone.state_id(lam)
    for sid in built.tolist():
        alone._build_row(np.array([sid]))
    widths = np.count_nonzero(batch._targets[built] >= 0, axis=1)
    assert (widths.min(), widths.max()) == (1, batch._targets.shape[1])
    for name in ("_targets", "_probs", "_cdf"):
        assert getattr(batch, name).tobytes() == getattr(alone, name).tobytes(), name
    for sid, n in zip(built.tolist(), widths.tolist()):
        targets, probs = _row_by_loop(batch, batch.state(sid))
        assert [batch.state(i) for i in batch._targets[sid, :n].tolist()] == targets
        assert batch._probs[sid, :n].tobytes() == probs.tobytes()
        assert batch._cdf[sid, : n - 1].tobytes() == np.cumsum(probs)[:-1].tobytes()


def test_kernel_evaluates_characters_once_per_step(a2, monkeypatch):
    # the characters of the sources and targets of every row a build makes
    # go to CharacterPlan.evaluate in one batch
    calls = []
    evaluate = CharacterPlan.evaluate

    def counted(self, lams, method="auto"):
        calls.append(len(lams))
        return evaluate(self, lams, method)

    monkeypatch.setattr(CharacterPlan, "evaluate", counted)
    t, n = np.array([0.3, 0.1]), 12
    evolve_exact(a2, (1, 0), t, n)
    assert len(calls) == 2  # chi_V, then one batch for the rows of every level
    calls.clear()
    sample_paths(a2, (1, 0), t, n, 500, seed=3, keep_paths=False)
    assert len(calls) <= 1 + n  # a fresh kernel builds lazily: at most one batch per step


def _build_level_by_level(kernel, n):
    """The rows _evolve reads for n steps, one _build_row call per level."""
    sids = np.array([kernel.state_id((0,) * kernel.rs.rank)])
    for _ in range(n):
        kernel._build_row(sids)
        targets = kernel._targets[sids]
        sids = np.flatnonzero(np.bincount(targets[targets >= 0]))


@pytest.mark.parametrize("t", [None, "wall", "regular"])
@pytest.mark.parametrize("name, rep, n", [("A2", (1, 0), 14), ("B2", (0, 1), 12), ("G2", (1, 0), 8)])
def test_batched_build_matches_level_by_level(name, rep, n, t):
    rs = build_root_system(name)
    t = {None: None, "wall": np.linalg.solve(rs.B_f, [0.0, 0.4]), "regular": np.array([0.3, 0.1])}[t]
    batch, levels = TransitionKernel(rs, rep, t), TransitionKernel(rs, rep, t)
    batch._build_to_depth(n)
    _build_level_by_level(levels, n)
    assert batch._states == levels._states
    for table in ("_targets", "_probs", "_cdf"):
        assert getattr(batch, table).tobytes() == getattr(levels, table).tobytes(), table
    batch._build_to_depth(n - 1)
    assert (batch._depth, levels._depth) == (n, 0)


_PROPERTY_REPS = {"A1": [(1,), (2,)], "A2": [(1, 0), (0, 1)], "B2": [(1, 0), (0, 1)], "G2": [(1, 0), (0, 1)]}


@st.composite
def _walks(draw):
    name = draw(st.sampled_from(sorted(_PROPERTY_REPS)))
    rs = build_root_system(name)
    rep = draw(st.sampled_from(_PROPERTY_REPS[name]))
    kind = draw(st.sampled_from(["zero", "wall", "small-regular", "regular"]))
    scale = {"zero": 0.0, "wall": 1.0, "small-regular": 1e-3, "regular": 1.0}[kind]
    pairings = [draw(st.floats(0.05, 1.0)) * scale for _ in range(rs.rank)]
    if kind == "wall":
        pairings[draw(st.integers(0, rs.rank - 1))] = 0.0
    t = None if kind == "zero" else np.linalg.solve(rs.B_f, pairings)
    return rs, rep, t, draw(st.integers(1, 8))


@settings(max_examples=50)
@given(walk=_walks())
def test_evolve_exact_is_the_character_measure(walk):
    rs, rep, t, n = walk
    walked = evolve_exact(rs, rep, t, n).probabilities()
    direct = character_measure(tensor_power_decompose(rs, [(rep, n)]), t=t).probabilities()
    assert set(walked) == set(direct)
    assert max(abs(walked[lam] - direct[lam]) for lam in direct) <= 1e-12
    kernel = TransitionKernel(rs, rep, t)
    markov._evolve(kernel, n)
    rows = kernel._probs[kernel._targets[:, 0] >= 0]
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)


def test_sample_paths_builds_only_the_rows_its_chains_reach(a2, monkeypatch):
    # a fresh kernel stays lazy: three chains of 200 steps fold at most 600 sources,
    # where building to depth 200 would fold every state within 199 steps
    folded = []
    fold = charalg.Branching.fold

    def counting(self, keys, values, by_source=False):
        folded.append(len(keys))
        return fold(self, keys, values, by_source)

    monkeypatch.setattr(charalg.Branching, "fold", counting)
    sample_paths(a2, (1, 0), (0.3, 0.1), 200, 3, seed=4, keep_paths=False)
    assert 200 <= sum(folded) <= 3 * 200


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
