"""Command line surface: subcommands, formats, exit codes, cache behavior."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    build_root_system,
    character_measure,
    evolve_exact,
    sample_paths,
    tensor_power_decompose,
    trajectories_to_jsonl,
    weak_convergence_distance,
)
from tensorstat import charalg, cli, markov, measures
from tensorstat.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_decompose_json_payload(capsys):
    code, out = run_cli(
        capsys, "decompose", "--algebra", "A1", "--rep", "1", "--power", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "A1"
    entries = {tuple(w): int(m) for w, m in payload["entries"]}
    assert entries == {(4,): 1, (2,): 3, (0,): 2}


def test_decompose_csv_format(capsys):
    code, out = run_cli(
        capsys,
        "decompose", "--algebra", "A2", "--rep", "1,0", "--power", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[-1] == "multiplicity" or "multiplicity" in lines[0]
    assert len(lines) == 3  # header + (2,0) + (0,1)


def test_decompose_multiple_factors(capsys):
    code, out = run_cli(
        capsys,
        "decompose", "--algebra", "A1",
        "--rep", "1", "--power", "2",
        "--rep", "2", "--power", "1",
    )
    assert code == 0
    payload = json.loads(out)
    total = sum(int(m) * (w[0] + 1) for w, m in payload["entries"])
    assert total == 2 * 2 * 3  # dimension identity for A1 factors


def test_measure_csv_rows(capsys):
    code, out = run_cli(
        capsys, "measure", "--algebra", "A1", "--rep", "1", "--power", "2", "--t", "0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lambda_1")
    rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
    assert rows["0"] == pytest.approx(0.25)
    assert rows["2"] == pytest.approx(0.75)


def test_measure_json_handles_nan(capsys):
    code, out = run_cli(
        capsys,
        "measure", "--algebra", "A1", "--rep", "1", "--power", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # nan rows must serialize as null
    assert {tuple(r["weight"]) for r in payload["rows"]} == {(3,), (1,)}
    for r in payload["rows"]:
        v = r["asymptotic_log_probability"]
        assert v is None or isinstance(v, float)


def test_measure_weight_basis_t(capsys):
    # weight-basis coordinates are converted through the inverse Cartan matrix
    code_r, out_r = run_cli(
        capsys, "measure", "--algebra", "A1", "--rep", "1", "--power", "4",
        "--t", "0.5", "--t-basis", "root",
    )
    code_w, out_w = run_cli(
        capsys, "measure", "--algebra", "A1", "--rep", "1", "--power", "4",
        "--t", "1.0", "--t-basis", "weight",
    )
    assert code_r == code_w == 0
    assert out_r == out_w


def test_asymptotic_rate_point_json(capsys):
    code, out = run_cli(
        capsys,
        "asymptotic", "--algebra", "A1", "--rep", "1", "--power", "10",
        "--epsilon", "0.1", "--xi", "0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "A1"
    assert payload["S"] == pytest.approx(0.5004024235381879, rel=1e-10)
    assert payload["x"][0] == pytest.approx(math.atanh(0.6), rel=1e-10)


def test_asymptotic_per_weight_table(capsys):
    code, out = run_cli(
        capsys, "asymptotic", "--algebra", "A1", "--rep", "1", "--power", "12",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "multiplicity" in lines[0]
    assert len(lines) == 1 + 7  # weights 12, 10, ..., 0


def _check_limit_compare(capsys, algebra, rep, power, kind, t=None):
    """The CLI exits 0 on its own grid, covers the limit law, and agrees with the library."""
    argv = ["limit-compare", "--no-cache", "--algebra", algebra, "--rep", rep,
            "--power", str(power), "--kind", kind]
    if t is not None:
        argv += ["--t", t]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == kind
    assert payload["limit_mass_in_grid"] >= 1 - 1e-6
    rs = build_root_system(AlgebraSpec.parse(algebra))
    table = tensor_power_decompose(rs, [(tuple(int(c) for c in rep.split(",")), power)])
    t_vec = None if t is None else [float(v) for v in t.split(",")]
    m = character_measure(table, t=t_vec)
    library = weak_convergence_distance(m, kind)
    assert payload["tv"] == pytest.approx(library.tv, rel=1e-12)
    assert payload["cells"] == list(library.cells)
    return payload


def test_limit_compare_report(capsys):
    # the lattice-aligned grid: a lattice-blind one reported 0.44 here
    payload = _check_limit_compare(capsys, "A1", "1", 40, "plancherel")
    assert payload["tv"] == pytest.approx(0.0106, abs=5e-4)


@pytest.mark.parametrize(
    "algebra, rep, power, kind, t, tv",
    [
        ("A2", "1,0", 30, "plancherel", None, 0.1010),
        ("B2", "0,1", 30, "plancherel", None, 0.0515),
        ("G2", "1,0", 20, "plancherel", None, 0.0492),
        ("A2", "1,0", 30, "gaussian", "1,1", 0.2347),
        ("A2", "1,0", 30, "intermediate", "0.05,0.04", 0.1017),
        # t pairs to zero with alpha_2: the W/W0 coset sum of the wall
        ("A2", "1,0", 20, "intermediate", "1,0.5", 0.3312),
        # t pairs to zero with alpha_2: the Gaussian times (alpha_2, a)^2 on a
        # half space; the plain Gaussian read 0.52 here and grew with N
        ("A2", "1,0", 20, "gaussian", "1,0.5", 0.1513),
    ],
)
def test_limit_compare_rank2(capsys, algebra, rep, power, kind, t, tv):
    payload = _check_limit_compare(capsys, algebra, rep, power, kind, t)
    assert payload["tv"] == pytest.approx(tv, abs=5e-4)


def test_limit_compare_refuses_an_oversized_grid(capsys, monkeypatch):
    # the intermediate cover grows with |t|; its grid would take gigabytes
    def fail(*args, **kwargs):
        raise AssertionError("cell_integrals ran on an oversized grid")

    monkeypatch.setattr(measures, "cell_integrals", fail)
    code = main(["limit-compare", "--no-cache", "--algebra", "A2", "--rep", "1,0", "--power", "12",
                 "--t", "300,200", "--kind", "intermediate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: comparison grid") and captured.err.count("\n") == 1


def test_sample_reports_tv_against_exact(capsys, tmp_path):
    paths_file = tmp_path / "walks.jsonl"
    code, out = run_cli(
        capsys,
        "sample", "--algebra", "A1", "--rep", "1",
        "--steps", "5", "--chains", "500", "--seed", "9",
        "--paths", str(paths_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chains"] == 500
    assert payload["tv_empirical_vs_exact"] < 0.2
    lines = paths_file.read_text().strip().splitlines()
    assert len(lines) == 500
    rec = json.loads(lines[0])
    assert len(rec["steps"]) == 6


@pytest.mark.parametrize("block", [8192, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize(
    "algebra, rep, t, steps",
    [
        ("A2", (1, 0), None, 6),
        ("A2", (1, 0), (0.3, 0.1), 6),
        ("A2", (1, 0), (0.3, 0.1), 0),
        ("B2", (0, 1), None, 5),
        ("B2", (0, 1), (0.3, 0.2), 5),
        ("B2", (0, 1), None, 0),
    ],
)
def test_sample_paths_file_is_trajectories_to_jsonl(capsys, tmp_path, monkeypatch, algebra, rep, t, steps, block):
    # the CLI writes the file block by block from state ids, never through Trajectory objects
    monkeypatch.setattr(markov, "_BLOCK", block)
    paths_file = tmp_path / "walks.jsonl"
    argv = ["sample", "--algebra", algebra, "--rep", ",".join(map(str, rep)), "--steps", str(steps),
            "--chains", "40", "--seed", "11", "--paths", str(paths_file)]
    if t is not None:
        argv += ["--t", ",".join(map(repr, t))]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    _, trajectories = sample_paths(build_root_system(algebra), rep, t, steps, 40, 11)
    assert paths_file.read_bytes() == trajectories_to_jsonl(trajectories).encode()


def test_pde_check_grid(capsys):
    code, out = run_cli(
        capsys,
        "pde-check", "--algebra", "A1", "--rep", "1", "--power", "8", "--grid", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 5
    residuals = [float(ln.split(",")[-1]) for ln in data]
    assert max(residuals) < 1e-8
    assert lines[-1].startswith("#")


def test_hook_check(capsys):
    code, out = run_cli(capsys, "hook-check", "--max-power", "6")
    assert code == 0
    assert "0 mismatches" in out


def test_hook_check_output_file(capsys, tmp_path):
    _, stdout = run_cli(capsys, "hook-check", "--max-power", "3")
    target = tmp_path / "hooks.txt"
    code, out = run_cli(capsys, "hook-check", "--max-power", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == stdout == "hook-check: 17 multiplicities, 0 mismatches\n"


def test_selftest_output_file(capsys, tmp_path):
    target = tmp_path / "selftest.txt"
    code, out = run_cli(capsys, "selftest", "--criteria", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("PASS")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sample", "--rep", "1,0", "--rep", "0,1", "--steps", "5", "--chains", "10"], 2),
        # sample has no --power flag (its walk length is --steps): a usage error
        (["sample", "--rep", "1,0", "--power", "5", "--steps", "5", "--chains", "10"], 1),
        (["pde-check", "--rep", "1,0", "--rep", "0,1", "--grid", "2"], 2),
        (["pde-check", "--rep", "1,0", "--power", "4", "--power", "5", "--grid", "2"], 2),
    ],
    ids=["sample-two-reps", "sample-power", "pde-check-two-reps", "pde-check-two-powers"],
)
def test_extra_problem_arguments_are_domain_errors(capsys, argv, code):
    assert main([argv[0], "--algebra", "A2", *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--criteria", "14"],
        ["selftest", "--criteria", "x"],
        ["pde-check", "--algebra", "A1", "--rep", "1", "--grid", "0"],
        ["pde-check", "--algebra", "A1", "--rep", "1", "--grid", "-1"],
        ["hook-check", "--max-power", "-2"],
        ["measure", "--algebra", "A1", "--rep", "1", "--power", "4", "--epsilon", "inf"],
        # sample has no --epsilon flag: its report does not depend on a scale (usage errors, exit 1)
        ["sample", "--algebra", "A1", "--rep", "1", "--steps", "0", "--chains", "3", "--epsilon", "-1"],
        ["sample", "--algebra", "A1", "--rep", "1", "--steps", "0", "--chains", "3", "--epsilon", "inf"],
        # the Gaussian fluctuation law does not hold at t = 0
        ["limit-compare", "--algebra", "A1", "--rep", "1", "--power", "20", "--kind", "gaussian"],
        # Hess f(t) singular to float precision, refused before K and the grid are formed
        ["limit-compare", "--no-cache", "--algebra", "A1", "--rep", "1", "--power", "12", "--t", "20", "--kind", "gaussian"],
        ["limit-compare", "--no-cache", "--algebra", "A1", "--rep", "1", "--power", "12", "--t", "50", "--kind", "gaussian"],
        ["limit-compare", "--no-cache", "--algebra", "A2", "--rep", "1,1", "--power", "12", "--t", "300,200",
         "--kind", "gaussian"],
        ["limit-compare", "--no-cache", "--algebra", "A2", "--rep", "1,0", "--power", "12", "--t", "300,200",
         "--kind", "gaussian"],
        # past int64: refused by the weight validator, not an OverflowError from NumPy
        ["decompose", "--no-cache", "--algebra", "A1", "--rep", "99999999999999999999", "--power", "1"],
    ],
    ids=[
        "criteria-14", "criteria-x", "grid-0", "grid-negative", "max-power-negative",
        "epsilon-inf", "zero-steps-epsilon-negative", "zero-steps-epsilon-inf", "gaussian-without-t",
        "gaussian-a1-t20", "gaussian-a1-t50", "gaussian-a2-adjoint-t300", "gaussian-a2-vector-t300",
        "rep-past-int64",
    ],
)
def test_invalid_inputs_are_domain_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == (1 if argv[0] == "sample" else 2)
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_selftest_subset(capsys):
    code, out = run_cli(capsys, "selftest", "--criteria", "2,5")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("PASS")]
    assert len(lines) == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, out = run_cli(
        capsys,
        "decompose", "--algebra", "A1", "--rep", "1", "--power", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert {tuple(w): int(m) for w, m in payload["entries"]} == {(2,): 1, (0,): 1}


def test_usage_error_exit_code(capsys):
    assert main(["decompose", "--algebra", "A1"]) == 1  # --rep missing
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


# the flags of each command: those it reads, and no others
COMMAND_FLAGS = {
    "decompose": {"--algebra", "--rep", "--power", "--no-cache", "--format", "--output"},
    "measure": {"--algebra", "--rep", "--power", "--epsilon", "--no-cache", "--t", "--t-basis", "--format", "--output"},
    "asymptotic": {"--algebra", "--rep", "--power", "--epsilon", "--no-cache", "--xi", "--output"},
    "limit-compare": {
        "--algebra", "--rep", "--power", "--epsilon", "--no-cache", "--t", "--t-basis", "--kind", "--output",
    },
    "sample": {
        "--algebra", "--rep", "--t", "--t-basis", "--steps", "--chains", "--seed", "--threads", "--paths", "--output",
    },
    "pde-check": {"--algebra", "--rep", "--power", "--epsilon", "--grid", "--output"},
    "hook-check": {"--max-power", "--output"},
    "selftest": {"--criteria", "--output"},
}

# flags these commands once accepted and ignored or only validated
REMOVED_FLAGS = [
    *((command, "--format") for command in ("asymptotic", "limit-compare", "sample", "pde-check", "hook-check",
                                            "selftest")),
    ("decompose", "--epsilon"),
    ("sample", "--epsilon"),
    ("sample", "--no-cache"),
    ("pde-check", "--no-cache"),
    ("sample", "--power"),
]

# a call of each command that parses
VALID_ARGV = {
    "decompose": ["decompose", "--algebra", "A1", "--rep", "1", "--power", "2"],
    "asymptotic": ["asymptotic", "--algebra", "A1", "--rep", "1", "--power", "4"],
    "limit-compare": ["limit-compare", "--algebra", "A1", "--rep", "1", "--power", "8", "--kind", "plancherel"],
    "sample": ["sample", "--algebra", "A1", "--rep", "1", "--steps", "2", "--chains", "3"],
    "pde-check": ["pde-check", "--algebra", "A1", "--rep", "1", "--grid", "2"],
    "hook-check": ["hook-check", "--max-power", "2"],
    "selftest": ["selftest", "--criteria", "12"],
}


def _flag_argv(flag):
    """The flag with a value, unless it takes none."""
    return [flag] if cli._FLAGS[flag].get("action") == "store_true" else [flag, "1"]


def test_each_command_takes_only_the_flags_it_reads(cli_flags):
    assert cli_flags == COMMAND_FLAGS
    assert sum(map(len, cli_flags.values())) == 51
    for command, flag in REMOVED_FLAGS:
        assert flag not in cli_flags[command] and flag in cli._FLAGS


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(capsys, command, flag):
    argv = VALID_ARGV[command]
    build_parser().parse_args(argv)  # valid without the flag
    assert main([*argv, *_flag_argv(flag)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tensorstat: unrecognized arguments: {' '.join(_flag_argv(flag))}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-compare", "--algebra", "A2", "--rep", "1,0", "--power", "8", "--kind", "plancherel", "--format", "csv"],
        ["decompose", "--algebra", "A1"],
        ["no-such-command"],
        [],
    ],
    ids=["removed-flag", "missing-rep", "unknown-command", "no-command"],
)
def test_usage_errors_print_one_error_line(capsys, argv):
    # argparse's own report was a usage block and a "tensorstat: error:" line
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tensorstat") and captured.err.count("\n") == 1


def test_help_goes_to_stdout(capsys):
    assert main(["sample", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tensorstat sample") and "--steps" in captured.out
    assert captured.err == ""


# the reps the CLI property test draws, per algebra
_PROPERTY_REPS = {"A1": ["1", "2"], "A2": ["1,0", "0,1"], "B2": ["1,0", "0,1"], "G2": ["1,0", "0,1"],
                  "E6": ["1,0,0,0,0,0"]}


@st.composite
def _cli_calls(draw):
    """(argv, whether it carries a flag of another command, (root system, rep, N, t, chains, seed))."""
    command = draw(st.sampled_from(["measure", "sample"]))
    algebra = draw(st.sampled_from(sorted(_PROPERTY_REPS)))
    rs = build_root_system(algebra)
    rep = draw(st.sampled_from(_PROPERTY_REPS[algebra]))
    n = draw(st.integers(0 if command == "sample" else 1, 3 if algebra == "E6" else 8))
    # the scale of t's pairings with the simple roots
    kind = draw(st.sampled_from(["zero", "wall", "tiny", "regular", "huge"]))
    scale = {"zero": 0.0, "tiny": 1e-9, "huge": 10.0 ** draw(st.integers(2, 300))}.get(kind, 1.0)
    pairings = [draw(st.floats(0.05, 1.0)) * scale for _ in range(rs.rank)]
    if kind == "wall":
        pairings[draw(st.integers(0, rs.rank - 1))] = 0.0
    t = None if kind == "zero" else tuple(np.linalg.solve(rs.B_f, pairings).tolist())
    chains, seed = draw(st.integers(1, 300)), draw(st.integers(0, 2**64 - 1))
    argv = [command, "--algebra", algebra, "--rep", rep]
    if t is not None:
        argv += ["--t", ",".join(map(repr, t))]
    if command == "measure":
        argv += ["--power", str(n)]
    else:
        argv += ["--steps", str(n), "--chains", str(chains), "--seed", str(seed)]
    foreign = draw(st.integers(0, 3)) == 0
    if foreign:
        argv += _flag_argv(draw(st.sampled_from(sorted(set(cli._FLAGS) - set(cli._COMMANDS[command][2])))))
    return argv, foreign, (rs, tuple(int(c) for c in rep.split(",")), n, t, chains, seed)


def _tv_by_weight(empirical, exact):
    """The TV between two laws given as weight -> probability dicts, summed over their union in set order."""
    return 0.5 * sum(abs(empirical.get(w, 0.0) - exact.get(w, 0.0)) for w in set(empirical) | set(exact))


@settings(max_examples=100)
@given(call=_cli_calls())
def test_cli_answers_correctly_or_fails_in_one_line(call):
    argv, foreign, (rs, rep, n, t, chains, seed) = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    if foreign:
        assert code == 1
    if code:
        assert code in (1, 2) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    exact = evolve_exact(rs, rep, t, n).probabilities()
    if argv[0] == "measure":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        probs = {tuple(map(int, row[: rs.rank])): float(row[rs.rank]) for row in rows}
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(probs) == set(exact)
        assert max(abs(probs[lam] - exact[lam]) for lam in exact) <= 1e-12
    else:
        payload = json.loads(out)
        empirical = sample_paths(rs, rep, t, n, chains, seed, keep_paths=False)[0].probabilities()
        assert payload["endpoints"] == {",".join(map(str, w)): p for w, p in sorted(empirical.items())}
        tv = payload["tv_empirical_vs_exact"]
        assert 0.0 <= tv <= 1.0
        assert abs(tv - _tv_by_weight(empirical, exact)) <= 1e-15


def test_domain_error_exit_code(capsys):
    assert main(["decompose", "--algebra", "Q9", "--rep", "1"]) == 2
    capsys.readouterr()
    assert main(["decompose", "--algebra", "A2", "--rep", "1"]) == 2  # wrong length
    capsys.readouterr()
    assert main(["measure", "--algebra", "A1", "--rep", "1", "--t", "0.1,0.2"]) == 2
    capsys.readouterr()


def test_cache_reuse_bit_identical(capsys, tmp_path, monkeypatch):
    cases = [
        ["decompose", "--algebra", "B2", "--rep", "0,1", "--power", "4"],
        # a regular-t measure sums character terms, so it sees the entry order
        ["measure", "--algebra", "A2", "--rep", "1,0", "--power", "60", "--t", "0.3,0.1"],
    ]
    for i, args in enumerate(cases):
        cache = tmp_path / str(i)
        monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(cache))
        code1 = main(list(args))
        out1 = capsys.readouterr().out
        cached = list(cache.glob("*.json"))
        assert len(cached) == 1
        code2 = main(list(args))
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)
        # cache hit must not rewrite the file
        assert list(cache.glob("*.json")) == cached
        code3 = main(list(args) + ["--no-cache"])
        out3 = capsys.readouterr().out
        assert (code1, out1) == (code3, out3)


def test_decompose_miss_prints_the_cached_text_encoded_once(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    encoded = []
    to_json = charalg.DecompositionTable.to_json
    monkeypatch.setattr(charalg.DecompositionTable, "to_json", lambda self: encoded.append(1) or to_json(self))
    assert main(["decompose", "--algebra", "G2", "--rep", "1,0", "--power", "6"]) == 0
    out = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    assert out.encode() == path.read_bytes() + b"\n"  # _emit ends stdout with a newline
    assert len(encoded) == 1


def test_tampered_cache_is_a_consistency_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    args = ["decompose", "--algebra", "A2", "--rep", "1,0", "--power", "4"]
    assert main(list(args)) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    payload["entries"][0][1] = str(int(payload["entries"][0][1]) + 1)
    path.write_text(json.dumps(payload))
    assert main(list(args)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_no_cache_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    code = main(
        ["decompose", "--algebra", "A1", "--rep", "1", "--power", "3", "--no-cache"]
    )
    capsys.readouterr()
    assert code == 0
    assert list(tmp_path.glob("*.json")) == []


def test_truncated_cache_is_a_miss_and_is_rewritten(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    args = ["decompose", "--algebra", "A2", "--rep", "1,0", "--power", "4"]
    assert main(list(args)) == 0
    fresh = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    good = path.read_text()
    path.write_text(good[: len(good) // 2])
    assert main(list(args)) == 0
    captured = capsys.readouterr()
    assert captured.out == fresh and captured.err == ""
    assert path.read_text() == good
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_cache_outside_the_support_cone_is_a_consistency_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    args = ["decompose", "--algebra", "A2", "--rep", "1,0", "--power", "3"]
    assert main(list(args)) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    # (0,3) has the dimension of (3,0), so the dimension identity still
    # holds, but it does not lie under 3 * (1,0) in the root order
    payload["entries"] = [[[0, 3] if w == [3, 0] else w, m] for w, m in payload["entries"]]
    path.write_text(json.dumps(payload))
    assert main(list(args)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_swapped_factor_order_reuses_the_cache_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path))
    forward = ["decompose", "--algebra", "A2", "--rep", "1,0", "--power", "2", "--rep", "0,1", "--power", "1"]
    backward = ["decompose", "--algebra", "A2", "--rep", "0,1", "--power", "1", "--rep", "1,0", "--power", "2"]
    assert main(forward) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    written = path.read_bytes()
    stamp = path.stat().st_mtime_ns
    assert main(backward) == 0
    hit = json.loads(capsys.readouterr().out)
    assert main(backward + ["--no-cache"]) == 0
    assert hit == json.loads(capsys.readouterr().out)
    assert hit["problem"] == [[[0, 1], 1], [[1, 0], 2]]
    assert list(tmp_path.glob("*.json")) == [path]
    assert path.read_bytes() == written and path.stat().st_mtime_ns == stamp


def test_unwritable_output_is_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "table.json"
    code = main(["decompose", "--algebra", "A1", "--rep", "1", "--power", "2", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: FileNotFoundError") and captured.err.count("\n") == 1


def test_unusable_cache_dir_is_exit_3(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(blocker / "cache"))
    code = main(["decompose", "--algebra", "A1", "--rep", "1", "--power", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_measure_e8(capsys):
    # every row of an E8 measure is a weight sum (|W| > 10^6)
    code, out = run_cli(
        capsys,
        "measure", "--algebra", "E8", "--rep", "0,0,0,0,0,0,0,1", "--power", "2",
        "--t", "1,1,1,1,1,1,1,1", "--no-cache",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 5  # 1 + 248 + 3875 + 27000 + 30380
    assert math.fsum(float(row.split(",")[8]) for row in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sample_seed_outside_range_is_a_domain_error(capsys, seed):
    code = main(["sample", "--algebra", "A1", "--rep", "1", "--steps", "3", "--chains", "10", "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: seed") and err.count("\n") == 1


def test_measure_at_large_t_warns_nothing(capsys):
    # log 2 sinh(x/2) of a pairing of 800 once overflowed; RuntimeWarnings are errors here
    code = main(["measure", "--algebra", "A2", "--rep", "1,0", "--power", "6", "--t", "800,1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rows = captured.out.strip().splitlines()[1:]
    assert math.fsum(float(row.split(",")[2]) for row in rows) == pytest.approx(1.0)


def test_measure_at_huge_t_rejects_float_rows_silently(capsys):
    # the coset sum's distance bound once overflowed (a norm, then 0 * inf) and warned twice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["measure", "--no-cache", "--algebra", "A1", "--rep", "1", "--power", "4", "--t", "1e300"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (
        "lambda_1,probability,asymptotic_log_probability,scaled_1\n"
        "0,0.0,nan,-1.0\n"
        "2,0.0,-2e+300,-0.5\n"
        "4,1.0,nan,0.0\n"
    )


def _huge_t_run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()


def test_measure_e6_at_a_three_wall_t_warns_nothing(capsys):
    # this t reflects to a chamber point on three walls; the float pairings (lambda, alpha)
    # over their roots once read -8.9e-16 where the exact value is 0, and the log of them
    # warned "invalid value" (exit 3 under warnings as errors)
    code, out, err = _huge_t_run(capsys, ["measure", "--no-cache", "--algebra", "E6", "--rep", "1,0,0,0,0,0",
                                          "--power", "8", "--t", "0.5,0.4,0.6,0.9,0.7,0.4"])
    assert (code, err) == (0, [])
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert len(rows) == 82
    assert math.fsum(float(row[6]) for row in rows) == pytest.approx(1.0)
    for row in rows:
        if "0" in row[:6]:  # a wall row has no asymptotic estimate
            assert row[7] == "nan"


def test_measure_at_overflowing_t_is_a_domain_error(capsys):
    # B t overflowed: a dozen warnings, then a table of NaN probabilities and exit 0
    code, out, err = _huge_t_run(capsys, ["measure", "--no-cache", "--algebra", "A1", "--rep", "1", "--power", "4",
                                          "--t", "1e308"])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: t is too large")


def test_measure_at_huge_wall_t_is_a_domain_error(capsys):
    # finite pairings near the float range once read "character measure sums to 2.0" (exit 3)
    code, out, err = _huge_t_run(capsys, ["measure", "--no-cache", "--algebra", "A2", "--rep", "1,0", "--power", "3",
                                          "--t", "1e306,-1e306"])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: t is too large")


@pytest.mark.parametrize("t", ["1e8,-1e8", "1e16,-1e16"])
def test_measure_at_a_wall_t_lost_to_rounding_is_a_domain_error(capsys, t):
    # the rows along the wall kept pairings of 1e8 and more: "character measure sums to
    # 0.9999999980953457" and "sums to 2.0" (exit 3)
    code, out, err = _huge_t_run(capsys, ["measure", "--no-cache", "--algebra", "A2", "--rep", "1,0", "--power", "3",
                                          "--t", t])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: t is too large for float characters")


@pytest.mark.parametrize("t", ["1e6,-1e6", "1e8,-1e8", "1e16,-1e16"])
def test_sample_at_a_wall_t_lost_to_rounding_is_a_domain_error(capsys, t):
    # kernel rows take the measure's rounding bound: at 1e8 and 1e16 the row from
    # (1, 0) read "sums to 0.9999999887145152" and "sums to 2.0" (exit 3), and at
    # 1e6 its bound, 3.7e-09, is past the tolerance too (it exited 0)
    code, out, err = _huge_t_run(capsys, ["sample", "--algebra", "A2", "--rep", "1,0", "--steps", "3", "--chains", "100",
                                          "--t", t])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: t is too large for float characters")


@pytest.mark.parametrize("t", ["1.0000000000000001e+23,1.0000000000000001e+23", "1e25,1e25"])
def test_sample_at_a_huge_regular_t_answers(capsys, t):
    # the rounding of log chi_lambda + log chi_V, common to a kernel row, once reached its sum check:
    # "transition row from (2, 0) sums to 0.0", and at 1e25 an overflow in exp, then "sums to inf" (exit 3)
    code, out, err = _huge_t_run(capsys, ["sample", "--algebra", "A2", "--rep", "1,0", "--steps", "3", "--chains", "10",
                                          "--t", t])
    assert (code, err) == (0, [])
    payload = json.loads(out)
    assert payload["endpoints"] == {"3,0": 1.0} and payload["tv_empirical_vs_exact"] == 0.0


def test_sample_at_overflowing_t_is_a_domain_error(capsys):
    code, out, err = _huge_t_run(capsys, ["sample", "--algebra", "A1", "--rep", "1", "--steps", "4", "--chains", "10",
                                          "--t", "1e308"])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: t is too large")


def test_limit_compare_names_an_unresolved_quadrature(capsys):
    # the Gaussian at t = 5 is narrower than the midpoint spacing; this read
    # "grid captures only 0.1187 of the limit mass", though the grid covers it
    code = main(["limit-compare", "--no-cache", "--algebra", "A1", "--rep", "1", "--power", "12", "--t", "5",
                 "--kind", "gaussian"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: cell quadrature did not resolve the limit law: its 16 midpoints per cell lie 0.0361 apart"
        " on axis 1, against a limit law of width 0.00674 there (it found 0.1187 of the limit mass)\n"
    )


def test_sample_builds_each_row_once(capsys, monkeypatch):
    # exact evolution and sampling share one kernel: each source is folded once
    folded = []
    fold = charalg.Branching.fold

    def counting(self, keys, values, by_source=False):
        if by_source:
            folded.extend(map(tuple, keys.tolist()))
        return fold(self, keys, values, by_source)

    monkeypatch.setattr(charalg.Branching, "fold", counting)
    code = main(["sample", "--algebra", "A2", "--rep", "1,0", "--t", "0.3,0.1", "--steps", "8", "--chains", "2000"])
    capsys.readouterr()
    assert code == 0
    assert folded and len(folded) == len(set(folded))


def test_sample_builds_its_kernel_in_one_batch(capsys, monkeypatch):
    # the exact evolution builds the kernel to depth --steps: one fold per level, then
    # one character batch after chi_V; sampling on that kernel builds nothing
    kernels, plans, folds = [], [], []
    init, evaluate, fold = markov.TransitionKernel.__init__, charalg.CharacterPlan.evaluate, charalg.Branching.fold

    def spy_init(self, *args):
        kernels.append(self)
        init(self, *args)

    def spy_evaluate(self, lams, method="auto"):
        plans.append(self)
        return evaluate(self, lams, method)

    def spy_fold(self, keys, values, by_source=False):
        folds.append(by_source)
        return fold(self, keys, values, by_source)

    monkeypatch.setattr(markov.TransitionKernel, "__init__", spy_init)
    monkeypatch.setattr(charalg.CharacterPlan, "evaluate", spy_evaluate)
    monkeypatch.setattr(charalg.Branching, "fold", spy_fold)
    code = main(["sample", "--algebra", "A2", "--rep", "1,0", "--t", "0.3,0.1", "--steps", "8", "--chains", "2000"])
    capsys.readouterr()
    assert code == 0
    (kernel,) = kernels
    assert sum(plan is kernel._characters for plan in plans) == 2
    assert folds.count(True) == 8


def test_sample_stdout_is_pinned(capsys):
    # the sampled endpoint block, unchanged since before the kernel's rows came from one batched fold
    code = main(["sample", "--algebra", "G2", "--rep", "0,1", "--t", "0.3,0.2", "--steps", "8", "--chains", "5000",
                 "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    endpoints = out[out.find('"endpoints"') :]
    assert hashlib.sha256(endpoints.encode()).hexdigest() == (
        "f69b9d6fc81d1a160464b46cc4ed386ab5363a87a67b99c23034ad8b95feb8a4"
    )
    # the whole stdout since every character row of this kernel takes the long-double coset sum
    # (tv_empirical_vs_exact moved by 2e-17 from the weight-sum values)
    assert hashlib.sha256(out.encode()).hexdigest() == "95481efccbe67ef4ca395f1df79bbcd4b26ef2f62fff657b5e15a511a5dde506"


def _last_line_of(code: str) -> str:
    """Run code in a fresh interpreter on this checkout's package; the last line it prints."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_sample_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 14 ms of every sample job
    code = (
        "import sys\n"
        "from tensorstat.cli import main\n"
        "for t in ([], ['--t', '0.3,0.1']):\n"
        "    assert main(['sample', '--algebra', 'A2', '--rep', '1,0', '--steps', '8', '--chains', '500', *t]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _last_line_of(code) == "False"


def test_decompose_and_sample_do_not_load_the_acceptance_suite():
    # only hook-check and selftest read tensorstat.acceptance; without bytecode, compiling it took 8 ms of each call
    code = (
        "import sys\n"
        "from tensorstat.cli import main\n"
        "assert main(['decompose', '--algebra', 'A2', '--rep', '1,0', '--power', '4', '--no-cache']) == 0\n"
        "assert main(['sample', '--algebra', 'A2', '--rep', '1,0', '--steps', '4', '--chains', '50']) == 0\n"
        "print('tensorstat.acceptance' in sys.modules)\n"
    )
    assert _last_line_of(code) == "False"
