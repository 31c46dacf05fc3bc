"""Command line surface: subcommands, formats, exit codes, cache behavior."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tensorstat import (
    AlgebraSpec,
    asymptotic_log_multiplicity,
    build_root_system,
    character_measure,
    evolve_exact,
    forward_dual,
    naive_tensor_decompose,
    sample_paths,
    tensor_power_decompose,
    tensor_problem,
    trajectories_to_jsonl,
    weak_convergence_distance,
    weyl_dimension,
)
from tensorstat import acceptance, charalg, cli, markov, measures
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


def test_asymptotic_prints_nan_at_the_top_vertex_of_an_a1_power(capsys):
    # lambda = 6 is a vertex of the weight polytope: it once printed 12.645..., ratio 310470, for multiplicity 1
    code, out = run_cli(
        capsys, "asymptotic", "--algebra", "A1", "--rep", "3", "--power", "2", "--epsilon", "0.5", "--no-cache",
    )
    assert code == 0
    assert out.splitlines()[-1] == '"6",1,nan,nan'


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


# slices of 3 chains: 14 in one block of 40, or 3, 3, 1 in each block of 7
@pytest.mark.parametrize("block, paths_slice", [
    pytest.param(8192, 1024, id="one-block"),
    pytest.param(7, 1024, id="blocks-of-7"),
    pytest.param(8192, 3, id="one-block-slices-of-3"),
    pytest.param(7, 3, id="blocks-of-7-slices-of-3"),
])
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
def test_sample_paths_file_is_trajectories_to_jsonl(capsys, tmp_path, monkeypatch, algebra, rep, t, steps, block,
                                                    paths_slice):
    # the CLI writes the file block by block and slice by slice from state ids, never through Trajectory objects
    monkeypatch.setattr(markov, "_BLOCK", block)
    monkeypatch.setattr(markov, "_PATHS_SLICE", paths_slice)
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


_A1 = ["--algebra", "A1"]
# the calls that end while parsing, with the first 16 hex digits of the SHA-256 of
# json.dumps([stdout, stderr, exit code]) at COLUMNS=80 under Python 3.11, taken when every call
# built all eight subparsers
USAGE_CASES = {
    "help": (["--help"], "38cb5ab5e0602f40"),
    "decompose-help": (["decompose", "--help"], "25c9ff9ca7e5c575"),
    "measure-help": (["measure", "--help"], "1663b314dcf40c47"),
    "asymptotic-help": (["asymptotic", "--help"], "f7771ce89e06b74b"),
    "limit-compare-help": (["limit-compare", "--help"], "ea7ff3d70af9ee2b"),
    "sample-help": (["sample", "--help"], "ddf99a9d801478d3"),
    "pde-check-help": (["pde-check", "--help"], "9dde5a3d7f4fb415"),
    "hook-check-help": (["hook-check", "--help"], "1290f6b8970ef9aa"),
    "selftest-help": (["selftest", "--help"], "02756e8c14a8a8fd"),
    "no-arguments": ([], "2fb9a6d91ab48e18"),
    "unknown-command": (["no-such-command"], "e4a40f0c1c3441e1"),
    "unknown-command-help": (["no-such-command", "--help"], "e4a40f0c1c3441e1"),
    "decompose-missing": (["decompose", *_A1], "2cd9a018107a3f7c"),
    "measure-missing": (["measure", *_A1], "bff1b1a398e166ff"),
    "asymptotic-missing": (["asymptotic", *_A1], "c02322a7cb245871"),
    "limit-compare-missing": (["limit-compare", *_A1], "ff2e8c7d9fca20c4"),
    "sample-missing": (["sample", *_A1], "43a90b19457c98eb"),
    "pde-check-missing": (["pde-check", *_A1], "3c63e56434b39d22"),
    "decompose-foreign": (["decompose", *_A1, "--rep", "1", "--t", "1"], "3ce4ab85e207b171"),
    "measure-foreign": (["measure", *_A1, "--rep", "1", "--kind", "gaussian"], "2e09a08ad3762bd3"),
    "asymptotic-foreign": (["asymptotic", *_A1, "--rep", "1", "--format", "csv"], "65381cf60e7d985f"),
    "limit-compare-foreign": (["limit-compare", *_A1, "--rep", "1", "--kind", "plancherel", "--grid", "3"],
                              "da232cb06fa067ef"),
    "sample-foreign": (["sample", *_A1, "--rep", "1", "--steps", "2", "--chains", "3", "--power", "2"],
                       "b0d990ba69762864"),
    "pde-check-foreign": (["pde-check", *_A1, "--rep", "1", "--no-cache"], "7903962a642778dc"),
    "hook-check-foreign": (["hook-check", "--criteria", "1"], "db185d3c1adeff1a"),
    "selftest-foreign": (["selftest", "--max-power", "2"], "195f5d73923d99d3"),
}


@pytest.mark.parametrize("case", list(USAGE_CASES))
def test_one_subparser_leaves_help_and_usage_errors_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv, digest = USAGE_CASES[case]
    code = main(argv)
    out, err = capsys.readouterr()
    try:  # the parser of every command gives the reference
        build_parser().parse_args(argv)
        reference_code = None
    except SystemExit as exc:
        reference_code = exc.code
    reference = capsys.readouterr()
    assert (out, err, code) == (reference.out, reference.err, reference_code)
    if sys.version_info[:2] == (3, 11):  # argparse lays out help differently in other versions
        assert hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()[:16] == digest


def _subcommands(parser):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(commands.choices)


def test_build_parser_builds_the_subparser_of_its_command_only():
    assert _subcommands(build_parser()) == list(cli._COMMANDS)
    for command in cli._COMMANDS:
        assert _subcommands(build_parser(command)) == [command]


def test_help_goes_to_stdout(capsys):
    assert main(["sample", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tensorstat sample") and "--steps" in captured.out
    assert captured.err == ""


def _flag_values(spec):
    """(values of a flag in the reader's form, values the reader leaves to argparse).

    The second are refused by the flag's type or choices, or start with
    "-": argparse reads -1 as a value and -0.5,1 as an unknown flag.
    """
    if "choices" in spec:
        return list(spec["choices"]), ["bad", "-1"]
    return {
        int: (["1", "4", "0"], ["-1", "2.5", "x"]),
        float: (["0.5", "1e-3"], ["-0.5", "x"]),
    }.get(spec.get("type"), (["1,0", "A2", "1", ""], ["-1", "-0.5,1"]))


@st.composite
def _argv_around_the_flag_tables(draw):
    """(argv, whether it is in the form COMMAND (--flag VALUE | --switch)... with the command's own flags).

    A call of the command's required flags and up to three more of its own,
    repeats allowed, with values it reads; then, in six calls of seven, one
    change: a flag dropped (required or not), a foreign flag, a prefix such
    as --alg, the --flag=value form, a value the reader leaves to argparse
    (a bad int or choice, -1, -0.5,1), -h, --help, a stray positional or "--".
    """
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    own = cli._COMMANDS[command][2]
    flags = [flag for flag in own if cli._FLAGS[flag].get("required")]
    flags += draw(st.lists(st.sampled_from(own), max_size=3))
    groups = [
        [flag] if cli._FLAGS[flag].get("action") == "store_true"
        else [flag, draw(st.sampled_from(_flag_values(cli._FLAGS[flag])[0]))]
        for flag in flags
    ]
    change = draw(st.sampled_from([None, "drop", "foreign", "prefix", "equals", "refused", "stray"]))
    valued = [group for group in groups if len(group) == 2]
    if change == "drop" and groups:
        groups.pop(draw(st.integers(0, len(groups) - 1)))
    elif change == "foreign":
        groups.append(_foreign_flag(draw, command))
    elif change == "prefix" and groups:
        group = draw(st.sampled_from(groups))
        group[0] = group[0][: draw(st.integers(3, len(group[0])))]
    elif change == "equals" and groups:
        group = draw(st.sampled_from(groups))
        group[:] = [f"{group[0]}={group[1] if len(group) == 2 else ''}"]
    elif change == "refused" and valued:
        group = draw(st.sampled_from(valued))
        group[1] = draw(st.sampled_from(_flag_values(cli._FLAGS[group[0]])[1]))
    elif change == "stray":
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(["-h", "--help", "extra", "--"]))])

    def in_form(group):
        if group[0] not in own:
            return False
        if cli._FLAGS[group[0]].get("action") == "store_true":
            return len(group) == 1
        return len(group) == 2 and not group[1].startswith("-")

    canonical = all(map(in_form, groups))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)], canonical


@settings(max_examples=300)
@given(call=_argv_around_the_flag_tables())
def test_the_flag_table_reader_agrees_with_argparse(call):
    argv, canonical = call
    args = cli._read_argv(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    event(f"reader {'reads' if args else 'declines'}, argparse {'parses' if expected else 'exits'}")
    if args is not None:
        assert vars(args) == expected
    if expected is None:
        assert args is None
    # the fast path is not idle: it reads every call in its form that argparse accepts
    assert (args is not None) == (canonical and expected is not None)


# the reps the CLI property test draws, per algebra, and a non-minuscule one per rank-2 algebra drawn at N <= 3
_PROPERTY_REPS = {"A1": ["1", "2"], "A2": ["1,0", "0,1"], "B2": ["1,0", "0,1"], "G2": ["1,0", "0,1"],
                  "E6": ["1,0,0,0,0,0"]}
_PROPERTY_LARGE_REPS = {"A2": "1,1", "B2": "1,1", "G2": "1,1"}


def _foreign_flag(draw, command):
    """A flag of another command, with a value unless it takes none: a usage error (exit 1)."""
    return _flag_argv(draw(st.sampled_from(sorted(set(cli._FLAGS) - set(cli._COMMANDS[command][2])))))


def _dominant_margin(rs, top, xi) -> float:
    """The least root coordinate of top - xi+, xi+ the dominant W-image of xi, over max |top|.

    Below 0 exactly when xi lies off the polytope conv(W top); all vectors
    in root coordinates.
    """
    xi = np.array(xi, dtype=float)
    # a pairing within rounding of 0 counts as on the wall: reflecting it could swap signs with a neighbour forever
    wall = 1e-12 * np.max(np.abs(xi))
    # |positive roots| reflections reach it in exact arithmetic; rounding at a wall may take a few more
    for _ in range(4 * len(rs.positive_roots) + 1):
        pairings = rs.B_f @ xi
        a = int(np.argmin(pairings))
        if pairings[a] >= -wall:
            return float(np.min(top - xi) / np.max(np.abs(top)))
        xi[a] -= pairings[a] / float(rs.d[a])
    raise AssertionError(f"no dominant W-image of {xi} found")


def _measure_or_sample(draw, command, rs, rep, t, n):
    """The argv tail and oracle of a measure or sample call."""
    if command == "measure":
        tail = ["--power", str(n)]
    else:
        chains, seed = draw(st.integers(1, 300)), draw(st.integers(0, 2**64 - 1))
        tail = ["--steps", str(n), "--chains", str(chains), "--seed", str(seed)]

    def oracle(out):
        exact = evolve_exact(rs, rep, t, n).probabilities()
        if command == "measure":
            rows = [line.split(",") for line in out.splitlines()[1:]]
            probs = {tuple(map(int, row[: rs.rank])): float(row[rs.rank]) for row in rows}
            assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert set(probs) == set(exact)
            assert max(abs(probs[lam] - exact[lam]) for lam in exact) <= 1e-12
            return
        payload = json.loads(out)
        empirical = sample_paths(rs, rep, t, n, chains, seed, keep_paths=False)[0].probabilities()
        assert payload["endpoints"] == {",".join(map(str, w)): p for w, p in sorted(empirical.items())}
        tv = payload["tv_empirical_vs_exact"]
        assert 0.0 <= tv <= 1.0
        assert abs(tv - _tv_by_weight(empirical, exact)) <= 1e-15

    return tail, oracle


def _asymptotic_xi(draw, rs, rep, n):
    """The argv tail, exit codes and oracle of an asymptotic --xi call.

    xi is drawn in a box around the weight polytope, next to a vertex at a
    relative distance 10^-k inside or outside, or huge.  A point inside by
    a margin of 1e-9 must answer; one off the polytope is a domain error,
    or exit 3 where the dual solve stalls before it diverges (a fault,
    open under the ROADMAP's item 10: it should be a domain error too).
    """
    top = rs.cartan_inv_f @ np.array(rep, dtype=float)  # scaled top eps N nu = nu at the default epsilon
    kind = draw(st.sampled_from(["box", "box", "vertex", "huge"]))
    if kind == "box":
        scale = draw(st.sampled_from([0.3, 1.0, 3.0])) * np.max(np.abs(top))
        xi = np.array([draw(st.floats(-1.0, 1.0)) * scale for _ in range(rs.rank)])
    elif kind == "vertex":
        xi = top * (1.0 - draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.integers(1, 15)))
        for a in draw(st.lists(st.integers(0, rs.rank - 1), max_size=len(rs.positive_roots))):
            xi[a] -= (rs.B_f[a] @ xi) / float(rs.d[a])
    else:
        # one coordinate is +-10^k: off the polytope, whose points have root coordinates within max |top| < 100
        xi = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(rs.rank)])
        xi[draw(st.integers(0, rs.rank - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        xi *= 10.0 ** draw(st.integers(2, 300))
    margin = -math.inf if kind == "huge" else _dominant_margin(rs, top, xi)
    codes = {0} if margin >= 1e-9 else {0, 2} if margin >= 0 else {2, 3}
    event(f"asymptotic --xi {kind}, {'inside' if margin >= 0 else 'outside'}")

    def oracle(out):
        payload = json.loads(out)
        assert payload["xi"] == xi.tolist()
        problem = tensor_problem(rs, [(rep, n)])
        assert np.max(np.abs(forward_dual(problem, np.array(payload["x"])) - xi)) <= 1e-9 * np.max(np.abs(top))

    return [f"--xi={','.join(map(repr, xi.tolist()))}"], codes, oracle


def _pde_check(draw, rs, n):
    """The argv tail, exit codes and oracle of a pde-check call: --grid <= 3 (<= 2 at E6, 729 points take 1.2 s)."""
    grid = draw(st.sampled_from([1, 2, 3, 0] if rs.rank < 6 else [1, 2, 0]))
    power = draw(st.sampled_from([n, 10 ** draw(st.integers(2, 18))]))

    def oracle(out):
        lines = out.splitlines()
        assert lines[0] == "y,xi,residual,fd_deviation"
        rows = list(csv.reader(lines[1:-1]))
        axis = np.linspace(-1.0, 1.0, grid).tolist()
        assert [row[0] for row in rows] == [",".join(repr(axis[i]) for i in p) for p in np.ndindex(*[grid] * rs.rank)]
        residuals, deviations = ([float(row[k]) for row in rows] for k in (2, 3))
        assert lines[-1] == f"# worst residual {max(residuals)!r}, worst fd deviation {max(deviations)!r}"
        assert max(residuals) <= 1e-12 and max(deviations) <= 1e-6

    return ["--power", str(power), "--grid", str(grid)], {0 if grid else 2}, oracle


def _hook_check_oracle(out):
    count, mismatches = out.removeprefix("hook-check: ").removesuffix(" mismatches\n").split(" multiplicities, ")
    assert int(count) > 0 and mismatches == "0"


@st.composite
def _cli_calls(draw):
    """(argv, the exit codes it may end with, the oracle of its stdout on exit 0).

    measure and sample take t in any Weyl chamber, written --t=..., so a
    negative first coordinate parses; a third of the calls give it in the
    weight basis.  selftest is drawn only with a foreign flag or a
    --criteria entry that names no criterion, so no criterion runs.  A
    quarter of the other calls carry a flag of another command: exit 1.
    """
    command = draw(st.sampled_from(["measure", "sample", "asymptotic", "pde-check", "hook-check", "selftest"]))
    if command == "selftest":
        known = sorted(acceptance.ALL_CRITERIA)
        entries = draw(st.lists(st.sampled_from(known), max_size=3))
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from([0, known[-1] + 1, 99, -2])))
        text = ",".join(map(str, entries))
        argv = ["selftest", "--criteria", text]
        if draw(st.booleans()):
            return [*argv[: draw(st.sampled_from([1, 3]))], *_foreign_flag(draw, command)], {1}, None
        # argparse reads "-2" as a value but "-2,5" as a flag, which leaves --criteria without one
        return argv, {1 if text.startswith("-") and "," in text else 2}, None
    if command == "hook-check":
        max_power = draw(st.sampled_from([1, 2, 3, 4, 0, -1]))
        argv, codes, oracle = ["hook-check", "--max-power", str(max_power)], {0} if max_power >= 1 else {2}, _hook_check_oracle
    else:
        algebra = draw(st.sampled_from(sorted(_PROPERTY_REPS)))
        rs = build_root_system(algebra)
        large = algebra in _PROPERTY_LARGE_REPS and draw(st.integers(0, 4)) == 0
        text = _PROPERTY_LARGE_REPS[algebra] if large else draw(st.sampled_from(_PROPERTY_REPS[algebra]))
        rep = tuple(int(c) for c in text.split(","))
        n = draw(st.integers(0 if command == "sample" else 1, 3 if algebra == "E6" or large else 8))
        argv, codes = [command, "--algebra", algebra, "--rep", text], {0, 1, 2}
        if command == "asymptotic":
            tail, codes, oracle = _asymptotic_xi(draw, rs, rep, n)
            argv += ["--power", str(n), *tail]
        elif command == "pde-check":
            tail, codes, oracle = _pde_check(draw, rs, n)
            argv += tail
        else:
            # the scale of t's pairings with the simple roots
            kind = draw(st.sampled_from(["zero", "wall", "tiny", "regular", "huge"]))
            scale = {"zero": 0.0, "tiny": 1e-9, "huge": 10.0 ** draw(st.integers(2, 300))}.get(kind, 1.0)
            pairings = [draw(st.floats(0.05, 1.0)) * scale for _ in range(rs.rank)]
            if kind == "wall":
                pairings[draw(st.integers(0, rs.rank - 1))] = 0.0
            t = None
            if kind != "zero":
                t_root = np.linalg.solve(rs.B_f, pairings)
                # a word of simple reflections reaches every chamber; E6's 51840 elements are never listed
                for a in draw(st.lists(st.integers(0, rs.rank - 1), max_size=len(rs.positive_roots))):
                    t_root[a] -= (rs.B_f[a] @ t_root) / float(rs.d[a])
                basis = draw(st.sampled_from(["root", "root", "weight"]))
                t_text = ",".join(map(repr, (t_root if basis == "root" else rs.cartan_f @ t_root).tolist()))
                argv += [f"--t={t_text}"] + (["--t-basis", "weight"] if basis == "weight" else [])
                t = cli._resolve_t(rs, argparse.Namespace(t=t_text, t_basis=basis))  # the t the CLI reads from them
            tail, oracle = _measure_or_sample(draw, command, rs, rep, t, n)
            argv += tail
    if draw(st.integers(0, 3)) == 0:
        return [*argv, *_foreign_flag(draw, command)], {1}, oracle
    return argv, codes, oracle


def _tv_by_weight(empirical, exact):
    """The TV between two laws given as weight -> probability dicts, summed over their union in set order."""
    return 0.5 * sum(abs(empirical.get(w, 0.0) - exact.get(w, 0.0)) for w in set(empirical) | set(exact))


@settings(max_examples=100)
@given(call=_cli_calls())
def test_cli_answers_correctly_or_fails_in_one_line(call):
    argv, codes, oracle = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in codes, (code, err)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    oracle(out)


@st.composite
def _exact_cli_calls(draw):
    """(argv, the exit code it must end with, (root system, factors, epsilon)) of a decompose or asymptotic call.

    One or two factors, each drawn as in _cli_calls, with powers from 0;
    --epsilon 0 and a problem of zero powers are domain errors of asymptotic.
    """
    command = draw(st.sampled_from(["decompose", "asymptotic"]))
    algebra = draw(st.sampled_from(sorted(_PROPERTY_REPS)))
    rs = build_root_system(algebra)
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        large = algebra in _PROPERTY_LARGE_REPS and draw(st.integers(0, 4)) == 0
        rep = _PROPERTY_LARGE_REPS[algebra] if large else draw(st.sampled_from(_PROPERTY_REPS[algebra]))
        factors.append((tuple(int(c) for c in rep.split(",")), draw(st.integers(0, 2 if algebra == "E6" or large else 6))))
    argv = [command, "--algebra", algebra]
    for rep, _ in factors:
        argv += ["--rep", ",".join(map(str, rep))]
    for _, n in factors:
        argv += ["--power", str(n)]
    epsilon, code = None, 0
    if command == "decompose":
        argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    else:
        epsilon = draw(st.sampled_from([None, 0.5, 0.01, 0.0]))
        argv += [] if epsilon is None else ["--epsilon", repr(epsilon)]
        code = 2 if epsilon == 0.0 or not any(n for _, n in factors) else 0
    argv += draw(st.sampled_from([[], ["--no-cache"]]))
    if draw(st.integers(0, 3)) == 0:
        argv += _foreign_flag(draw, command)
        code = 1
    return argv, code, (rs, factors, epsilon)


def _on_the_domain_boundary(rs, factors, lam) -> bool:
    """lambda on a chamber wall, or on a face of conv(W top), top = sum_k N_k nu_k: in Fractions."""
    top = [sum(n * nu[j] for nu, n in factors) for j in range(rs.rank)]
    c = [sum(row[j] * (top[j] - lam[j]) for j in range(rs.rank)) for row in rs.cartan_inverse]
    return min(lam) == 0 or min(c) == 0


@settings(max_examples=150)
@given(call=_exact_cli_calls())
def test_decompose_and_asymptotic_answer_correctly_or_fail_in_one_line(call):
    argv, expected, (rs, factors, epsilon) = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code == expected
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    if argv[0] == "decompose":
        if "csv" in argv:
            rows = [line.rsplit(",", 1) for line in out.splitlines()[1:]]
            entries = {tuple(map(int, lam.strip('"').split(","))): int(m) for lam, m in rows}
        else:
            entries = {tuple(lam): int(m) for lam, m in json.loads(out)["entries"]}
        dims = math.prod(weyl_dimension(rs, nu) ** n for nu, n in factors)
        assert sum(m * weyl_dimension(rs, lam) for lam, m in entries.items()) == dims
        if dims <= 4096:
            assert entries == naive_tensor_decompose(rs, factors).entries
        return
    lines = out.splitlines()
    assert lines[0] == "lambda,multiplicity,log_multiplicity_asymptotic,ratio"
    rows = [line.rsplit(",", 3) for line in lines[1:]]
    lams = [tuple(map(int, row[0].strip('"').split(","))) for row in rows]
    assert lams == sorted(lams)
    assert dict(zip(lams, (int(row[1]) for row in rows))) == tensor_power_decompose(rs, factors).entries
    for lam, (_, _, est, ratio) in zip(lams, rows):
        assert (est == "nan") == (ratio == "nan") == _on_the_domain_boundary(rs, factors, lam)
    # a sample of the finite rows against the one-row estimate, bit for bit
    finite = [(lam, float(row[2])) for lam, row in zip(lams, rows) if row[2] != "nan"]
    problem = tensor_problem(rs, factors, epsilon)
    for lam, est in finite[:: max(1, len(finite) // 6)]:
        assert est == asymptotic_log_multiplicity(problem, lam)


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


@pytest.mark.parametrize(
    "algebra, rep, power, t, top",
    [
        ("A2", (1, 1), 3, "5075844.685551487,3148857.19302005", (3, 3)),
        ("B2", (1, 0), 6, "1.994071159905269e+153,6.1882972608904264e+153", (6, 0)),
        ("G2", (1, 0), 3, "3.69212470673322e+43,1.7113742699801328e+43", (3, 0)),
    ],
    ids=["A2", "B2", "G2"],
)
def test_measure_at_a_huge_regular_t_answers(capsys, algebra, rep, power, t, top):
    # the rounding of sum_k N_k log chi_nu_k, common to the whole measure, once reached its sum check:
    # "character measure sums to 1.0000000037252903", "sums to 0.0" and "OverflowError: math range error" (exit 3)
    rep_text = ",".join(map(str, rep))
    code, out, err = _huge_t_run(capsys, ["measure", "--no-cache", "--algebra", algebra, "--rep", rep_text, "--power",
                                          str(power), f"--t={t}"])
    assert (code, err) == (0, [])
    probs = {tuple(map(int, row[:2])): float(row[2]) for row in (line.split(",") for line in out.splitlines()[1:])}
    exact = evolve_exact(build_root_system(algebra), rep, [float(v) for v in t.split(",")], power).probabilities()
    assert set(probs) == set(exact)
    assert max(abs(probs[lam] - exact[lam]) for lam in exact) <= 1e-12
    assert probs[top] == 1.0


def test_limit_compare_at_a_huge_regular_t_reaches_the_domain_boundary(capsys):
    # the measure it compares once failed its sum check, "sums to 1.0000000037252903" (exit 3); it is a
    # point mass, so its mean weight lies on the boundary of the Legendre domain
    code, out, err = _huge_t_run(capsys, ["limit-compare", "--no-cache", "--algebra", "A2", "--rep", "1,1", "--power",
                                          "3", "--t=5075844.685551487,3148857.19302005", "--kind", "gaussian"])
    assert (code, out) == (2, "")
    assert err == ["error: Hess f is singular to float precision: the mean weight is at the domain boundary"]


@pytest.mark.parametrize(
    "algebra, power, t", [("A2", 4, "1e160,1e160"), ("B2", 6, "1.994071159905269e+153,6.1882972608904264e+153")],
    ids=["A2", "B2"],
)
def test_limit_compare_at_a_huge_t_refuses_its_grid_without_overflow(capsys, algebra, power, t):
    # u B u of the intermediate law's radius, and the product of the grid's cell counts, once overflowed:
    # "RuntimeWarning: overflow encountered" with its source line before the error line (exit 3 under -W error)
    code, out, err = _huge_t_run(capsys, ["limit-compare", "--no-cache", "--algebra", algebra, "--rep", "1,0",
                                          "--power", str(power), f"--t={t}", "--kind", "intermediate"])
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: comparison grid of ")


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


def test_hook_check_does_not_load_the_acceptance_suite():
    # hook_sweep lives in slnhook; only selftest reads tensorstat.acceptance
    code = (
        "import sys\n"
        "from tensorstat.cli import main\n"
        "assert main(['hook-check', '--max-power', '3']) == 0\n"
        "print('tensorstat.acceptance' in sys.modules)\n"
    )
    assert _last_line_of(code) == "False"


def test_a_well_formed_call_loads_neither_argparse_nor_gettext():
    # the flag table reads these calls; argparse and gettext cost 1.9 ms to import and 1.9 ms on first use.
    # Modules NumPy imports itself do not count.
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from tensorstat.cli import main\n"
        "for argv in (\n"
        "    ['decompose', '--algebra', 'A2', '--rep', '1,0', '--power', '3', '--no-cache'],\n"
        "    ['measure', '--algebra', 'A2', '--rep', '1,0', '--power', '3', '--t', '0.3,0.1'],\n"
        "    ['asymptotic', '--algebra', 'A2', '--rep', '1,0', '--power', '3'],\n"
        "    ['sample', '--algebra', 'A2', '--rep', '1,0', '--steps', '3', '--chains', '20'],\n"
        "    ['hook-check', '--max-power', '3'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted({'argparse', 'gettext'} & (set(sys.modules) - before)))\n"
    )
    assert _last_line_of(code) == "[]"
    help_code = (
        "import sys\n"
        "from tensorstat.cli import main\n"
        "assert main(['decompose', '--help']) == 0\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    assert _last_line_of(help_code) == "['argparse', 'gettext']"


@pytest.mark.parametrize("rep", ["9223372036854775807", "100000"])
def test_a_huge_highest_weight_exits_2_at_once(capsys, rep):
    # A1 (100000) once ran for over a minute, A1 (2^63 - 1) grew past 1.9 GiB
    start = time.perf_counter()
    code = main(["decompose", "--algebra", "A1", "--rep", rep, "--power", "1", "--no-cache"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "past 4096" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("algebra, rep", [("A2", "800,0"), ("B2", "0,400"), ("G2", "200,0")])
def test_a_rank_2_weight_system_past_the_dominant_weight_gate_exits_2_at_once(capsys, algebra, rep):
    # under the height gate, these built their weight systems in 9.8, 5.5 and 13.6 s
    start = time.perf_counter()
    code = main(["decompose", "--algebra", algebra, "--rep", rep, "--power", "1", "--no-cache"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "more than 4096 dominant weights" in captured.err
    assert elapsed < 1.0
