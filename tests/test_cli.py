"""Command line surface: subcommands, formats, exit codes, cache behavior."""

import json
import math

import pytest

from tensorstat import (
    AlgebraSpec,
    build_root_system,
    character_measure,
    tensor_power_decompose,
    weak_convergence_distance,
)
from tensorstat import markov
from tensorstat.cli import main


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
    ],
)
def test_limit_compare_rank2(capsys, algebra, rep, power, kind, t, tv):
    payload = _check_limit_compare(capsys, algebra, rep, power, kind, t)
    assert payload["tv"] == pytest.approx(tv, abs=5e-4)


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
    "argv",
    [
        ["sample", "--rep", "1,0", "--rep", "0,1", "--steps", "5", "--chains", "10"],
        ["sample", "--rep", "1,0", "--power", "5", "--steps", "5", "--chains", "10"],
        ["pde-check", "--rep", "1,0", "--rep", "0,1", "--grid", "2"],
        ["pde-check", "--rep", "1,0", "--power", "4", "--power", "5", "--grid", "2"],
    ],
    ids=["sample-two-reps", "sample-power", "pde-check-two-reps", "pde-check-two-powers"],
)
def test_extra_problem_arguments_are_domain_errors(capsys, argv):
    code = main([argv[0], "--algebra", "A2", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--criteria", "13"],
        ["selftest", "--criteria", "x"],
        ["pde-check", "--algebra", "A1", "--rep", "1", "--grid", "0"],
        ["pde-check", "--algebra", "A1", "--rep", "1", "--grid", "-1"],
        ["hook-check", "--max-power", "-2"],
        ["measure", "--algebra", "A1", "--rep", "1", "--power", "4", "--epsilon", "inf"],
        # zero steps build no tensor problem, yet epsilon is checked alike
        ["sample", "--algebra", "A1", "--rep", "1", "--steps", "0", "--chains", "3", "--epsilon", "-1"],
        ["sample", "--algebra", "A1", "--rep", "1", "--steps", "0", "--chains", "3", "--epsilon", "inf"],
        # the Gaussian fluctuation law does not hold at t = 0
        ["limit-compare", "--algebra", "A1", "--rep", "1", "--power", "20", "--kind", "gaussian"],
    ],
    ids=[
        "criteria-13", "criteria-x", "grid-0", "grid-negative", "max-power-negative",
        "epsilon-inf", "zero-steps-epsilon-negative", "zero-steps-epsilon-inf", "gaussian-without-t",
    ],
)
def test_invalid_inputs_are_domain_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
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


def test_sample_builds_each_row_once(capsys, monkeypatch):
    # exact evolution and sampling share one kernel
    built = []
    build_row = markov.TransitionKernel._build_row

    def counting(self, source, sid):
        built.append(source)
        build_row(self, source, sid)

    monkeypatch.setattr(markov.TransitionKernel, "_build_row", counting)
    code = main(["sample", "--algebra", "A2", "--rep", "1,0", "--t", "0.3,0.1", "--steps", "8", "--chains", "2000"])
    capsys.readouterr()
    assert code == 0
    assert built and len(built) == len(set(built))
