"""Tests of the benchmark itself: job generation, output checks, smoke runs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_job_list(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)
    assert workloads.build(name, 7, smoke=True) != workloads.build(name, 8, smoke=True)


def test_default_seed_gives_nominal_shapes():
    ids = [job["id"] for job in workloads.build("cli-exact", workloads.DEFAULT_SEED)["jobs"]]
    assert ids[0] == "decompose --algebra A1 --rep 1 --power 1200"
    assert ids[-1] == "hook-check --max-power 12"
    session = workloads.build("session-t-sweep", workloads.DEFAULT_SEED)["jobs"]
    headline = [job for job in session if job["headline"]]
    assert len(headline) == 1 and headline[0]["t"] == [0.2, 0.1]


def test_hook_table_matches_small_cases():
    # V^4 of sl3: {(0,2): 2, (1,0): 3, (2,1): 3, (4,0): 1}, as in the README
    assert checks.hook_table(2, 4) == {(0, 2): 2, (1, 0): 3, (2, 1): 3, (4, 0): 1}
    assert sum(checks.hook_table(1, 10).values()) == 252  # central binomial C(10, 5)


@pytest.fixture(scope="module")
def smoke_sample_pass(tmp_path_factory):
    """One smoke pass of cli-sample, run through the real workers."""
    workload = workloads.build("cli-sample", 3, smoke=True)
    scratch = str(tmp_path_factory.mktemp("pass"))
    p = run.Run(workload, scratch, time.perf_counter()).one_pass(0, trace=False)
    return workload, p


def _failures(workload, p):
    attempted, failed, _ = run._check_passes(workload, [p], None)
    return attempted, failed


def test_untampered_pass_is_correct(smoke_sample_pass):
    workload, p = smoke_sample_pass
    assert _failures(workload, p) == (len(workload["jobs"]), 0)


def _tampered(path, edit):
    with open(path) as fh:
        original = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(original))
    return original


def _restore(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_scaled_probability_is_a_failure(smoke_sample_pass):
    workload, p = smoke_sample_pass
    index = next(i for i, job in enumerate(workload["jobs"]) if job["op"] == "measure")
    path = p["records"][index]["out"]

    def scale_largest(text):
        lines = text.splitlines()
        rank = len(workload["jobs"][index]["rep"])
        rows = [line.split(",") for line in lines[1:]]
        top = max(range(len(rows)), key=lambda i: float(rows[i][rank]))
        rows[top][rank] = repr(float(rows[top][rank]) * (1 + 1e-6))
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"

    original = _tampered(path, scale_largest)
    try:
        assert _failures(workload, p)[1] == 1
    finally:
        _restore(path, original)


def test_changed_trajectory_byte_is_a_failure(smoke_sample_pass):
    workload, p = smoke_sample_pass
    index = next(i for i, job in enumerate(workload["jobs"]) if job.get("paths"))
    path = p["records"][index]["paths"]

    def bump_last_digit(text):
        at = text.index("]]}") - 1  # last coordinate of the first chain's endpoint
        return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]

    original = _tampered(path, bump_last_digit)
    try:
        assert _failures(workload, p)[1] == 1
    finally:
        _restore(path, original)
    for swap in ((", ", ",\t"), ('"chain": 0', '"chain": 1')):
        original = _tampered(path, lambda text: text.replace(*swap, 1))
        try:
            assert _failures(workload, p)[1] == 1
        finally:
            _restore(path, original)


def test_multiplicity_plus_one_is_a_failure():
    job = next(j for j in workloads.build("cli-exact", 3, smoke=True)["jobs"] if j["op"] == "decompose")
    from tensorstat import build_root_system, tensor_power_decompose

    table = tensor_power_decompose(build_root_system(job["algebra"]), [(tuple(job["rep"]), job["power"])])
    text = table.to_json()
    checker = checks.Checker()
    assert checker.check(job, text) == []
    payload = json.loads(text)
    payload["entries"][0][1] = str(int(payload["entries"][0][1]) + 1)
    assert checker.check(job, json.dumps(payload))


def test_reference_digest_mismatch_is_a_failure():
    job = next(j for j in workloads.build("cli-exact", 3, smoke=True)["jobs"] if j["op"] == "decompose")
    from tensorstat import build_root_system, tensor_power_decompose

    text = tensor_power_decompose(build_root_system(job["algebra"]), [(tuple(job["rep"]), job["power"])]).to_json()
    assert checks.Checker({job["id"]: checks.digests(job, text, None)}).check(job, text) == []
    assert checks.Checker({job["id"]: {"output": "0" * 64}}).check(job, text)


def test_job_clock_takes_its_loops_out_of_the_job():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with speed.JobClock(ticks=True) as clock:
        clock.start()
        busy(1.0)
        clock.stop()
    # three loops before, about 2 inside (1 s at one per TICK_S), three after
    assert len(clock._samples) >= 2 * speed.REPEATS + 1
    assert 0.9 < clock.seconds < 1.0
    assert 0 < clock.probe_s < 1.0
    assert run._scaled(clock.seconds, speed.REFERENCE_S) == clock.seconds


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(name, trace):
    start = time.perf_counter()
    proc = _bench(["--workload", name, "--seed", "4", "--seconds", "1", "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    meta = json.loads(proc.stdout.strip().splitlines()[-2])["meta"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "seed", "jobs", "steal_share"):
        assert key in meta


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "cli-exact", "--seed", "1", "--seconds", "10", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
