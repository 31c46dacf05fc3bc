"""tensorstat benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload cli-exact --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run repeats passes over the workload's job list
until the next pass would overrun ``--seconds``.  Each pass uses fresh
interpreters (one per job for CLI workloads, one per pass for the library
session) and a fresh decomposition cache.  Timings are per-job medians
over the passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the run metadata and the per-job medians.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
# set-up-only interpreters for the session, which starts one interpreter per pass
SETUP_PROBES = 4
# every process the run starts must end well inside the 180 s limit
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _proc_stat_cpu() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None


def _metadata(workload: dict, seed: int, stat_before, stat_after) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    steal = None
    if stat_before and stat_after:
        delta = [b - a for a, b in zip(stat_before, stat_after)]
        steal = delta[7] / sum(delta) if sum(delta) else 0.0
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": commit,
        "workload": workload["name"],
        "seed": seed,
        "jobs": len(workload["jobs"]),
        "steal_share": steal,
    }


class Run:
    """One benchmark run: a scratch directory, worker processes and their results."""

    def __init__(self, workload: dict, scratch: str, started: float):
        self.workload = workload
        self.scratch = scratch
        self.started = started
        self.workers = 0

    def worker(self, jobs: list[dict], out_dir: str, cache_dir: str, trace: bool, setup_only=False) -> dict:
        self.workers += 1
        request = os.path.join(self.scratch, f"request-{self.workers}.json")
        result = os.path.join(self.scratch, f"result-{self.workers}.json")
        with open(request, "w") as fh:
            json.dump({"src": SRC, "mode": self.workload["mode"], "jobs": jobs, "out_dir": out_dir,
                       "cache_dir": cache_dir, "trace": trace, "setup_only": setup_only}, fh)
        env = dict(os.environ, TENSORSTAT_CACHE_DIR=cache_dir, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        timeout = DEADLINE_S - (perf_counter() - self.started)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request, result],
                                  env=env, cwd=self.scratch, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not os.path.exists(result):
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result) as fh:
            return json.load(fh)

    def one_pass(self, index: int, trace: bool) -> dict:
        """Run every job once; return per-job records plus worker data."""
        out_dir = os.path.join(self.scratch, f"pass-{index}")
        cache_dir = os.path.join(out_dir, "cache")
        os.makedirs(out_dir)
        jobs = self.workload["jobs"]
        if self.workload["mode"] == "session":
            workers = [self.worker(jobs, out_dir, cache_dir, trace)]
        else:
            workers = []
            for i, job in enumerate(jobs):
                sub = os.path.join(out_dir, f"job-{i}")
                os.makedirs(sub)
                workers.append(self.worker([job], sub, cache_dir, trace))
        records = [rec for w in workers for rec in w["jobs"]]
        return {"traced": trace, "records": records, "workers": workers}


def _read(path):
    if path is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def _check_passes(workload: dict, passes: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    from checks import Checker, sha256

    checker = Checker(reference)
    memo: dict = {}
    attempted = failed = 0
    failures = []
    for p in passes:
        for job, rec in zip(workload["jobs"], p["records"]):
            attempted += 1
            if rec["rc"] != 0 or rec["error"]:
                problems = [f"exit {rec['rc']}: {(rec['error'] or '').strip()[-500:]}"]
            else:
                text, paths_text = _read(rec["out"]), _read(rec["paths"])
                key = (job["id"], sha256(text or ""), sha256(paths_text or ""))
                if key not in memo:
                    memo[key] = checker.check(job, text or "", paths_text)
                problems = memo[key]
            if problems:
                failed += 1
                failures.append(f"{job['id']}: {problems[0]}")
    return attempted, failed, failures


def _scaled(seconds: float, probe_s: float) -> float:
    """`seconds` at the reference CPU speed of speed.py."""
    return seconds * REFERENCE_S / probe_s


def _end_to_end(workload: dict, passes: list[dict], setups: list[float], rss_kb: int) -> tuple[dict, list]:
    jobs = workload["jobs"]
    for p in passes:
        for r in p["records"]:
            r["scaled_s"] = _scaled(r["seconds"], r["probe_s"])
    per_job = [statistics.median(p["records"][i]["scaled_s"] for p in passes) for i in range(len(jobs))]
    headline = next(i for i, job in enumerate(jobs) if job["headline"])
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "headline_s": (per_job[headline], "s"),
        "job_p50_s": (statistics.median(r["scaled_s"] for p in passes for r in p["records"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    table = [{"id": job["id"], "median_s": t,
              "plain_median_s": statistics.median(p["records"][i]["seconds"] for p in passes),
              "samples": [p["records"][i]["seconds"] for p in passes],
              "probes": [p["records"][i]["probe_s"] for p in passes]}
             for i, (job, t) in enumerate(zip(jobs, per_job))]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, table


def _layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "share"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _per_layer(passes: list[dict]) -> tuple[dict, list]:
    from tracing import layer_metrics, median_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        metrics = layer_metrics(p["workers"])
        metrics["trace.wall_s"] = sum(r["seconds"] for r in p["records"])
        per_pass.append(metrics)
    metrics = median_metrics(per_pass)
    # both sides at the reference speed, since the passes ran in different speed phases
    def scaled_wall(group):
        return statistics.median(sum(_scaled(r["seconds"], r["probe_s"]) for r in p["records"]) for p in group)

    metrics["trace.overhead_ratio"] = scaled_wall(traced) / scaled_wall(plain) - 1.0
    spans = [[i] + s for i, w in enumerate(traced[-1]["workers"]) for s in w["spans"]]
    return {k: {"value": v, "unit": _layer_units(k)} for k, v in metrics.items()}, spans


def _write_reference(workload: dict, first_pass: dict) -> None:
    from checks import digests

    table = {}
    for job, rec in zip(workload["jobs"], first_pass["records"]):
        d = digests(job, _read(rec["out"]), _read(rec["paths"]))
        if d:
            table[job["id"]] = d
    stored = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            stored = json.load(fh)
    stored[workload["name"]] = table
    with open(REFERENCE, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, write_reference: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "tensorstat", "__init__.py")):
        raise HarnessError(f"no tensorstat sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    started = perf_counter()
    workload = workloads.build(name, seed, smoke)
    reference = None
    if seed == workloads.DEFAULT_SEED and not smoke and not write_reference:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[name]
    stat_before = _proc_stat_cpu()
    os.makedirs(STATE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    try:
        r = Run(workload, scratch, started)
        probe_dir = os.path.join(scratch, "probe")
        os.makedirs(probe_dir)
        probes = [r.worker(workload["jobs"], probe_dir, probe_dir, False, setup_only=True)
                  for _ in range(SETUP_PROBES if workload["mode"] == "session" else 0)]
        passes = []
        loop_start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(r.one_pass(len(passes), traced))
            now = perf_counter()
            next_end = now - started + (now - loop_start) / len(passes)
            need_trace_pair = trace and len(passes) < 2
            if write_reference or (not need_trace_pair and next_end > seconds):
                break
        workers = probes + [w for p in passes for w in p["workers"]]
        attempted, failed, failures = _check_passes(workload, passes, reference)
        if write_reference:
            if failed:
                raise HarnessError("not writing a reference from failing outputs: " + "; ".join(failures))
            _write_reference(workload, passes[0])
        if trace:
            metrics, spans = _per_layer(passes)
            with open(os.path.join(STATE_DIR, f"spans-{name}.json"), "w") as fh:
                json.dump(spans, fh)
            jobs_table = []
        else:
            setups = [_scaled(w["setup_s"], w["setup_probe_s"]) for w in workers]
            metrics, jobs_table = _end_to_end(workload, passes, setups, max(w["rss_kb"] for w in workers))
        meta = _metadata(workload, seed, stat_before, _proc_stat_cpu())
        meta.update(passes=len(passes), attempted=attempted, failed=failed,
                    failed_ratio=failed / attempted, elapsed_s=perf_counter() - started)
        print(json.dumps({"meta": meta, "jobs": jobs_table, "failures": failures}))
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-exact", "session-t-sweep", "cli-sample"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass (tests)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's output digests in reference.json")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.write_reference)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
