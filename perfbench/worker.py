"""Runs benchmark jobs in a fresh interpreter and writes their timings.

Usage: python3 worker.py REQUEST.json RESULT.json

The request names the source tree to import, the jobs, the directory for
outputs and whether to trace.  ``setup_s`` runs from before
``import tensorstat`` to the end of building the job inputs.  Each job's
time runs from the call into ``tensorstat.cli.main`` (or the library call)
to its return, with output captured; outputs are written after the clock
stops, and the result JSON after all jobs.  The reference loop of
``speed.py`` is timed after the set-up and around and inside each job, its
time taken out of the job's, so that the run can scale both to a fixed CPU
speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import speed
from tracing import Tracer

CACHE_OPS = ("decompose", "measure", "asymptotic")


def _cache_listing(path: str) -> dict[str, tuple[int, int]]:
    try:
        return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(path)}
    except FileNotFoundError:
        return {}


def _run_cli(cli, job, argv, request, clock):
    """Time one `cli.main(argv)` call; return (record, stdout text)."""
    before = _cache_listing(request["cache_dir"])
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        clock.start()
        try:
            rc = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        clock.stop()
    cache = None
    if job["op"] in CACHE_OPS:
        cache = "hit" if _cache_listing(request["cache_dir"]) == before else "miss"
    return {"rc": rc, "error": error or err.getvalue() or None, "cache": cache}, out.getvalue()


def _run_library(ts, job, rs, t, tables, clock):
    """Time one library call; return (record, result object or None)."""
    result, error = None, None
    clock.start()
    try:
        if job["op"] == "decompose":
            result = ts.tensor_power_decompose(rs, [(tuple(job["rep"]), job["power"])])
        elif job["op"] == "measure":
            result = ts.character_measure(tables[job["table"]], t=t)
        else:
            result = ts.evolve_exact(rs, tuple(job["rep"]), t, job["steps"])
    except Exception:
        error = traceback.format_exc()
    clock.stop()
    return {"rc": 0 if error is None else None, "error": error, "cache": None}, result


def _library_text(job, result) -> str:
    if job["op"] == "decompose":
        return result.to_json()
    return json.dumps({"rows": [[list(r.weight), r.probability] for r in result.rows]})


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        request = json.load(fh)
    jobs, out_dir = request["jobs"], request["out_dir"]

    start = perf_counter()
    sys.path.insert(0, request["src"])
    import tensorstat as ts

    if request["mode"] == "cli":
        import tensorstat.cli as cli

        inputs = [
            list(job["argv"]) + (["--paths", os.path.join(out_dir, f"{i}.paths.jsonl")] if job.get("paths") else [])
            for i, job in enumerate(jobs)
        ]
    else:
        import numpy as np

        inputs = [
            (ts.build_root_system(job["algebra"]), None if job["t"] is None else np.array(job["t"]))
            for job in jobs
        ]
    setup_s = perf_counter() - start
    setup_probe_s = speed.probe()
    if not os.path.abspath(ts.__file__).startswith(os.path.abspath(request["src"]) + os.sep):
        print(f"tensorstat imported from {ts.__file__}, not from {request['src']}", file=sys.stderr)
        return 2

    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    records = []
    tables = {}
    for index, job in enumerate([] if request.get("setup_only") else jobs):
        if tracer is not None:
            tracer.job = index
        # no loop inside traced jobs: it would land in the self time of their spans
        with speed.JobClock(ticks=tracer is None) as clock:
            if request["mode"] == "cli":
                record, text = _run_cli(cli, job, inputs[index], request, clock)
            else:
                record, result = _run_library(ts, job, *inputs[index], tables, clock)
        if tracer is not None:
            tracer.job = None
        record.update(seconds=clock.seconds, probe_s=clock.probe_s)
        if request["mode"] == "session":
            text = ""
            if result is not None:
                text = _library_text(job, result)
                if job["op"] == "decompose":
                    tables[job["id"]] = result
        record["out"] = os.path.join(out_dir, f"{index}.out")
        record["paths"] = os.path.join(out_dir, f"{index}.paths.jsonl") if job.get("paths") else None
        with open(record["out"], "w") as fh:
            fh.write(text)
        records.append(record)

    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": records,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
