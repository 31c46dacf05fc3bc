"""Spans and counts recorded around calls into tensorstat's public functions.

Nothing here lives in the package: ``Tracer.install`` replaces functions and
methods with recording wrappers from the outside.  A name bound with
``from .x import y`` is a separate binding in every importing module, so each
binding that refers to the original function is replaced.

A span is ``[id, parent id, name, start, end, job, extra]``; spans stay in
memory and the worker writes them out when its jobs end.  ``layer_metrics``
turns the spans of one pass into the per-layer metrics.  A span's self time
is its duration minus the durations of its nearest timed descendants.  The
spans named in ``INNER`` are only counted (Newton iterations and line-search
evaluations inside ``legendre_dual``): their time stays with the timed span
around them, so ``legendre.rate_point.self_s`` includes its own solve.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from time import perf_counter

# (module, function, kind); kind "span" records a span, "count" only counts
FUNCTIONS = (
    ("rootsys", "enumerate_weyl_group", "span"),
    ("rootsys", "dominant_reflect", "count"),
    ("charalg", "klimyk_tensor_step", "span"),
    ("charalg", "weight_multiplicities", "span"),
    ("charalg", "character_value", "span"),
    ("charalg", "weyl_dimension", "span"),
    ("legendre", "rate_point", "span"),
    ("legendre", "legendre_dual", "span"),
    ("legendre", "f_grad_hess", "span"),
    ("legendre", "f_eval", "span"),
    ("measures", "assemble_measure_table", "span"),
    ("measures", "plancherel_measure", "span"),
    ("measures", "character_probabilities", "span"),
    ("markov", "evolve_exact", "span"),
    ("markov", "sample_paths", "span"),
    ("markov", "trajectories_to_jsonl", "span"),
    ("pde", "pde_residual", "span"),
    ("cli", "main", "span"),
)
# (module, class, method); row building has no public entry of its own
METHODS = (
    ("charalg", "DecompositionTable", "from_json"),
    ("charalg", "DecompositionTable", "to_json"),
    ("measures", "MeasureTable", "to_csv"),
    ("legendre", "RatePoint", "to_json"),
    ("markov", "TransitionKernel", "_build_row"),
)
INNER = {"legendre.legendre_dual", "legendre.f_grad_hess", "legendre.f_eval"}
ENCODE = {"charalg.DecompositionTable.to_json", "measures.MeasureTable.to_csv", "legendre.RatePoint.to_json"}


class Tracer:
    """Per-process span and count registry; records only while `job` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.job: int | None = None
        self._stack: list[list] = []
        self._seen_weight_systems: set = set()

    def install(self) -> None:
        """Wrap every traced function in every loaded tensorstat module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tensorstat" or n.startswith("tensorstat.")]
        originals = {}
        for mod_name, fn_name, kind in FUNCTIONS:
            if f"tensorstat.{mod_name}" not in sys.modules:
                continue  # the CLI is not imported by library sessions
            original = getattr(sys.modules[f"tensorstat.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            originals[name] = original
            wrapper = self._counter(name, original) if kind == "count" else self._span(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        self._weight_multiplicities = originals["charalg.weight_multiplicities"]
        self._signatures = {
            name: inspect.signature(originals[name])
            for name in ("charalg.klimyk_tensor_step", "markov.sample_paths")
        }
        for mod_name, cls_name, meth_name in METHODS:
            cls = getattr(sys.modules[f"tensorstat.{mod_name}"], cls_name)
            raw = vars(cls)[meth_name]
            name = f"{mod_name}.{cls_name}.{meth_name}"
            if isinstance(raw, classmethod):
                setattr(cls, meth_name, classmethod(self._span(name, raw.__func__)))
            else:
                setattr(cls, meth_name, self._span(name, raw))

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            if self.job is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = getattr(self, "_extra_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, self.job, None]
            spans.append(rec)
            stack.append(rec)
            ok = False
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if not ok:
                    rec[6] = {"error": 1}
            if extra is not None:
                rec[6] = extra(args, kwargs, result)
            return result

        return traced

    # extras: counts attached to a span after it ends, outside its duration

    def _extra_charalg_klimyk_tensor_step(self, args, kwargs, result):
        bound = self._signatures["charalg.klimyk_tensor_step"].bind(*args, **kwargs).arguments
        weights = self._weight_multiplicities(bound["rs"], bound["nu"]).multiplicities
        return {"terms": len(bound["table"]) * len(weights)}

    def _extra_charalg_weight_multiplicities(self, args, kwargs, result):
        # the package cache never evicts, so the first call for a key is its miss
        key = (str(result.rs.spec), result.highest)
        if key in self._seen_weight_systems:
            return None
        self._seen_weight_systems.add(key)
        return {"miss": 1, "weights": len(result.multiplicities)}

    def _extra_markov_sample_paths(self, args, kwargs, result):
        bound = self._signatures["markov.sample_paths"].bind(*args, **kwargs).arguments
        return {"chain_steps": int(bound["N"]) * int(bound["chains"])}

    def _extra_markov_trajectories_to_jsonl(self, args, kwargs, result):
        return {"bytes": len(result.encode())}

    def _extra_measures_assemble_measure_table(self, args, kwargs, result):
        return {"rows": len(result.rows)}


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(workers: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its workers' spans and counts.

    `workers` holds the result of each worker process: its "spans",
    "counts", and per-job "jobs" records whose "cache" field is "hit",
    "miss" or None.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    extra: dict[str, float] = {}
    counts: dict[str, int] = {}
    char_attempts = char_accepted = char_fallback = 0
    solves = newton = linesearch = 0
    hits = misses = 0
    for worker in workers:
        spans = worker["spans"]
        for name, n in worker["counts"].items():
            counts[name] = counts.get(name, 0) + n
        outcomes = [job["cache"] for job in worker["jobs"]]
        hits += outcomes.count("hit")
        misses += outcomes.count("miss")
        by_id = {s[0]: s for s in spans}
        covered: dict[int, float] = {}
        children: dict[int, list[str]] = {}
        for s in spans:
            children.setdefault(s[1], []).append(s[2])
            if s[2] in INNER:
                continue
            parent = s[1]
            while parent != -1 and by_id[parent][2] in INNER:
                parent = by_id[parent][1]
            if parent != -1:
                covered[parent] = covered.get(parent, 0.0) + (s[4] - s[3])
        for s in spans:
            sid, _, name, start, end, _, ext = s
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
            for key, value in (ext or {}).items():
                extra[f"{name}.{key}"] = extra.get(f"{name}.{key}", 0) + value
            kids = children.get(sid, ())
            if name == "charalg.character_value" and "rootsys.enumerate_weyl_group" in kids:
                char_attempts += 1
                if "charalg.weight_multiplicities" in kids:
                    char_fallback += 1
                else:
                    char_accepted += 1
            elif name == "legendre.legendre_dual":
                solves += 1
                newton += kids.count("legendre.f_grad_hess")
                linesearch += kids.count("legendre.f_eval")

    def c(name):
        return calls.get(name, 0)

    def st(name):
        return self_s.get(name, 0.0)

    def x(key):
        return extra.get(key, 0)

    ws_calls, ws_misses = c("charalg.weight_multiplicities"), x("charalg.weight_multiplicities.miss")
    klimyk_terms = x("charalg.klimyk_tensor_step.terms")
    chain_steps = x("markov.sample_paths.chain_steps")
    return {
        "rootsys.weyl_group.calls": c("rootsys.enumerate_weyl_group"),
        "rootsys.weyl_group.self_s": st("rootsys.enumerate_weyl_group"),
        "rootsys.dominant_reflect.calls": counts.get("rootsys.dominant_reflect", 0),
        "charalg.klimyk.calls": c("charalg.klimyk_tensor_step"),
        "charalg.klimyk.self_s": st("charalg.klimyk_tensor_step"),
        "charalg.klimyk.terms": klimyk_terms,
        "charalg.klimyk.terms_per_s": _ratio(klimyk_terms, st("charalg.klimyk_tensor_step")),
        "charalg.weight_system.calls": ws_calls,
        "charalg.weight_system.misses": ws_misses,
        "charalg.weight_system.hit_ratio": _ratio(ws_calls - ws_misses, ws_calls),
        "charalg.weight_system.self_s": st("charalg.weight_multiplicities"),
        "charalg.weight_system.weights_built": x("charalg.weight_multiplicities.weights"),
        "charalg.character.calls": c("charalg.character_value"),
        "charalg.character.self_s": st("charalg.character_value"),
        "charalg.character.quotient_attempts": char_attempts,
        "charalg.character.quotient_accept_ratio": _ratio(char_accepted, char_attempts),
        "charalg.character.fallback_ratio": _ratio(char_fallback, c("charalg.character_value")),
        "charalg.weyl_dimension.calls": c("charalg.weyl_dimension"),
        "charalg.weyl_dimension.self_s": st("charalg.weyl_dimension"),
        "legendre.rate_point.calls": c("legendre.rate_point"),
        "legendre.rate_point.self_s": st("legendre.rate_point"),
        "legendre.rate_point.failed_ratio": _ratio(x("legendre.rate_point.error"), c("legendre.rate_point")),
        "legendre.newton.iters_per_solve": _ratio(newton, solves),
        "legendre.linesearch.evals_per_solve": _ratio(linesearch, solves),
        "measures.assemble.self_s": st("measures.assemble_measure_table"),
        "measures.assemble.rows": x("measures.assemble_measure_table.rows"),
        "measures.plancherel.self_s": st("measures.plancherel_measure"),
        "measures.character_probabilities.self_s": st("measures.character_probabilities"),
        "markov.kernel.rows_built": c("markov.TransitionKernel._build_row"),
        "markov.kernel.build_s": total_s.get("markov.TransitionKernel._build_row", 0.0),
        "markov.evolve.self_s": st("markov.evolve_exact"),
        "markov.sample.self_s": st("markov.sample_paths"),
        "markov.sample.chain_steps": chain_steps,
        "markov.sample.chain_steps_per_s": _ratio(chain_steps, total_s.get("markov.sample_paths", 0.0)),
        "markov.paths_jsonl.self_s": st("markov.trajectories_to_jsonl"),
        "markov.paths_jsonl.bytes": x("markov.trajectories_to_jsonl.bytes"),
        "pde.residual.calls": c("pde.pde_residual"),
        "pde.residual.self_s": st("pde.pde_residual"),
        "cli.cache.hits": hits,
        "cli.cache.misses": misses,
        "cli.cache.decode_s": st("charalg.DecompositionTable.from_json"),
        "cli.encode_s": sum(st(name) for name in ENCODE),
        "cli.main.self_s": st("cli.main"),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes."""
    return {key: float(statistics.median(p[key] for p in per_pass)) for key in per_pass[0]}
