"""Command-line entry points.

Subcommands map one-to-one onto library operations: decompose, measure,
asymptotic, limit-compare, sample, pde-check, hook-check, selftest.
Outputs go to stdout or --output; identical invocations produce
bit-identical bytes (fixed seeds, counter-based sampling streams,
sorted rows).  Decompositions are cached as JSON under TENSORSTAT_CACHE_DIR
(default ~/.cache/tensorstat), one file per problem keyed by a hash of
its canonical description (factor order does not matter), written
atomically and validated when read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance, markov
from .charalg import DecompositionTable, tensor_power_decompose
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    LegendreDomainError,
    NonRegularError,
    TensorstatError,
)
from .legendre import (
    asymptotic_log_multiplicity,
    forward_dual,
    rate_point,
    tensor_problem,
)
from .measures import character_measure, weak_convergence_distance
from .pde import pde_residual
from .rootsys import AlgebraSpec, build_root_system

USAGE_ERROR = 1
DOMAIN_ERROR = 2
CONSISTENCY_ERROR = 3


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated reals, got {text!r}") from exc


def _resolve_t(rs, args) -> tuple[float, ...] | None:
    if args.t is None:
        return None
    t = _parse_float_vector(args.t)
    if len(t) != rs.rank:
        raise DomainError(f"t must have {rs.rank} coordinates")
    if getattr(args, "t_basis", "root") == "weight":
        # convert fundamental-weight coordinates to the root basis
        t = tuple(float(v) for v in np.asarray(t) @ rs.cartan_inv_f.T)
    if not any(t):
        return None
    return t


def _build_factors(args) -> list[tuple[tuple[int, ...], int]]:
    reps = [_parse_int_vector(r) for r in args.rep]
    powers = args.power if args.power else [1] * len(reps)
    if len(powers) != len(reps):
        raise DomainError("need one --power per --rep (or none at all)")
    return list(zip(reps, powers))


def _cache_dir() -> Path:
    root = os.environ.get("TENSORSTAT_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "tensorstat"


def _cached_decompose(algebra: str, factors, use_cache: bool) -> DecompositionTable:
    rs = build_root_system(AlgebraSpec.parse(algebra))
    problem = tuple((tuple(nu), n) for nu, n in factors)
    key_src = json.dumps([algebra, sorted([list(f[0]), f[1]] for f in factors)])
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    path = _cache_dir() / f"{algebra}-{key}.json"
    if use_cache:
        table = _load_cached(path, str(rs.spec), problem)
        if table is not None:
            return table
    table = tensor_power_decompose(rs, factors)
    if use_cache:
        _write_atomic(path, table.to_json())
    return table


def _load_cached(path: Path, algebra: str, problem) -> DecompositionTable | None:
    """The cached table of `problem` (in its factor order), or None on a miss.

    A missing, truncated or malformed file, or one holding another problem,
    is a miss: the caller recomputes and rewrites it.  A file that parses
    but fails the dimension identity or the support cone is corrupt, and
    raises InternalConsistencyError.
    """
    try:
        cached = DecompositionTable.from_json(path.read_text())
    except (FileNotFoundError, ValueError, KeyError, TypeError, IndexError):
        return None
    if cached.algebra != algebra or sorted(cached.problem) != sorted(problem):
        return None
    # the key ignores factor order; the entries serve every order
    table = DecompositionTable(algebra=algebra, problem=problem, entries=cached.entries)
    try:
        valid = table.check_dimension_identity() and table.check_support_in_cone()
    except DomainError:  # a weight of the wrong length or off the dominant chamber
        valid = False
    if not valid:
        raise InternalConsistencyError(
            f"cached table {path} fails the dimension identity or the support cone; "
            "delete it or pass --no-cache"
        )
    return table


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_decompose(args) -> int:
    table = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
    if (args.format or "json") == "csv":
        lines = ["lambda,multiplicity"]
        for lam, mult in table.sorted_entries():
            lines.append(f"\"{','.join(str(c) for c in lam)}\",{mult}")
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(table.to_json(), args)
    return 0


def _cmd_measure(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    table = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
    t = _resolve_t(rs, args)
    m = character_measure(table, t=t, epsilon=args.epsilon)
    if (args.format or "csv") == "json":
        payload = {
            "algebra": m.algebra,
            "problem": [[list(nu), n] for nu, n in m.problem],
            "t": None if m.t is None else list(m.t),
            "epsilon": m.epsilon,
            "rows": [
                {
                    "weight": list(r.weight),
                    "probability": r.probability,
                    "asymptotic_log_probability": None if math.isnan(asym) else asym,
                    "scaled": list(r.scaled),
                }
                for r, asym in zip(m.rows, m.asymptotic_log_probabilities)
            ],
        }
        _emit(json.dumps(payload, indent=1), args)
    else:
        _emit(m.to_csv(), args)
    return 0


def _cmd_asymptotic(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    factors = _build_factors(args)
    problem = tensor_problem(rs, factors, args.epsilon)
    if args.xi is not None:
        xi = _parse_float_vector(args.xi)
        if len(xi) != rs.rank:
            raise DomainError(f"xi must have {rs.rank} coordinates")
        _emit(rate_point(problem, np.asarray(xi)).to_json(), args)
        return 0
    # per-weight comparison of exact multiplicities against the asymptotics
    table = _cached_decompose(args.algebra, factors, not args.no_cache)
    lines = ["lambda,multiplicity,log_multiplicity_asymptotic,ratio"]
    for lam, mult in table.sorted_entries():
        try:
            est = asymptotic_log_multiplicity(problem, lam)
            ratio = math.exp(est - math.log(mult))
            est_s, ratio_s = repr(est), repr(ratio)
        except (NonRegularError, LegendreDomainError, ConvergenceError):
            est_s, ratio_s = "nan", "nan"
        lines.append(f"\"{','.join(str(c) for c in lam)}\",{mult},{est_s},{ratio_s}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_limit_compare(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    table = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
    t = _resolve_t(rs, args)
    m = character_measure(table, t=t, epsilon=args.epsilon)
    report = weak_convergence_distance(m, args.kind)
    payload = {
        "algebra": args.algebra,
        "kind": args.kind,
        "t": None if t is None else list(t),
        "tv": report.tv,
        "exact_mass_in_grid": report.exact_mass_in_grid,
        "limit_mass_in_grid": report.limit_mass_in_grid,
        "cells": list(report.cells),
    }
    _emit(json.dumps(payload, indent=1), args)
    return 0


def _single_rep(args) -> tuple[int, ...]:
    """The factor of a one-factor command; a second --rep is an error, not ignored."""
    if len(args.rep) > 1:
        raise DomainError(f"{args.command} takes one --rep, got {len(args.rep)}")
    return _parse_int_vector(args.rep[0])


def _cmd_sample(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    rep = _single_rep(args)
    if args.power:
        raise DomainError("sample takes no --power; the walk length is --steps")
    t = _resolve_t(rs, args)
    keep = args.paths is not None
    markov._check_sampling(args.steps, args.chains, args.seed)
    # one kernel for both runs; evolving first keeps evolve_exact's state order
    kernel = markov.TransitionKernel(rs, rep, t)
    exact = markov._evolve(kernel, args.steps, args.epsilon)
    empirical, trajectories = markov._sample(kernel, args.steps, args.chains, args.seed, args.epsilon, keep)
    if keep:
        Path(args.paths).write_text(markov.trajectories_to_jsonl(trajectories))
    pe, pc = empirical.probabilities(), exact.probabilities()
    tv = 0.5 * sum(abs(pe.get(w, 0.0) - pc.get(w, 0.0)) for w in set(pe) | set(pc))
    payload = {
        "algebra": args.algebra,
        "rep": list(rep),
        "t": None if t is None else list(t),
        "steps": args.steps,
        "chains": args.chains,
        "seed": args.seed,
        "tv_empirical_vs_exact": tv,
        "endpoints": {
            ",".join(str(c) for c in w): p for w, p in sorted(pe.items())
        },
    }
    _emit(json.dumps(payload, indent=1), args)
    return 0


def _cmd_pde_check(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    rep = _single_rep(args)
    if args.power and len(args.power) > 1:
        raise DomainError(f"pde-check takes at most one --power, got {len(args.power)}")
    n = args.power[0] if args.power else 10
    problem = tensor_problem(rs, [(rep, n)], args.epsilon)
    if args.grid < 1:
        raise DomainError(f"--grid must be at least 1, got {args.grid}")
    lines = ["y,xi,residual,fd_deviation"]
    worst_res = worst_dev = 0.0
    grid = np.linspace(-1.0, 1.0, args.grid)
    for point in np.ndindex(*([args.grid] * rs.rank)):
        y = np.array([grid[i] for i in point])
        xi = forward_dual(problem, y)
        report = pde_residual(problem, xi)
        dev = report.derivatives.max_deviation
        worst_res = max(worst_res, report.residual)
        worst_dev = max(worst_dev, dev)
        lines.append(
            f"\"{','.join(repr(float(v)) for v in y)}\",\"{','.join(repr(float(v)) for v in xi)}\","
            f"{report.residual!r},{float(dev)!r}"
        )
    lines.append(f"# worst residual {worst_res!r}, worst fd deviation {worst_dev!r}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_hook_check(args) -> int:
    if args.max_power < 1:
        raise DomainError(f"--max-power must be at least 1, got {args.max_power}")
    matches = [ok for *_, ok in acceptance.hook_sweep(args.max_power)]
    failures = matches.count(False)
    _emit(f"hook-check: {len(matches)} multiplicities, {failures} mismatches\n", args)
    if failures:
        raise InternalConsistencyError(f"{failures} hook mismatches")
    return 0


def _cmd_selftest(args) -> int:
    indices = None
    if args.criteria:
        indices = _parse_int_vector(args.criteria)
        unknown = sorted(set(indices) - set(acceptance.ALL_CRITERIA))
        if unknown:
            known = acceptance.ALL_CRITERIA
            raise DomainError(f"unknown criteria {unknown}; choose from {min(known)}-{max(known)}")
    with open(args.output, "w") if args.output else contextlib.nullcontext() as stream:
        results = acceptance.run(indices, stream=stream)
    return 0 if all(r.passed for r in results) else CONSISTENCY_ERROR


def _add_problem_arguments(sub) -> None:
    sub.add_argument("--algebra", required=True, help="family plus rank, e.g. A2, B2, G2")
    sub.add_argument(
        "--rep",
        action="append",
        required=True,
        help="fundamental-weight coordinates, e.g. 1,0,2; repeat for multiple factors",
    )
    sub.add_argument(
        "--power",
        action="append",
        type=int,
        help="tensor power for the matching --rep (default 1 each)",
    )
    sub.add_argument("--epsilon", type=float, default=None, help="scale parameter (default 1/sum of powers)")
    sub.add_argument("--no-cache", action="store_true", help="bypass the decomposition cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorstat",
        description="Exact tensor product decompositions and their large-N asymptotics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report to a file instead of stdout")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="report format (default: csv for tables, json for records)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common], help="exact decomposition table")
    _add_problem_arguments(p)

    p = sub.add_parser("measure", parents=[common], help="character measure with asymptotics")
    _add_problem_arguments(p)
    p.add_argument("--t", help="temperature, comma-separated root-basis reals")
    p.add_argument("--t-basis", choices=("root", "weight"), default="root")

    p = sub.add_parser(
        "asymptotic", parents=[common], help="rate point at --xi, or per-weight comparison CSV"
    )
    _add_problem_arguments(p)
    p.add_argument("--xi", help="scaled weight, comma-separated root-basis reals")

    p = sub.add_parser(
        "limit-compare", parents=[common], help="TV distance between scaled measure and limit law"
    )
    _add_problem_arguments(p)
    p.add_argument("--t", help="temperature, comma-separated root-basis reals")
    p.add_argument("--t-basis", choices=("root", "weight"), default="root")
    p.add_argument("--kind", choices=("gaussian", "plancherel", "intermediate"), required=True)

    p = sub.add_parser("sample", parents=[common], help="Markov chain Monte Carlo endpoint measure")
    _add_problem_arguments(p)
    p.add_argument("--t", help="temperature, comma-separated root-basis reals")
    p.add_argument("--t-basis", choices=("root", "weight"), default="root")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--chains", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; sampling runs in one thread"
    )
    p.add_argument("--paths", help="write trajectories to this JSONL file")

    p = sub.add_parser("pde-check", parents=[common], help="rate-function PDE residual grid")
    _add_problem_arguments(p)
    p.add_argument("--grid", type=int, default=10)

    p = sub.add_parser(
        "hook-check", parents=[common], help="type-A hook-multiplicity oracle sweep"
    )
    p.add_argument("--max-power", type=int, default=10)

    p = sub.add_parser("selftest", parents=[common], help="run acceptance criteria")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,4,12")

    return parser


_COMMANDS = {
    "decompose": _cmd_decompose,
    "measure": _cmd_measure,
    "asymptotic": _cmd_asymptotic,
    "limit-compare": _cmd_limit_compare,
    "sample": _cmd_sample,
    "pde-check": _cmd_pde_check,
    "hook-check": _cmd_hook_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract says 1
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (InternalConsistencyError, ConvergenceError) as exc:
        return _fail(str(exc), CONSISTENCY_ERROR)
    except TensorstatError as exc:
        return _fail(str(exc), DOMAIN_ERROR)
    except Exception as exc:  # the CLI boundary: one line and exit 3, never a traceback
        return _fail(f"{type(exc).__name__}: {exc}", CONSISTENCY_ERROR)


def _fail(message: str, code: int) -> int:
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
