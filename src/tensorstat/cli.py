"""Command-line entry points.

Subcommands map one-to-one onto library operations: decompose, measure,
asymptotic, limit-compare, sample, pde-check, hook-check, selftest.
Each takes only the flags it reads (_COMMANDS); any other flag is a
usage error, which like every failure prints one error: line.  A call in
the canonical form COMMAND (--flag VALUE | --switch)... is read straight
from the flag table (_read_argv) and never loads argparse; --help and
every other form (abbreviations, --flag=value, values starting with "-",
usage errors) go to build_parser, which renders help and errors.
Outputs go to stdout or --output; identical invocations produce
bit-identical bytes (fixed seeds, counter-based sampling streams,
sorted rows).  Decompositions are cached as JSON under TENSORSTAT_CACHE_DIR
(default ~/.cache/tensorstat), one file per problem named by the CRC-32
of its canonical description (factor order does not matter), written
atomically and validated when read.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import markov
from .charalg import DecompositionTable, tensor_power_decompose
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    TensorstatError,
)
from .legendre import _log_multiplicity_rows, forward_dual, rate_point, tensor_problem
from .measures import character_measure, weak_convergence_distance
from .pde import _pde_rows
from .rootsys import AlgebraSpec, build_root_system
from .slnhook import hook_sweep

if TYPE_CHECKING:
    import argparse

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
    if args.t_basis == "weight":
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


def _cached_decompose(algebra: str, factors, use_cache: bool) -> tuple[DecompositionTable, str | None]:
    """The decomposition of factors, and its JSON text when this call wrote it to the cache, else None.

    The cache file is <algebra>-<crc32>.json, the CRC-32 (zlib, 8 hex
    digits) of the canonical JSON [algebra, sorted [nu, N] pairs].  Two
    problems that share a name overwrite each other's file: _load_cached
    compares the stored problem, so a collision is a miss, never a wrong
    table.
    """
    rs = build_root_system(AlgebraSpec.parse(algebra))
    problem = tuple((tuple(nu), n) for nu, n in factors)
    key_src = json.dumps([algebra, sorted([list(f[0]), f[1]] for f in factors)])
    path = _cache_dir() / f"{algebra}-{zlib.crc32(key_src.encode()):08x}.json"
    if use_cache:
        table = _load_cached(path, str(rs.spec), problem)
        if table is not None:
            return table, None
    table = tensor_power_decompose(rs, factors)
    if not use_cache:
        return table, None
    text = table.to_json()
    _write_atomic(path, text)
    return table, text


def _load_cached(path: Path, algebra: str, problem) -> DecompositionTable | None:
    """The cached table of `problem` (in its factor order), or None on a miss.

    A missing, truncated or malformed file, or one holding another problem
    (a CRC-32 collision of the two problems' keys), is a miss: the caller
    recomputes and rewrites it.  A file that parses but fails the
    dimension identity or the support cone is corrupt, and raises
    InternalConsistencyError.
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
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_decompose(args) -> int:
    table, text = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
    if (args.format or "json") == "csv":
        lines = ["lambda,multiplicity"]
        for lam, mult in table.sorted_entries():
            lines.append(f"\"{','.join(str(c) for c in lam)}\",{mult}")
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(text or table.to_json(), args)
    return 0


def _cmd_measure(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    table, _ = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
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
    entries = _cached_decompose(args.algebra, factors, not args.no_cache)[0].sorted_entries()
    _, estimates, _ = _log_multiplicity_rows(problem, [lam for lam, _ in entries])
    lines = ["lambda,multiplicity,log_multiplicity_asymptotic,ratio"]
    for (lam, mult), est in zip(entries, estimates.tolist()):
        est_s, ratio_s = "nan", "nan"
        if not math.isnan(est):
            est_s, ratio_s = repr(est), repr(math.exp(est - math.log(mult)))
        lines.append(f"\"{','.join(str(c) for c in lam)}\",{mult},{est_s},{ratio_s}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_limit_compare(args) -> int:
    rs = build_root_system(AlgebraSpec.parse(args.algebra))
    table, _ = _cached_decompose(args.algebra, _build_factors(args), not args.no_cache)
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
    t = _resolve_t(rs, args)
    keep = args.paths is not None
    markov._check_sampling(args.steps, args.chains, args.seed)
    # one kernel for both runs; evolving first keeps evolve_exact's state order
    kernel = markov.TransitionKernel(rs, rep, t)
    sids, exact = markov._evolve(kernel, args.steps)
    with open(args.paths, "w") if keep else contextlib.nullcontext() as stream:
        on_paths = markov._paths_writer(stream, kernel, args.seed) if keep else None
        counts = markov._sample(kernel, args.steps, args.chains, args.seed, on_paths)
    # the two laws on state ids; the TV sums |empirical - exact| over every state
    empirical = counts / args.chains
    gap = empirical.copy()
    gap[sids] -= exact
    ends = np.flatnonzero(counts)
    endpoints = sorted(zip(map(kernel.state, ends.tolist()), empirical[ends].tolist()))
    payload = {
        "algebra": args.algebra,
        "rep": list(rep),
        "t": None if t is None else list(t),
        "steps": args.steps,
        "chains": args.chains,
        "seed": args.seed,
        "tv_empirical_vs_exact": 0.5 * math.fsum(np.abs(gap).tolist()),
        "endpoints": {",".join(str(c) for c in w): p for w, p in endpoints},
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
    ys = [np.array([grid[i] for i in point]) for point in np.ndindex(*([args.grid] * rs.rank))]
    xis = [forward_dual(problem, y) for y in ys]
    for y, xi, report in zip(ys, xis, _pde_rows(problem, np.array(xis))):
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
    matches = [ok for *_, ok in hook_sweep(args.max_power)]
    failures = matches.count(False)
    _emit(f"hook-check: {len(matches)} multiplicities, {failures} mismatches\n", args)
    if failures:
        raise InternalConsistencyError(f"{failures} hook mismatches")
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance  # only selftest loads the acceptance suite

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


# every flag of the CLI, with its argparse keywords
_FLAGS = {
    "--algebra": dict(required=True, help="family plus rank, e.g. A2, B2, G2"),
    "--rep": dict(action="append", required=True, help="fundamental-weight coordinates, e.g. 1,0,2; repeat per factor"),
    "--power": dict(action="append", type=int, help="tensor power for the matching --rep (default 1 each)"),
    "--epsilon": dict(type=float, help="scale parameter (default 1/sum of powers)"),
    "--no-cache": dict(action="store_true", help="bypass the decomposition cache"),
    "--t": dict(help="temperature, comma-separated root-basis reals"),
    "--t-basis": dict(choices=("root", "weight"), default="root"),
    "--xi": dict(help="scaled weight, comma-separated root-basis reals"),
    "--kind": dict(choices=("gaussian", "plancherel", "intermediate"), required=True),
    "--steps": dict(type=int, required=True),
    "--chains": dict(type=int, required=True),
    "--seed": dict(type=int, default=0),
    "--threads": dict(type=int, default=1, help="accepted and ignored; sampling runs in one thread"),
    "--paths": dict(help="write trajectories to this JSONL file"),
    "--grid": dict(type=int, default=10),
    "--max-power": dict(type=int, default=10),
    "--criteria": dict(help="comma-separated subset, e.g. 1,4,12"),
    "--format": dict(choices=("csv", "json"), help="report format (default: json for decompose, csv for measure)"),
    "--output": dict(help="write the report to a file instead of stdout"),
}
_PROBLEM, _T = ("--algebra", "--rep", "--power"), ("--t", "--t-basis")

# each subcommand: the function that runs it, its help line, and the flags it reads, no others
_COMMANDS = {
    "decompose": (_cmd_decompose, "exact decomposition table", (*_PROBLEM, "--no-cache", "--format", "--output")),
    "measure": (_cmd_measure, "character measure with asymptotics",
                (*_PROBLEM, "--epsilon", "--no-cache", *_T, "--format", "--output")),
    "asymptotic": (_cmd_asymptotic, "rate point at --xi, or per-weight comparison CSV",
                   (*_PROBLEM, "--epsilon", "--no-cache", "--xi", "--output")),
    "limit-compare": (_cmd_limit_compare, "TV distance between scaled measure and limit law",
                      (*_PROBLEM, "--epsilon", "--no-cache", *_T, "--kind", "--output")),
    "sample": (_cmd_sample, "Markov chain Monte Carlo endpoint measure",
               ("--algebra", "--rep", *_T, "--steps", "--chains", "--seed", "--threads", "--paths", "--output")),
    "pde-check": (_cmd_pde_check, "rate-function PDE residual grid", (*_PROBLEM, "--epsilon", "--grid", "--output")),
    "hook-check": (_cmd_hook_check, "type-A hook-multiplicity oracle sweep", ("--max-power", "--output")),
    "selftest": (_cmd_selftest, "run acceptance criteria", ("--criteria", "--output")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with the subparser of command only, or with all of them when command is None."""
    import argparse  # only --help and usage errors reach argparse; _read_argv reads every other call

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose usage errors end as every failure does: one error: line, exit 1."""

        def error(self, message):
            sys.exit(_fail(f"{self.prog}: {message}", USAGE_ERROR))

    parser = _Parser(
        prog="tensorstat",
        description="Exact tensor product decompositions and their large-N asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            for flag in flags:
                p.add_argument(flag, **_FLAGS[flag])
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv read from the flag table when it is COMMAND (--flag VALUE | --switch)..., else None.

    The namespace is the one build_parser().parse_args(argv) gives.  Only
    the command's own flags, spelled in full, are read, each with the
    type, choices, default, required and append of its _FLAGS entry, and
    only values that do not start with "-": argparse reads every such token
    as a value and every such flag as that flag, so the two readings agree.
    Anything else, valid or not, is None and left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][2]
    args = SimpleNamespace(command=argv[0])
    for flag in flags:
        store_true = _FLAGS[flag].get("action") == "store_true"
        setattr(args, _dest(flag), _FLAGS[flag].get("default", False if store_true else None))
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags:
            return None
        spec, dest = _FLAGS[flag], _dest(flag)
        seen.add(flag)
        if spec.get("action") == "store_true":
            setattr(args, dest, True)
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if spec.get("action") == "append":
            value = [*(getattr(args, dest) or ()), value]
        setattr(args, dest, value)
    if any(_FLAGS[flag].get("required") for flag in set(flags) - seen):
        return None
    return args


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag under: --t-basis -> t_basis."""
    return flag.lstrip("-").replace("-", "_")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        # argparse builds the subparser of the command; --help, an unknown command or none at all needs every one
        parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help (0), or a usage error _Parser has reported (1)
            return exc.code
    try:
        return _COMMANDS[args.command][0](args)
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
