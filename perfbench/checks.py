"""Output checks for every benchmark job.

A check returns a list of problems; an empty list means the output is
correct.  The checks run after the timed passes, outside every timed region:

- Decompositions: the exact dimension identity and the support cone for
  every algebra, and for powers of the type-A vector representation every
  multiplicity against the hook-length formula (computed here, not by the
  package).
- Measures: probabilities sum to 1 within 1e-12.  At t = 0 every row equals
  the exact dimension weight; at t != 0 three rows are recomputed through
  ``character_value(method="weight-sum")`` and agree within 1e-10 relative.
- ``pde-check`` residuals meet acceptance criterion 6 (1e-9 and 1e-6);
  ``hook-check`` reports 0 mismatches over the expected number of weights.
- Sampler: endpoint frequencies are whole chain counts summing to 1; each
  trajectory line is canonical JSON, steps by a weight of the factor
  through dominant weights, and ends where the endpoint counts say.
- For the default seed, the decomposition JSON, the endpoint block and the
  trajectory JSONL must match the SHA-256 digests in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import tensorstat as ts

SUM_TOL = 1e-12
ROW_REL_TOL = 1e-10
EXACT_REL_TOL = 1e-12
PDE_RESIDUAL_TOL = 1e-9
PDE_FD_TOL = 1e-6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(job: dict, text: str, paths_text: str | None) -> dict[str, str]:
    """The byte digests compared against reference.json for this job."""
    if job["op"] == "decompose":
        return {"output": sha256(text)}
    if job["op"] == "sample":
        at = text.find('"endpoints"')
        out = {"endpoints": sha256(text[at:] if at >= 0 else text)}
        if paths_text is not None:
            out["paths"] = sha256(paths_text)
        return out
    return {}


def _partitions(n: int, parts: int, cap: int):
    """Partitions of n into at most `parts` parts, each at most `cap`."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def hook_count(shape: tuple[int, ...], rows: int) -> int:
    """Standard Young tableaux of `shape` (Frobenius form of the hook-length formula)."""
    shape = tuple(shape) + (0,) * (rows - len(shape))
    ls = [shape[i] + rows - 1 - i for i in range(rows)]
    value = math.factorial(sum(shape))
    for i in range(rows):
        for j in range(i + 1, rows):
            value *= ls[i] - ls[j]
    for li in ls:
        value //= math.factorial(li)
    return value


def hook_table(rank: int, power: int) -> dict[tuple[int, ...], int]:
    """Decomposition of V^power for the vector representation V of A_rank."""
    out = {}
    for shape in _partitions(power, rank + 1, power):
        padded = shape + (0,) * (rank + 1 - len(shape))
        weight = tuple(padded[i] - padded[i + 1] for i in range(rank))
        out[weight] = hook_count(shape, rank + 1)
    return out


def _is_vector_rep(algebra: str, rep) -> bool:
    return algebra.startswith("A") and tuple(rep) == (1,) + (0,) * (len(rep) - 1)


def table_problems(algebra: str, factors, entries: dict) -> list[str]:
    """Dimension identity and support cone of a decomposition, exactly."""
    rs = ts.build_root_system(algebra)
    problems = []
    if any(m <= 0 for m in entries.values()):
        problems.append("nonpositive multiplicity")
    lhs = sum(m * ts.weyl_dimension(rs, lam) for lam, m in entries.items())
    rhs = 1
    for nu, n in factors:
        rhs *= ts.weyl_dimension(rs, nu) ** n
    if lhs != rhs:
        problems.append(f"dimension identity fails: {lhs} != {rhs}")
    top = tuple(sum(n * nu[i] for nu, n in factors) for i in range(rs.rank))
    top_root = rs.root_coords(top)
    for lam in entries:
        diff = [a - b for a, b in zip(top_root, rs.root_coords(lam))]
        if any(d < 0 or d.denominator != 1 for d in diff):
            problems.append(f"{lam} outside the support cone")
            break
    return problems


class Checker:
    """Checks job outputs against the workload's problems; memoizes reference tables."""

    def __init__(self, reference: dict | None = None):
        self.reference = reference
        self._tables: dict = {}

    def table(self, algebra: str, rep, power: int) -> dict:
        """Exact decomposition of rep^power: hook formula for type A, else the library."""
        key = (algebra, tuple(rep), power)
        if key not in self._tables:
            rs = ts.build_root_system(algebra)
            if _is_vector_rep(algebra, rep):
                self._tables[key] = hook_table(rs.rank, power)
            else:
                self._tables[key] = ts.tensor_power_decompose(rs, [(tuple(rep), power)]).entries
        return self._tables[key]

    def check(self, job: dict, text: str, paths_text: str | None = None) -> list[str]:
        try:
            problems = getattr(self, "_check_" + job["op"].replace("-", "_"))(job, text, paths_text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unparsable output: {exc!r}"]
        if not problems and self.reference is not None:
            if digests(job, text, paths_text) != self.reference.get(job["id"], {}):
                problems.append("output bytes differ from the reference digest")
        return problems

    # decompositions

    def _decomposition_problems(self, job, entries) -> list[str]:
        factors = [(tuple(job["rep"]), job["power"])]
        problems = table_problems(job["algebra"], factors, entries)
        if _is_vector_rep(job["algebra"], job["rep"]):
            if entries != self.table(job["algebra"], job["rep"], job["power"]):
                problems.append("multiplicities differ from the hook-length formula")
        return problems

    def _check_decompose(self, job, text, paths_text):
        payload = json.loads(text)
        if payload["algebra"] != job["algebra"] or payload["problem"] != [[job["rep"], job["power"]]]:
            return ["decomposition is for another problem"]
        entries = {tuple(w): int(m) for w, m in payload["entries"]}
        return self._decomposition_problems(job, entries)

    def _check_asymptotic(self, job, text, paths_text):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["lambda", "multiplicity", "log_multiplicity_asymptotic", "ratio"]:
            return ["unexpected asymptotic header"]
        entries = {}
        for lam, mult, est, ratio in rows[1:]:
            weight = tuple(int(c) for c in lam.split(","))
            entries[weight] = int(mult)
            est, ratio = float(est), float(ratio)
            if math.isnan(est) != math.isnan(ratio):
                return [f"estimate and ratio disagree at {weight}"]
            if not math.isnan(est) and abs(ratio - math.exp(est - math.log(int(mult)))) > EXACT_REL_TOL * ratio:
                return [f"ratio inconsistent with estimate at {weight}"]
        problems = self._decomposition_problems(job, entries)
        if entries != self.table(job["algebra"], job["rep"], job["power"]):
            problems.append("multiplicities differ from the exact decomposition")
        return problems

    # measures

    def _measure_problems(self, job, rows, entries, factors) -> list[str]:
        rs = ts.build_root_system(job["algebra"])
        probs = dict(rows)
        if len(probs) != len(rows) or set(probs) != set(entries):
            return ["measure rows differ from the decomposition support"]
        total = math.fsum(probs.values())
        if abs(total - 1.0) > SUM_TOL:
            return [f"probabilities sum to {total!r}"]
        if job["t"] is None:
            dim = 1
            for nu, n in factors:
                dim *= ts.weyl_dimension(rs, nu) ** n
            for lam, p in probs.items():
                exact = float(Fraction(entries[lam] * ts.weyl_dimension(rs, lam), dim))
                if abs(p - exact) > EXACT_REL_TOL * exact:
                    return [f"probability of {lam} is {p!r}, exact {exact!r}"]
            return []
        log_norm = sum(n * ts.character_value(rs, nu, job["t"], method="weight-sum")[0] for nu, n in factors)
        weights = sorted(probs)
        pick = random.Random(job["id"])
        sample = {max(weights, key=probs.get)} | set(pick.sample(weights, min(2, len(weights))))
        for lam in sorted(sample):
            lg = ts.character_value(rs, lam, job["t"], method="weight-sum")[0]
            want = math.exp(math.log(entries[lam]) + lg - log_norm)
            if abs(probs[lam] - want) > ROW_REL_TOL * want:
                return [f"probability of {lam} is {probs[lam]!r}, weight sum gives {want!r}"]
        return []

    def _check_measure(self, job, text, paths_text):
        if text.startswith("{"):
            rows = [(tuple(w), float(p)) for w, p in json.loads(text)["rows"]]
        else:
            rank = len(job["rep"])
            lines = list(csv.reader(io.StringIO(text)))
            if lines[0][rank] != "probability":
                return ["unexpected measure header"]
            rows = [(tuple(int(c) for c in line[:rank]), float(line[rank])) for line in lines[1:]]
        entries = self.table(job["algebra"], job["rep"], job["power"])
        return self._measure_problems(job, rows, entries, [(tuple(job["rep"]), job["power"])])

    def _check_evolve(self, job, text, paths_text):
        rows = [(tuple(w), float(p)) for w, p in json.loads(text)["rows"]]
        entries = self.table(job["algebra"], job["rep"], job["steps"])
        return self._measure_problems(job, rows, entries, [(tuple(job["rep"]), job["steps"])])

    # CLI-only reports

    def _check_pde_check(self, job, text, paths_text):
        lines = text.splitlines()
        rows = list(csv.reader(lines[1:-1]))
        if lines[0] != "y,xi,residual,fd_deviation" or len(rows) != job["grid"] ** len(job["rep"]):
            return ["unexpected pde-check table shape"]
        worst_res = max(float(r[2]) for r in rows)
        worst_dev = max(float(r[3]) for r in rows)
        if lines[-1] != f"# worst residual {worst_res!r}, worst fd deviation {worst_dev!r}":
            return ["pde-check summary line disagrees with its rows"]
        if not (worst_res <= PDE_RESIDUAL_TOL and worst_dev <= PDE_FD_TOL):
            return [f"pde-check residual {worst_res:.3g} or fd deviation {worst_dev:.3g} over tolerance"]
        return []

    def _check_hook_check(self, job, text, paths_text):
        expected = sum(
            sum(1 for _ in _partitions(big_n, n + 1, big_n))
            for n in (1, 2, 3)
            for big_n in range(1, job["max_power"] + 1)
        )
        if text != f"hook-check: {expected} multiplicities, 0 mismatches\n":
            return [f"hook-check reported {text.strip()!r}, expected {expected} multiplicities"]
        return []

    # sampler

    def _check_sample(self, job, text, paths_text):
        payload = json.loads(text)
        for key in ("algebra", "rep", "t", "steps", "chains", "seed"):
            if payload[key] != job[key]:
                return [f"sample output has {key} {payload[key]!r}, expected {job[key]!r}"]
        chains = job["chains"]
        counts = {}
        for key, p in payload["endpoints"].items():
            count = round(p * chains)
            if count <= 0 or count / chains != p:
                return [f"endpoint frequency {p!r} of {key} is not a chain count"]
            counts[tuple(int(c) for c in key.split(","))] = count
        if sum(counts.values()) != chains or abs(math.fsum(payload["endpoints"].values()) - 1.0) > SUM_TOL:
            return ["endpoint frequencies do not sum to 1"]
        support = self.table(job["algebra"], job["rep"], job["steps"])
        if not set(counts) <= set(support):
            return ["endpoint outside the support of the tensor power"]
        tv = payload["tv_empirical_vs_exact"]
        if not 0 <= tv <= math.sqrt(len(support) / chains):
            return [f"empirical TV {tv!r} too large for {chains} chains"]
        if job.get("paths"):
            return self._trajectory_problems(job, paths_text, counts)
        return []

    def _trajectory_problems(self, job, paths_text, counts) -> list[str]:
        if paths_text is None:
            return ["trajectory file missing"]
        rs = ts.build_root_system(job["algebra"])
        steps_v = set(ts.weight_multiplicities(rs, tuple(job["rep"])).multiplicities)
        zero = (0,) * rs.rank
        ends: dict = {}
        lines = paths_text.split("\n")
        if lines[-1] != "" or len(lines) != job["chains"] + 1:
            return ["trajectory file has the wrong number of lines"]
        for chain, line in enumerate(lines[:-1]):
            record = json.loads(line)
            if json.dumps(record) != line or record["seed"] != job["seed"] or record["chain"] != chain:
                return [f"trajectory line {chain} is not the canonical record of chain {chain}"]
            path = [tuple(w) for w in record["steps"]]
            if len(path) != job["steps"] + 1 or path[0] != zero:
                return [f"trajectory {chain} has the wrong length or start"]
            for a, b in zip(path, path[1:]):
                if min(b) < 0 or tuple(y - x for x, y in zip(a, b)) not in steps_v:
                    return [f"trajectory {chain} takes an impossible step {a} -> {b}"]
            ends[path[-1]] = ends.get(path[-1], 0) + 1
        if ends != counts:
            return ["trajectory endpoints disagree with the endpoint frequencies"]
        return []
