"""Job lists of the three benchmark workloads, generated from a workload seed.

A job is a plain JSON-serialisable dict.  CLI jobs carry the argv handed to
``tensorstat.cli.main``; session jobs name a library call.  Every job also
carries the problem data the output checks need.

The seed draws t directions, sampler seeds and a few sizes.  Sizes whose
cost grows steeply (the N^4.7 wall-t measures, the N^3 decompositions) stay
fixed, so that a new seed changes which inputs run but moves the work of a
run by well under the benchmark's bounds.  The default seed gives the
nominal shapes exactly; its decomposition, endpoint and trajectory bytes
are the ones stored in ``reference.json``.
"""

from __future__ import annotations

import random

import numpy as np

from tensorstat import build_root_system

DEFAULT_SEED = 0
WORKLOADS = ("cli-exact", "session-t-sweep", "cli-sample")


def _fmt(vec) -> str:
    return ",".join(str(int(v)) for v in vec)


def _t_with_pairings(algebra: str, pairings) -> list[float]:
    """Dominant t (root coordinates) whose simple-root pairings are `pairings`."""
    rs = build_root_system(algebra)
    return [float(v) for v in np.linalg.solve(rs.B_f, np.array(pairings, dtype=float))]


class _Draw:
    """Seeded draws; the default seed returns every nominal value."""

    def __init__(self, seed: int):
        self.default = seed == DEFAULT_SEED
        self.rng = random.Random(seed)

    def size(self, nominal: int, spread: int) -> int:
        offset = self.rng.randint(-spread, spread)
        return nominal if self.default else nominal + offset

    def sampler_seed(self, nominal: int) -> int:
        value = self.rng.randrange(1, 10**6)
        return nominal if self.default else value

    def t(self, algebra: str, kind: str) -> list[float]:
        """kind: "wall" (one simple pairing 0), "small" (one 0.05-0.2), "regular" (all 0.4-0.5)."""
        rank = build_root_system(algebra).rank
        pairings = [round(self.rng.uniform(0.4, 0.5), 3) for _ in range(rank)]
        index = self.rng.randrange(rank)
        if kind == "wall":
            pairings[index] = 0.0
        elif kind == "small":
            pairings[index] = round(self.rng.uniform(0.05, 0.2), 3)
        return _t_with_pairings(algebra, pairings)


def _sizer(smoke: bool):
    """size(full, tiny): the full size, or the tiny one in smoke mode."""
    return (lambda full, tiny: tiny) if smoke else (lambda full, tiny: full)


def _cli(op, argv, headline=False, **problem) -> dict:
    return {"id": " ".join(argv), "op": op, "argv": argv, "headline": headline, **problem}


def _cli_decompose(algebra, rep, power, headline=False):
    argv = ["decompose", "--algebra", algebra, "--rep", _fmt(rep), "--power", str(power)]
    return _cli("decompose", argv, headline, algebra=algebra, rep=list(rep), power=power, t=None)


def _cli_measure(algebra, rep, power, t=None):
    argv = ["measure", "--algebra", algebra, "--rep", _fmt(rep), "--power", str(power)]
    if t is not None:
        argv += ["--t", ",".join(repr(v) for v in t)]
    return _cli("measure", argv, algebra=algebra, rep=list(rep), power=power, t=t)


def _cli_sample(algebra, rep, t, steps, chains, seed, paths=False, headline=False):
    argv = ["sample", "--algebra", algebra, "--rep", _fmt(rep)]
    if t is not None:
        argv += ["--t", ",".join(repr(v) for v in t)]
    argv += ["--steps", str(steps), "--chains", str(chains), "--seed", str(seed), "--threads", "1"]
    return _cli(
        "sample", argv, headline, algebra=algebra, rep=list(rep), t=t,
        steps=steps, chains=chains, seed=seed, paths=paths,
    )


def cli_exact(draw: _Draw, smoke: bool) -> list[dict]:
    """t = 0 CLI calls; Klimyk steps, Legendre solves and exact dimensions."""
    s = _sizer(smoke)
    a2_adj = s(34, 4)
    g2 = s(28, 3)
    jobs = [
        _cli_decompose("A1", (1,), draw.size(s(1200, 40), 4), headline=True),
        _cli_decompose("A2", (1, 1), a2_adj),
        _cli(
            "asymptotic",
            ["asymptotic", "--algebra", "A2", "--rep", "1,1", "--power", str(a2_adj)],
            algebra="A2", rep=[1, 1], power=a2_adj, t=None,
        ),
        _cli_decompose("G2", (1, 0), g2),
        _cli_measure("G2", (1, 0), g2),
        _cli_measure("A2", (1, 0), s(60, 6)),
        _cli(
            "pde-check",
            ["pde-check", "--algebra", "A2", "--rep", "1,0", "--grid", str(s(6, 2))],
            algebra="A2", rep=[1, 0], grid=s(6, 2),
        ),
        _cli_sample("A2", (1, 0), None, s(36, 5), s(4000, 200), draw.sampler_seed(5)),
    ]
    max_power = draw.size(s(12, 4), 1)
    jobs.append(
        _cli("hook-check", ["hook-check", "--max-power", str(max_power)], max_power=max_power)
    )
    return jobs


def cli_sample(draw: _Draw, smoke: bool) -> list[dict]:
    """Regular-t CLI calls; the Markov sampler and the Weyl-quotient fast path."""
    s = _sizer(smoke)
    return [
        _cli_sample(
            "A2", (1, 0), [0.3, 0.1], s(30, 5), s(50000, 500), draw.sampler_seed(1), headline=True
        ),
        _cli_sample("G2", (1, 0), draw.t("G2", "regular"), s(20, 4), s(30000, 300), draw.sampler_seed(2)),
        _cli_sample(
            "B2", (0, 1), draw.t("B2", "regular"), s(25, 4), s(20000, 200), draw.sampler_seed(3),
            paths=True,
        ),
        _cli_measure("A2", (1, 0), s(60, 6), draw.t("A2", "regular")),
        _cli_measure("B3", (1, 0, 0), s(12, 3), draw.t("B3", "regular")),
    ]


def session_t_sweep(draw: _Draw, smoke: bool) -> list[dict]:
    """One library session scanning t across four tables; Freudenthal weight systems."""
    s = _sizer(smoke)
    tables = [("A2", (1, 0), s(36, 6)), ("G2", (1, 0), s(9, 3)), ("B3", (1, 0, 0), s(10, 3)),
              ("F4", (0, 0, 0, 1), s(5, 2))]
    jobs = []
    for algebra, rep, power in tables:
        table = f"{algebra} {_fmt(rep)}^{power}"
        jobs.append({"id": f"decompose {table}", "op": "decompose", "algebra": algebra,
                     "rep": list(rep), "power": power, "t": None, "headline": False})
        for kind in ("wall", "wall", "small", "small", "regular"):
            t = draw.t(algebra, kind)
            headline = algebra == "A2" and not any(j["op"] == "measure" for j in jobs)
            if headline:
                t = [0.2, 0.1]  # the README's example, on the alpha_2 wall
            jobs.append({"id": f"measure {table} t={kind}#{len(jobs)}", "op": "measure",
                         "algebra": algebra, "rep": list(rep), "power": power, "t": t,
                         "table": f"decompose {table}", "headline": headline})
    steps = s(24, 4)
    jobs.append({"id": f"evolve A2 1,0 N={steps} t=wall", "op": "evolve", "algebra": "A2",
                 "rep": [1, 0], "steps": steps, "t": draw.t("A2", "wall"), "headline": False})
    return jobs


_BUILDERS = {"cli-exact": cli_exact, "session-t-sweep": session_t_sweep, "cli-sample": cli_sample}


def build(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload `name` for `seed`: its mode ("cli" or "session") and job list."""
    jobs = _BUILDERS[name](_Draw(seed), smoke)
    ids = [job["id"] for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in {name}")
    return {"name": name, "mode": "session" if name == "session-t-sweep" else "cli", "jobs": jobs}
