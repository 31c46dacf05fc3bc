"""Markov chain on dominant weights driven by tensoring with a fixed factor.

One step from lambda tensors on V and lands on a summand mu of
V_lambda (x) V with probability

    M_{lambda -> mu} = b_{lambda,mu} chi_mu(e^t) / (chi_lambda(e^t) chi_V(e^t)),

where b_{lambda,mu} is the branching multiplicity.  With this orientation
the identity sum_mu b chi_mu = chi_lambda chi_V makes every row sum to one,
and N steps from the zero weight reproduce the character measure of
V^(x)N exactly (the chi factors telescope along each path).  Some
references print the reciprocal chi ratio, which is not row-stochastic;
we keep the normalizable reading.

Sampling runs in one thread.  It is reproducible by construction: chain
c consumes only the counter-based stream keyed (seed, c).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charalg import Branching, Weight, character_value, weyl_dimension
from .errors import DomainError, InternalConsistencyError
from .legendre import TensorProblem, tensor_problem
from .measures import MeasureRow, MeasureTable, Scaling, assemble_measure_table
from .rootsys import RootSystem

# chains advanced together; bounds the uniform and path arrays held at once
_BLOCK = 8192


@dataclass(frozen=True)
class TransitionRow:
    """One kernel row: targets sorted by weight, probabilities summing to 1."""

    source: Weight
    targets: tuple[tuple[Weight, float], ...]

    def probability(self, mu: Weight) -> float:
        for w, p in self.targets:
            if w == mu:
                return p
        return 0.0


@dataclass(frozen=True)
class Trajectory:
    seed: int
    chain: int
    steps: tuple[Weight, ...]

    def to_jsonl(self) -> str:
        return json.dumps(
            {"seed": self.seed, "chain": self.chain, "steps": [list(s) for s in self.steps]}
        )


def trajectories_to_jsonl(trajectories) -> str:
    """One trajectory per line: {seed, chain, steps: [[coords]...]}."""
    return "\n".join(tr.to_jsonl() for tr in trajectories) + "\n"


class TransitionKernel:
    """Memoizing view of the kernel for one (algebra, V, t).

    Rows are built on demand from one Branching for V and cached; the
    kernel is not thread-safe.  States are interned to integer ids; rows
    keep both the public (weight, probability) form and cdf arrays for
    sampling.
    """

    def __init__(self, rs: RootSystem, rep, t=None):
        self.rs = rs
        self.rep = tuple(int(c) for c in rep)
        if any(c < 0 for c in self.rep):
            raise DomainError(f"factor weight {self.rep} is not dominant")
        t_arr = None if t is None else np.asarray(t, dtype=float)
        if t_arr is not None and not np.any(t_arr):
            t_arr = None
        self._t_arr = t_arr
        self.t = None if t_arr is None else tuple(float(v) for v in t_arr)
        self._branching = Branching(rs, self.rep)
        self._states: list[Weight] = []
        self._state_ids: dict[Weight, int] = {}
        self._rows: dict[int, TransitionRow] = {}
        self._cdfs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._log_chi: dict[Weight, float] = {}
        self._dim_v = weyl_dimension(rs, self.rep)
        self._log_chi_v = (
            math.log(int(self._dim_v))
            if t_arr is None
            else character_value(rs, self.rep, t_arr)[0]
        )

    def state_id(self, lam: Weight) -> int:
        """Integer id of a state, interning it on first sight."""
        sid = self._state_ids.get(lam)
        if sid is None:
            sid = len(self._states)
            self._states.append(lam)
            self._state_ids[lam] = sid
        return sid

    def state(self, sid: int) -> Weight:
        return self._states[sid]

    def _log_chi_at(self, lam: Weight) -> float:
        lg = self._log_chi.get(lam)
        if lg is None:
            lg, _ = character_value(self.rs, lam, self._t_arr)
            self._log_chi[lam] = lg
        return lg

    def row(self, source) -> TransitionRow:
        source = tuple(int(c) for c in source)
        if len(source) != self.rs.rank or not self.rs.is_dominant(source):
            raise DomainError(f"source state {source} is not a dominant weight")
        sid = self.state_id(source)
        row = self._rows.get(sid)
        if row is None:
            row = self._build_row(source, sid)
        return row

    def row_cdf(self, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """(target state ids, cumulative probabilities) for a known state id."""
        cdf = self._cdfs.get(sid)
        if cdf is None:
            self._build_row(self._states[sid], sid)
            cdf = self._cdfs[sid]
        return cdf

    def _build_row(self, source: Weight, sid: int) -> TransitionRow:
        branches = self._branching.row(source)
        targets = sorted(branches)
        if self._t_arr is None:
            # dimension weighting is exact; the row-sum identity is the
            # dimension count of V_source (x) V
            denom = weyl_dimension(self.rs, source) * self._dim_v
            fracs = [Fraction(branches[mu] * weyl_dimension(self.rs, mu), denom) for mu in targets]
            if sum(fracs) != 1:
                raise InternalConsistencyError(
                    f"exact transition row from {source} sums to {sum(fracs)}"
                )
            probs = np.array([float(p) for p in fracs])
        else:
            log_src = self._log_chi_at(source)
            logs = np.array(
                [
                    math.log(branches[mu]) + self._log_chi_at(mu) - log_src - self._log_chi_v
                    for mu in targets
                ]
            )
            probs = np.exp(logs)
            total = float(probs.sum())
            if abs(total - 1.0) > 1e-9:
                raise InternalConsistencyError(
                    f"transition row from {source} sums to {total}, expected 1"
                )
            probs = probs / total
        row = TransitionRow(source, tuple(zip(targets, (float(p) for p in probs))))
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        target_ids = np.array([self.state_id(mu) for mu in targets], dtype=np.int64)
        self._rows[sid] = row
        self._cdfs[sid] = (target_ids, cdf)
        return row


def transition_row(rs: RootSystem, rep, t, source) -> TransitionRow:
    """Kernel row from one dominant weight; see the module formula."""
    return TransitionKernel(rs, rep, t).row(source)


def _point_mass_table(rs: RootSystem, rep, epsilon: float | None) -> MeasureTable:
    # zero tensor factors: the chain has not moved, no rescaling applies
    eps = 1.0 if epsilon is None else float(epsilon)
    zero = (0,) * rs.rank
    scaling = Scaling(epsilon=eps, x_scalar=None, center=(0.0,) * rs.rank, spread=1.0)
    row = MeasureRow(zero, 1.0, math.nan, (0.0,) * rs.rank)
    return MeasureTable(
        algebra=str(rs.spec),
        problem=((tuple(int(c) for c in rep), 0),),
        t=None,
        epsilon=eps,
        scaling=scaling,
        rows=(row,),
    )


def evolve_exact(
    rs: RootSystem,
    rep,
    t,
    N: int,
    epsilon: float | None = None,
    with_asymptotics: bool = False,
) -> MeasureTable:
    """Distribution after N kernel steps from the zero weight.

    Equals the character measure of the N-th tensor power entrywise: the
    chi factors cancel along every path, leaving multiplicity times
    chi_mu / chi_V^N.
    """
    if N < 0:
        raise DomainError("step count must be nonnegative")
    if N == 0:
        return _point_mass_table(rs, rep, epsilon)
    kernel = TransitionKernel(rs, rep, t)
    dist: dict[Weight, float] = {(0,) * rs.rank: 1.0}
    for _ in range(N):
        out: dict[Weight, float] = {}
        for lam, p in dist.items():
            for mu, q in kernel.row(lam).targets:
                out[mu] = out.get(mu, 0.0) + p * q
        dist = out
    problem = tensor_problem(rs, [(kernel.rep, N)], epsilon)
    return assemble_measure_table(problem, dist, kernel.t, with_asymptotics, "auto")


def _chain_uniforms(seed: int, chain: int, n: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, chain], dtype=np.uint64)))
    return gen.random(n)


def _run_block(kernel: TransitionKernel, seed: int, lo: int, hi: int, N: int, keep_paths: bool):
    nb = hi - lo
    uniforms = np.empty((nb, N))
    for j in range(nb):
        uniforms[j] = _chain_uniforms(seed, lo + j, N)
    ids = np.full(nb, kernel.state_id((0,) * kernel.rs.rank), dtype=np.int64)
    paths = np.zeros((nb, N + 1), dtype=np.int64) if keep_paths else None
    if keep_paths:
        paths[:, 0] = ids
    for step in range(N):
        u = uniforms[:, step]
        nxt = np.empty(nb, dtype=np.int64)
        for sid in np.unique(ids):
            mask = ids == sid
            target_ids, cdf = kernel.row_cdf(int(sid))
            nxt[mask] = target_ids[np.searchsorted(cdf, u[mask], side="right")]
        ids = nxt
        if keep_paths:
            paths[:, step + 1] = ids
    return lo, ids, paths


def sample_paths(
    rs: RootSystem,
    rep,
    t,
    N: int,
    chains: int,
    seed: int,
    threads: int = 1,
    epsilon: float | None = None,
    keep_paths: bool = True,
    with_asymptotics: bool = False,
) -> tuple[MeasureTable, tuple[Trajectory, ...]]:
    """Monte Carlo endpoint measure plus the sampled trajectories.

    Chain c consumes only the stream keyed (seed, c), and endpoint
    aggregation is integer counting, so a seed fixes the result.  Sampling
    runs in one thread; threads is accepted and ignored.
    """
    if chains < 1:
        raise DomainError("need at least one chain")
    if N < 0:
        raise DomainError("step count must be nonnegative")
    kernel = TransitionKernel(rs, rep, t)
    results = [
        _run_block(kernel, seed, lo, min(lo + _BLOCK, chains), N, keep_paths)
        for lo in range(0, chains, _BLOCK)
    ]

    final_ids = np.concatenate([ids for _, ids, _ in results])
    counts = np.bincount(final_ids)
    probs = {
        kernel.state(int(sid)): float(counts[sid]) / chains for sid in np.flatnonzero(counts)
    }
    if N == 0:
        table = _point_mass_table(rs, rep, epsilon)
    else:
        problem = tensor_problem(rs, [(kernel.rep, N)], epsilon)
        table = assemble_measure_table(problem, probs, kernel.t, with_asymptotics, "auto")

    trajectories: list[Trajectory] = []
    if keep_paths:
        for lo, _, paths in results:
            for j in range(paths.shape[0]):
                steps = tuple(kernel.state(int(sid)) for sid in paths[j])
                trajectories.append(Trajectory(seed=seed, chain=lo + j, steps=steps))
    return table, tuple(trajectories)
