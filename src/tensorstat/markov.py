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
c consumes only the counter-based stream keyed (seed, c).  The streams come
from the package's own vectorized Philox4x64-10, one array pass per block
of chains, which reproduces NumPy's Philox(key=[seed, c]) bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .charalg import Branching, CharacterPlan, Weight, _dominant_weight, weight_multiplicities, weyl_dimension
from .errors import DomainError, InternalConsistencyError
from .legendre import _checked_epsilon, tensor_problem
from .measures import MeasureRow, MeasureTable, Scaling, assemble_measure_table
from .rootsys import RootSystem

# chains advanced together; bounds the uniform and path arrays held at once
_BLOCK = 8192

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): per multiplier, the word and its 32-bit halves; the two Weyl key
# increments.  Every constant is a uint64 so no product is promoted to float.
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


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


class _WeightText(dict):
    """Memo of each weight's JSON text, encoded on first lookup."""

    def __missing__(self, w: Weight) -> str:
        text = self[w] = json.dumps(list(w))
        return text


def trajectories_to_jsonl(trajectories) -> str:
    """One trajectory per line: {seed, chain, steps: [[coords]...]}.

    The bytes of joining each Trajectory.to_jsonl, with a final newline;
    each distinct weight is encoded once.
    """
    text = _WeightText().__getitem__
    lines = (
        f'{{"seed": {tr.seed}, "chain": {tr.chain}, "steps": [{", ".join(map(text, tr.steps))}]}}\n'
        for tr in trajectories
    )
    # joined 1024 lines at a time, so the text and all its lines are never held at once
    return "".join(iter(lambda: "".join(islice(lines, 1024)), "")) or "\n"


class TransitionKernel:
    """Memoizing view of the kernel for one (algebra, V, t).

    States are interned to integer ids.  Row sid is stored once, in three
    aligned tables of one row per state: target ids (sorted by weight,
    padded with -1), their probabilities, and their cumulative sums
    (padded with 2.0, above every uniform); an unbuilt row holds only
    pads.  Exact evolution, sampling and row() read these tables.  Rows
    are built on demand from one Branching for V, the characters of one
    call's new rows in one batch; the kernel is not thread-safe.
    """

    def __init__(self, rs: RootSystem, rep, t=None):
        self.rs = rs
        self.rep = _dominant_weight(rs, rep)
        t_arr = None if t is None else np.asarray(t, dtype=float)
        if t_arr is not None and not np.any(t_arr):
            t_arr = None
        self._t_arr = t_arr
        self.t = None if t_arr is None else tuple(float(v) for v in t_arr)
        self._branching = Branching(rs, self.rep)
        self._states: list[Weight] = []
        self._state_ids: dict[Weight, int] = {}
        # a row has at most one target per weight of V
        shape = (64, len(weight_multiplicities(rs, self.rep).multiplicities))
        self._targets = np.full(shape, -1, dtype=np.int64)
        self._probs = np.zeros(shape)
        self._cdf = np.full(shape, 2.0)
        self._log_chi: dict[Weight, float] = {}
        self._dim_v = weyl_dimension(rs, self.rep)
        if t_arr is None:
            self._log_chi_v = math.log(int(self._dim_v))
        else:
            self._characters = CharacterPlan(rs, t_arr)
            self._log_chi_v = self._log_chi_at([self.rep])[0]

    def state_id(self, lam: Weight) -> int:
        """Integer id of a state, interning it on first sight."""
        sid = self._state_ids.get(lam)
        if sid is None:
            sid = len(self._states)
            self._states.append(lam)
            self._state_ids[lam] = sid
            if sid == len(self._targets):  # double the tables; new rows hold the pads
                self._targets, self._probs, self._cdf = (
                    np.concatenate([table, np.full_like(table, pad)])
                    for table, pad in ((self._targets, -1), (self._probs, 0.0), (self._cdf, 2.0))
                )
        return sid

    def state(self, sid: int) -> Weight:
        return self._states[sid]

    def _build_rows(self, sids: np.ndarray) -> None:
        """Build the rows not built yet among the given state ids.

        The characters of every source and target of these rows are
        evaluated in one batch before the rows are filled.
        """
        todo = np.unique(sids[self._targets[sids, 0] < 0]).tolist()
        if self._t_arr is not None:
            sources = [self._states[sid] for sid in todo]
            self._log_chi_at([lam for src in sources for lam in (src, *self._branching.row(src))])
        for sid in todo:
            self._build_row(self._states[sid], sid)

    def _log_chi_at(self, lams) -> list[float]:
        """log chi(e^t) per weight; the unseen ones are evaluated in one batch."""
        missing = [lam for lam in dict.fromkeys(lams) if lam not in self._log_chi]
        if missing:
            values = self._characters.evaluate(missing).values
            self._log_chi.update(zip(missing, values.tolist()))
        return [self._log_chi[lam] for lam in lams]

    def row(self, source) -> TransitionRow:
        source = _dominant_weight(self.rs, source)
        sid = self.state_id(source)
        self._build_rows(np.array([sid]))
        n = int(np.count_nonzero(self._targets[sid] >= 0))
        targets = [self._states[i] for i in self._targets[sid, :n].tolist()]
        return TransitionRow(source, tuple(zip(targets, self._probs[sid, :n].tolist())))

    def _build_row(self, source: Weight, sid: int) -> None:
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
            log_src, *log_targets = self._log_chi_at([source, *targets])
            logs = np.array(
                [
                    math.log(branches[mu]) + lg - log_src - self._log_chi_v
                    for mu, lg in zip(targets, log_targets)
                ]
            )
            probs = np.exp(logs)
            total = float(probs.sum())
            if abs(total - 1.0) > 1e-9:
                raise InternalConsistencyError(
                    f"transition row from {source} sums to {total}, expected 1"
                )
            probs = probs / total
        # interning may grow the tables, so it precedes the writes
        target_ids = [self.state_id(mu) for mu in targets]
        n = len(target_ids)
        self._targets[sid, :n] = target_ids
        self._probs[sid, :n] = probs
        self._cdf[sid, :n] = np.cumsum(probs)
        self._cdf[sid, n - 1] = 1.0


def _endpoint_table(kernel: TransitionKernel, N: int, dist, epsilon) -> MeasureTable:
    """Measure table of the law dist (weight -> probability) after N steps."""
    if N > 0:
        problem = tensor_problem(kernel.rs, [(kernel.rep, N)], epsilon)
        return assemble_measure_table(problem, dist, kernel.t)
    # zero tensor factors: the chain has not moved, no rescaling applies
    rank = kernel.rs.rank
    eps = _checked_epsilon(epsilon, 1.0)
    scaling = Scaling(epsilon=eps, x_scalar=None, center=(0.0,) * rank, spread=1.0)
    row = MeasureRow((0,) * rank, 1.0, (0.0,) * rank)
    return MeasureTable(
        algebra=str(kernel.rs.spec),
        problem=((kernel.rep, 0),),
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
) -> MeasureTable:
    """Distribution after N kernel steps from the zero weight.

    Equals the character measure of the N-th tensor power entrywise: the
    chi factors cancel along every path, leaving multiplicity times
    chi_mu / chi_V^N.
    """
    if N < 0:
        raise DomainError("step count must be nonnegative")
    return _evolve(TransitionKernel(rs, rep, t), N, epsilon)


def _evolve(kernel: TransitionKernel, N: int, epsilon) -> MeasureTable:
    """evolve_exact on a given kernel; N is already checked."""
    sids = np.array([kernel.state_id((0,) * kernel.rs.rank)])
    probs = np.ones(1)
    for _ in range(N):
        # one sparse mat-vec; a target reached with zero mass stays in the support
        kernel._build_rows(sids)
        targets = kernel._targets[sids]
        reached = targets >= 0
        flat = targets[reached]
        mass = np.bincount(flat, weights=(probs[:, None] * kernel._probs[sids])[reached])
        sids = np.unique(flat)
        probs = mass[sids]
    dist = dict(zip(map(kernel.state, sids.tolist()), probs.tolist()))
    return _endpoint_table(kernel, N, dist, epsilon)


def _mulhilo(x: np.ndarray, m, m_lo, m_hi) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products x * m, from 32-bit halves.

    With x = 2^32 xh + xl and m = 2^32 mh + ml, the high word is
    xh mh + (xl mh >> 32) + (xh ml >> 32) plus the carry of the middle
    column, ((xl ml >> 32) + low32(xl mh) + low32(xh ml)) >> 32.  The high
    words are written over x.  Wraparound is intended; the caller ignores
    overflow.
    """
    lo = x * m
    x_lo = x & _LO32
    x >>= _SHIFT32  # x holds the high halves
    mid = x_lo * m_lo
    mid >>= _SHIFT32
    x_lo *= m_hi
    mid += x_lo & _LO32
    x_lo >>= _SHIFT32
    cross = x * m_lo
    x *= m_hi
    x += x_lo
    mid += cross & _LO32
    cross >>= _SHIFT32
    x += cross
    mid >>= _SHIFT32
    x += mid
    return x, lo


def _philox_uniforms(seed: int, lo: int, hi: int, N: int) -> np.ndarray:
    """Row j: the first N doubles of NumPy's Generator(Philox(key=[seed, lo + j])).random.

    Philox4x64-10 for all chains at once: key (seed, c), counter block
    (b, 0, 0, 0) for b = 1, 2, ..., whose four words x0..x3 give four
    doubles (x >> 11) * 2^-53 in order.
    """
    chains, blocks = hi - lo, -(-N // 4)
    out = np.empty((chains, N))
    c = np.arange(lo, hi, dtype=np.uint64)
    # round r keys with (seed, c) bumped r times by the Weyl increments; the
    # second key word, c + bump, is formed per round so only c is held
    keys = [
        (np.uint64((seed + r * _PHILOX_W[0]) % 2**64), np.uint64(r * _PHILOX_W[1] % 2**64))
        for r in range(10)
    ]
    with np.errstate(over="ignore"):
        for b in range(blocks):
            x0 = np.full(chains, b + 1, dtype=np.uint64)
            x1, x2, x3 = (np.zeros(chains, dtype=np.uint64) for _ in range(3))
            for k0, bump in keys:
                hi0, lo0 = _mulhilo(x0, *_PHILOX_M[0])
                hi0 ^= x3
                hi0 ^= c + bump
                hi1, lo1 = _mulhilo(x2, *_PHILOX_M[1])
                hi1 ^= x1
                hi1 ^= k0
                x0, x1, x2, x3 = hi1, lo1, hi0, lo0
            for i, x in enumerate((x0, x1, x2, x3)[: N - 4 * b]):
                x >>= _SHIFT11
                out[:, 4 * b + i] = x
    out *= 2.0**-53
    return out


def _run_block(kernel: TransitionKernel, seed: int, lo: int, hi: int, N: int, keep_paths: bool):
    # chain lo + j draws from the Philox stream keyed (seed, lo + j)
    uniforms = _philox_uniforms(seed, lo, hi, N)
    start = kernel.state_id((0,) * kernel.rs.rank)
    ids = np.full(hi - lo, start, dtype=np.int64)
    paths = np.full((hi - lo, N + 1), start, dtype=np.int64) if keep_paths else None
    for step in range(N):
        kernel._build_rows(ids)
        # entries <= u: what searchsorted(cdf, u, side="right") counts; pads exceed u
        k = np.count_nonzero(kernel._cdf[ids] <= uniforms[:, step, None], axis=1)
        ids = kernel._targets[ids, k]
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
    epsilon: float | None = None,
    keep_paths: bool = True,
) -> tuple[MeasureTable, tuple[Trajectory, ...]]:
    """Monte Carlo endpoint measure plus the sampled trajectories.

    Chain c consumes only the stream keyed (seed, c), and endpoint
    aggregation is integer counting, so a seed fixes the result.
    """
    _check_sampling(N, chains, seed)
    return _sample(TransitionKernel(rs, rep, t), N, chains, seed, epsilon, keep_paths)


def _check_sampling(N: int, chains: int, seed: int) -> None:
    if chains < 1:
        raise DomainError("need at least one chain")
    if N < 0:
        raise DomainError("step count must be nonnegative")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} is outside [0, 2^64)")


def _sample(kernel: TransitionKernel, N: int, chains: int, seed: int, epsilon, keep_paths):
    """sample_paths on a given kernel; the arguments are already checked."""
    results = [
        _run_block(kernel, seed, lo, min(lo + _BLOCK, chains), N, keep_paths)
        for lo in range(0, chains, _BLOCK)
    ]

    counts = np.bincount(np.concatenate([ids for _, ids, _ in results]))
    ends = np.flatnonzero(counts)
    probs = dict(zip(map(kernel.state, ends.tolist()), (counts[ends] / chains).tolist()))
    states = kernel._states
    trajectories = tuple(
        Trajectory(seed=seed, chain=lo + j, steps=tuple(map(states.__getitem__, path.tolist())))
        for lo, _, paths in results
        if keep_paths
        for j, path in enumerate(paths)
    )
    return _endpoint_table(kernel, N, probs, epsilon), trajectories
