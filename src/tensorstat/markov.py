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

Exact evolution over N steps first builds every row such a walk reads:
one Klimyk fold per level, then one character batch, one call of the
package's one normalizer (measures._segment_laws) and one table write
for all of them, and then runs N sparse mat-vecs.  A sampler on a fresh
kernel builds only the rows its chains reach, a step at a time.  Both
work on state ids: _evolve returns the endpoint law as (state ids,
masses) and _sample the chain count per state id, so a caller that
compares the two, as the CLI's `sample` does, needs no MeasureTable;
evolve_exact and sample_paths build theirs from these arrays.

Sampling runs in one thread.  It is reproducible by construction: chain
c consumes only the counter-based stream keyed (seed, c).  The streams come
from the package's own vectorized Philox4x64-10, which reproduces NumPy's
Philox(key=[seed, c]) bit for bit.  Its rounds run on grouped passes of
(counter blocks, chains) arrays, into an (N, chains) array of uniforms, so
each step reads one contiguous row.  A step finds each chain's target
with one gather per column of the cumulative sums, summing the columns
that are <= u.  Trajectories can be written as JSONL block by block from
the (chains, N + 1) state-id paths, without Trajectory objects.
"""

from __future__ import annotations

import json
import math
from itertools import chain, filterfalse, islice
from typing import NamedTuple

import numpy as np

from .charalg import Branching, CharacterPlan, Weight, _dominant_weight, _integers, _weyl_dimensions, weyl_dimension
from .errors import DomainError
from .legendre import _checked_epsilon, tensor_problem
from .measures import MeasureRow, MeasureTable, Scaling, _log_chi_error, _segment_laws, assemble_measure_table
from .rootsys import RootSystem

# chains advanced together; bounds the uniform and path arrays held at once
_BLOCK = 8192
# chains whose --paths lines are joined into one string; bounds the object grid and text held at once
_PATHS_SLICE = 1024

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): the two multipliers, then per multiplier the word and its 32-bit
# halves as uint64s; the two Weyl key increments.  Every array constant is a
# uint64 so no product is promoted to float.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_U = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in _PHILOX_M)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


class TransitionRow(NamedTuple):
    """One kernel row: targets sorted by weight, probabilities summing to 1."""

    source: Weight
    targets: tuple[tuple[Weight, float], ...]

    def probability(self, mu: Weight) -> float:
        for w, p in self.targets:
            if w == mu:
                return p
        return 0.0


class Trajectory(NamedTuple):
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

    A state is a row of the int64 table _states, addressed by its id.
    Row sid of the kernel is stored once, in three tables aligned with it:
    target ids (sorted by weight, padded with -1), their probabilities,
    and their cumulative sums (padded with 2.0, above every uniform); an
    unbuilt row holds only pads.  Exact evolution, sampling and row()
    read these tables.  Rows are made only by _build_row: one Branching
    fold per level of the walk it is asked for, then one pass that
    finishes every new row.  _build_to_depth(N) builds all rows a walk of
    N steps from the origin reads and records N as the kernel's depth;
    below that depth the sampler builds the rows its chains reach, as
    they reach them.  The kernel is not thread-safe.
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
        self._ids: dict[bytes, int] = {}  # a state's row bytes -> its id
        width = len(self._branching._mults)  # a row has at most one target per weight of V
        self._states = np.zeros((64, rs.rank), dtype=np.int64)
        self._targets = np.full((64, width), -1, dtype=np.int64)
        self._probs = np.zeros((64, width))
        self._cdf = np.full((64, width), 2.0)
        self._log_chi = np.full(64, np.nan)  # log chi(e^t) per id, NaN until evaluated
        self._depth = 0  # every row a walk of this many steps from the origin reads is built
        self._dim_v = weyl_dimension(rs, self.rep)
        if t_arr is not None:
            self._characters = CharacterPlan(rs, t_arr)
            self._log_chi_v = float(self._characters.evaluate([self.rep]).values[0])

    def _intern(self, rows: np.ndarray) -> np.ndarray:
        """Ids of the (n, r) int64 rows; the unseen ones get the next ids in first-sight order."""
        keys = np.ascontiguousarray(rows, dtype=np.int64).view(np.dtype((np.void, 8 * self.rs.rank))).ravel().tolist()
        fresh = list(dict.fromkeys(filterfalse(self._ids.__contains__, keys)))
        n = len(self._ids)
        self._ids.update(zip(fresh, range(n, n + len(fresh))))
        while len(self._states) < len(self._ids):  # double the tables; new rows hold the pads
            pads = (self._states, 0), (self._targets, -1), (self._probs, 0.0), (self._cdf, 2.0), (self._log_chi, np.nan)
            self._states, self._targets, self._probs, self._cdf, self._log_chi = (
                np.concatenate([table, np.full_like(table, pad)]) for table, pad in pads
            )
        self._states[n : len(self._ids)] = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(-1, self.rs.rank)
        return np.fromiter(map(self._ids.__getitem__, keys), dtype=np.int64, count=len(keys))

    def state_id(self, lam: Weight) -> int:
        """Integer id of a state, interning it on first sight."""
        return int(self._intern(np.array([lam]))[0])

    def state(self, sid: int) -> Weight:
        return tuple(self._states[: len(self._ids)][sid].tolist())  # an id never issued is an IndexError

    def row(self, source) -> TransitionRow:
        source = _dominant_weight(self.rs, source)
        sid = self.state_id(source)
        self._build_row(np.array([sid]))
        n = int(np.count_nonzero(self._targets[sid] >= 0))
        targets = map(tuple, self._states[self._targets[sid, :n]].tolist())
        return TransitionRow(source, tuple(zip(targets, self._probs[sid, :n].tolist())))

    def _build_to_depth(self, N: int) -> None:
        """Build every row a walk of N steps from the origin reads; the kernel is then complete to depth N."""
        if N > self._depth:
            self._build_row(np.array([self.state_id((0,) * self.rs.rank)]), N)
            self._depth = N

    def _build_row(self, sids: np.ndarray, levels: int = 1) -> None:
        """Build every row not built yet that a walk of fewer than levels steps from sids reads.

        Level by level, as _evolve walks them, the unbuilt rows among the
        states the walk stands on, sorted by id, get one fold, which
        returns the branching numbers sorted by (source, target), the order
        the tables keep; one _intern call gives the targets their ids.
        Then one character batch, one _segment_laws call (a segment per
        row: its b dim mu at t = 0, else its logs of b chi_mu / (chi_lambda
        chi_V), whose common log chi_lambda + log chi_V errs by at most
        2 e_top) and one table write finish every new row.
        """
        folds = []
        for level in range(levels):
            if level:  # the states the next step stands on; this call's targets stand in the table till the end
                reached = self._targets[sids]
                sids = np.flatnonzero(np.bincount(reached[reached >= 0]))
            todo = np.zeros(len(self._ids), dtype=bool)
            todo[sids[self._targets[sids, 0] < 0]] = True
            todo = np.flatnonzero(todo)
            if len(todo):
                src, targets, b = self._branching.fold(self._states[todo], np.ones(len(todo), dtype=np.int64), by_source=True)
                target_ids = self._intern(targets)
                lengths = np.bincount(src, minlength=len(todo))
                rows, cols = todo[src], np.arange(len(src)) - (np.cumsum(lengths) - lengths)[src]
                self._targets[rows, cols] = target_ids
                folds.append((todo, lengths, rows, cols, target_ids, b))
        if not folds:
            return
        todo, lengths, rows, cols, target_ids, b = map(np.concatenate, zip(*folds))
        self._targets[todo] = -1  # unbuilt again until the rows are normalized
        src = np.repeat(np.arange(len(todo)), lengths)  # each entry's row in todo

        def label(k):
            return f"transition row from {self.state(todo[k])}"

        if self._t_arr is None:
            # one dimension per state: a state is the target of several rows
            dim = np.zeros(len(self._ids), dtype=object)
            dim[todo] = dim[target_ids] = 1
            ids = np.flatnonzero(dim)
            dim[ids] = _weyl_dimensions(self.rs, self._states[ids])
            probs = _segment_laws(b.astype(object) * dim[target_ids], lengths, label, dim[todo] * self._dim_v)
        else:
            ids = np.concatenate([todo, target_ids])
            fresh = np.flatnonzero(np.bincount(ids, weights=np.isnan(self._log_chi[ids])))
            if len(fresh):  # one batch for every state whose character is not known yet
                self._log_chi[fresh] = self._characters.evaluate(self._states[fresh]).values
            log_chi = self._log_chi[ids]
            log_p = np.array(list(map(math.log, b.tolist()))) + log_chi[len(todo) :]
            log_p -= log_chi[src]
            log_p -= self._log_chi_v
            errors = _log_chi_error(self.rs, self._t_arr, self._states[todo] + self.rep)  # e_top, top = lambda + V
            probs = _segment_laws(log_p, lengths, label, errors=errors, common=lambda ks: 2 * errors[ks])
        self._targets[rows, cols] = target_ids
        self._probs[rows, cols] = probs
        # cumulative sums run along each row alone, so a row gets the bits it would get built by itself
        self._cdf[rows, cols] = np.cumsum(self._probs[todo], axis=1)[src, cols]
        self._cdf[todo, lengths - 1] = 1.0


def _endpoint_table(kernel: TransitionKernel, N: int, sids: np.ndarray, probs: np.ndarray, epsilon) -> MeasureTable:
    """Measure table of the law after N steps that puts probs[i] on state sids[i]."""
    if N > 0:
        problem = tensor_problem(kernel.rs, [(kernel.rep, N)], epsilon)
        dist = dict(zip(map(tuple, kernel._states[sids].tolist()), probs.tolist()))
        return assemble_measure_table(problem, dist, kernel.t)
    # zero tensor factors: the chain has not moved, no rescaling applies
    rank = kernel.rs.rank
    eps = _checked_epsilon(epsilon, 1.0)
    scaling = Scaling(epsilon=eps, x_scalar=None, center=(0.0,) * rank, spread=1.0)
    row = MeasureRow((0,) * rank, 1.0, (0.0,) * rank)
    return MeasureTable(str(kernel.rs.spec), ((kernel.rep, 0),), t=None, epsilon=eps, scaling=scaling, rows=(row,))


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
    (N,) = _integers((N,), "step counts")
    if N < 0:
        raise DomainError("step count must be nonnegative")
    kernel = TransitionKernel(rs, rep, t)
    return _endpoint_table(kernel, N, *_evolve(kernel, N), epsilon)


def _evolve(kernel: TransitionKernel, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The law after N steps on a given kernel, N already checked: state ids, ascending, and their masses.

    A state reached with zero mass stays in the support.
    """
    kernel._build_to_depth(N)
    sids = np.array([kernel.state_id((0,) * kernel.rs.rank)])
    probs = np.ones(1)
    for _ in range(N):
        # one sparse mat-vec
        targets = kernel._targets[sids]
        reached = targets >= 0
        flat = targets[reached]
        mass = np.bincount(flat, weights=(probs[:, None] * kernel._probs[sids])[reached])
        sids = np.flatnonzero(np.bincount(flat))
        probs = mass[sids]
    return sids, probs


def _mulhi(x: np.ndarray, m_lo, m_hi) -> np.ndarray:
    """High words of the 128-bit products x * m, m = 2^32 m_hi + m_lo.

    Hacker's Delight mulhu on 32-bit halves: with x = 2^32 xh + xl, the
    middle column t = xh m_lo + (xl m_lo >> 32) and w = xl m_hi + low32(t)
    cannot overflow, and the high word is xh m_hi + (t >> 32) + (w >> 32).
    """
    xl = x & _LO32
    xh = x >> _SHIFT32
    t = xl * m_lo
    t >>= _SHIFT32
    w = xh * m_lo
    w += t
    np.right_shift(w, _SHIFT32, out=t)
    w &= _LO32
    xl *= m_hi
    w += xl
    w >>= _SHIFT32
    xh *= m_hi
    xh += t
    xh += w
    return xh


def _philox_uniforms(seed: int, lo: int, hi: int, N: int) -> np.ndarray:
    """Row j: the first N doubles of NumPy's Generator(Philox(key=[seed, lo + j])).random.

    Philox4x64-10 with key (seed, c) and counter block (b, 0, 0, 0) for
    b = 1, 2, ...; the block's four words x0..x3 give four doubles
    (x >> 11) * 2^-53 in order.  Round 1 and the x0 half of round 2 do not
    read c, so they run on Python ints; the rest runs on (blocks, chains)
    arrays, as many counter blocks per pass as fit in _BLOCK words.  The
    doubles fill an (N, chains) array, returned as its transpose, so one
    step's uniforms for all chains are one contiguous row of the base.
    """
    chains, blocks = hi - lo, -(-N // 4)
    out = np.empty((blocks, 4, chains))
    c = np.arange(lo, hi, dtype=np.uint64)
    (m0, m0_lo, m0_hi), (m1, m1_lo, m1_hi) = _PHILOX_U
    # round r's keys: (seed, c) bumped r times by the Weyl increments
    k0 = [np.uint64((seed + r * _PHILOX_W[0]) % 2**64) for r in range(10)]
    k1 = [c + np.uint64(r * _PHILOX_W[1] % 2**64) for r in range(10)]
    # round 2's x0 half: the words of seed * M0
    seed_hi, seed_lo = divmod(seed * _PHILOX_M[0], 2**64)
    group = max(1, _BLOCK // chains)
    with np.errstate(over="ignore"):
        for b0 in range(0, blocks, group):
            # round 1 maps the counter (b, 0, 0, 0) to (seed, 0, hi(b M0) ^ c, lo(b M0))
            highs, lows = zip(*(divmod(b * _PHILOX_M[0], 2**64) for b in range(b0 + 1, min(b0 + group, blocks) + 1)))
            x2 = np.array(highs, dtype=np.uint64)[:, None] ^ k1[0]
            # round 2, with x1 = 0
            x0 = _mulhi(x2, m1_lo, m1_hi)
            x0 ^= k0[1]
            x1 = x2 * m1
            x2 = np.array([low ^ seed_hi for low in lows], dtype=np.uint64)[:, None] ^ k1[1]
            x3 = np.uint64(seed_lo)
            for r in range(2, 10):
                hi0 = _mulhi(x0, m0_lo, m0_hi)
                hi0 ^= x3
                hi0 ^= k1[r]
                hi1 = _mulhi(x2, m1_lo, m1_hi)
                hi1 ^= x1
                hi1 ^= k0[r]
                x0 *= m0  # the low words, in place
                x2 *= m1
                x0, x1, x2, x3 = hi1, x2, hi0, x0
            for i, x in enumerate((x0, x1, x2, x3)):
                x >>= _SHIFT11
                np.multiply(x, 2.0**-53, out=out[b0 : b0 + len(highs), i])
    return out.reshape(4 * blocks, chains)[:N].T


def _run_block(kernel: TransitionKernel, seed: int, lo: int, hi: int, N: int, keep_paths: bool):
    """End state ids of chains lo..hi-1 after N steps, and their (chains, N + 1) id paths if keep_paths.

    A step reads a contiguous copy of the cumulative sums, one column per
    target slot.  On a kernel built to depth N every row is there; below
    it, a step whose chains reach unbuilt rows builds them and copies
    again.
    """
    # chain lo + j draws from the Philox stream keyed (seed, lo + j)
    uniforms = _philox_uniforms(seed, lo, hi, N).T
    ids = np.full(hi - lo, kernel.state_id((0,) * kernel.rs.rank), dtype=np.int64)
    paths = np.empty((N + 1, hi - lo), dtype=np.int64) if keep_paths else None
    width = kernel._targets.shape[1]

    def tables():
        n = len(kernel._ids)
        # the last slot holds 1.0 or a pad, never <= u
        return kernel._targets[:n].ravel(), np.ascontiguousarray(kernel._cdf[:n, :-1].T)

    targets, columns = tables()
    for step, u in enumerate(uniforms):
        if keep_paths:
            paths[step] = ids
        index = ids * width
        if kernel._depth < N and np.any(targets.take(index) < 0):  # a chain reached an unbuilt row
            kernel._build_row(ids)
            targets, columns = tables()
        # index + k, k the entries <= u: what searchsorted(cdf, u, side="right") counts
        for column in columns:
            index += column.take(ids) <= u
        ids = targets.take(index)
    if keep_paths:
        paths[N] = ids
        return ids, paths.T
    return ids, None


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
    N, chains, seed = _check_sampling(N, chains, seed)
    kernel = TransitionKernel(rs, rep, t)
    blocks = []
    on_paths = (lambda lo, paths: blocks.append(paths)) if keep_paths else None
    counts = _sample(kernel, N, chains, seed, on_paths)
    ends = np.flatnonzero(counts)
    table = _endpoint_table(kernel, N, ends, counts[ends] / chains, epsilon)
    states = list(map(tuple, kernel._states[: len(kernel._ids)].tolist()))
    trajectories = tuple(
        Trajectory(seed=seed, chain=c, steps=tuple(map(states.__getitem__, path)))
        for c, path in enumerate(chain.from_iterable(paths.tolist() for paths in blocks))
    )
    return table, trajectories


def _check_sampling(N: int, chains: int, seed: int) -> tuple[int, int, int]:
    """(N, chains, seed) as ints, or a DomainError."""
    N, chains, seed = _integers((N, chains, seed), "step count, chain count and seed")
    if chains < 1:
        raise DomainError("need at least one chain")
    if N < 0:
        raise DomainError("step count must be nonnegative")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} is outside [0, 2^64)")
    return N, chains, seed


def _sample(kernel: TransitionKernel, N: int, chains: int, seed: int, on_paths=None) -> np.ndarray:
    """The chain count per state id after N steps on a given kernel; the arguments are already checked.

    With on_paths, each block of chains lo.. passes on_paths(lo, paths),
    its (chains, N + 1) state id paths, as soon as it is sampled.
    """
    ends = []
    for lo in range(0, chains, _BLOCK):
        ids, paths = _run_block(kernel, seed, lo, min(lo + _BLOCK, chains), N, on_paths is not None)
        ends.append(ids)
        if on_paths is not None:
            on_paths(lo, paths)
    return np.bincount(np.concatenate(ends), minlength=len(kernel._ids))


def _paths_writer(stream, kernel: TransitionKernel, seed: int):
    """An on_paths for _sample that writes each block to stream as JSONL.

    The bytes are those of trajectories_to_jsonl on the same chains: a
    state's text, str of its row as a list of ints, is its JSON text, read
    from the state table once per block.  Each slice of _PATHS_SLICE
    chains is one object grid of line heads, "text, " and "text]}\n"
    pieces, joined and written at once, so the grid and its text stay
    small while a block holds up to _BLOCK chains.
    """

    def write(lo: int, paths: np.ndarray) -> None:
        texts = list(map(str, kernel._states[: len(kernel._ids)].tolist()))
        inner = np.array([s + ", " for s in texts], dtype=object)
        last = np.array([s + "]}\n" for s in texts], dtype=object)
        for start in range(0, len(paths), _PATHS_SLICE):
            part = paths[start : start + _PATHS_SLICE]
            chains, length = part.shape
            first = lo + start
            grid = np.empty((chains, length + 1), dtype=object)
            grid[:, 0] = [f'{{"seed": {seed}, "chain": {c}, "steps": [' for c in range(first, first + chains)]
            grid[:, 1:-1] = inner.take(part[:, :-1])
            grid[:, -1] = last.take(part[:, -1])
            stream.write("".join(grid.ravel().tolist()))

    return write
