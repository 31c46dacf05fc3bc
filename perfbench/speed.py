"""A fixed reference loop that measures how fast the CPU runs right now.

Shared VMs change speed in phases of seconds (see README.md, Noise).  Every
worker times this loop after its set-up, and right before, during and right
after each job (``JobClock``).  The run scales each time by
``REFERENCE_S / probe``: it reports seconds at a fixed reference speed, at
which the loop takes ``REFERENCE_S``.
A change to tensorstat moves the scaled times exactly as it moves the plain
ones, because the loop runs none of its code.  The loop mixes what tensorstat
spends its time on: interpreted integer and ``Fraction`` arithmetic, and
many small NumPy calls with a fresh Philox generator each.
"""

from __future__ import annotations

import signal
from time import perf_counter

# about the loop's time on the 2-core Xeon VM described in README.md
REFERENCE_S = 0.016
REPEATS = 3
# a job longer than this is also probed while it runs
TICK_S = 0.4


def _loop(np, Fraction) -> float:
    total = Fraction(0)
    for i in range(1, 2001):
        total += Fraction(i % 7, i)
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    grid = np.linspace(0.0, 1.0, 512)
    x = 0.0
    for i in range(120):
        values = np.random.Generator(np.random.Philox(i)).random(32)
        x += float(np.searchsorted(grid, values).sum())
    return float(total) + acc + x


def probe() -> float:
    """Shortest of a few timings of the reference loop, in seconds."""
    # imported here, so that a worker's set-up clock still pays for them
    from fractions import Fraction

    import numpy as np

    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _loop(np, Fraction)
        best = min(best, perf_counter() - start)
    return best


class JobClock:
    """Wall clock of one job, with the loop timed around and inside it.

    Use as ``with JobClock(ticks) as clock:`` around a call that brackets the
    job with ``clock.start()`` and ``clock.stop()``.  With ``ticks`` on, a
    timer signal runs the loop once every ``TICK_S`` of wall time while the
    job runs, so a job longer than a speed phase is scaled by its own mean
    speed.  ``seconds`` is the job's wall time minus the time spent in those
    loops; ``probe_s`` is the mean of the loop timings before, during and
    after the job.
    """

    def __init__(self, ticks: bool):
        from fractions import Fraction

        import numpy as np

        self._args = (np, Fraction)
        self._ticks = ticks
        self._samples: list[float] = []
        self._inside = 0.0
        self._start = None
        self.seconds = 0.0

    def _time_loop(self) -> float:
        start = perf_counter()
        _loop(*self._args)
        return perf_counter() - start

    def _tick(self, signum, frame) -> None:
        spent = self._time_loop()
        self._samples.append(spent)
        if self._start is not None:
            self._inside += spent

    def start(self) -> None:
        self._start = perf_counter()

    def stop(self) -> None:
        self.seconds = perf_counter() - self._start - self._inside
        self._start = None

    def __enter__(self) -> "JobClock":
        self._samples += [self._time_loop() for _ in range(REPEATS)]
        if self._ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._ticks:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._samples += [self._time_loop() for _ in range(REPEATS)]

    @property
    def probe_s(self) -> float:
        return sum(self._samples) / len(self._samples)
