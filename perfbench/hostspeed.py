"""How fast the host runs right now, sampled while the work runs.

On a shared two-vCPU host the same work runs up to twice as slowly in some
phases as in others; the phases last from under a second to many seconds,
and process CPU time follows wall time, so it does not remove the effect.
So while a timed block runs, a SIGALRM every PERIOD seconds interrupts it
for one short reference slice of the same kind of work. The slices' time
is taken out of the block's time, and the block is rescaled to nominal
speed:

    normalized = (elapsed − slice time) × NOMINAL[kind] / mean(slice time)

The slices use only Python and numpy, never starorder, so a change to the
program cannot move them. NOMINAL holds each slice's median time on the
reference host (2 vCPU, Python 3.11, numpy 2.4 with OpenBLAS on one
thread), so normalized figures read as seconds on that host in an average
phase. The slices cost about 6% of a block's wall time.
"""

from __future__ import annotations

import functools
import itertools
import signal
import statistics
import time

PERIOD = 0.02
NOMINAL = {"py": 1.1e-3, "np": 1.0e-3}

_TRIPLES = tuple(itertools.product(range(3), repeat=3))


@functools.cache
def _matrices():
    # numpy is imported here, not at module load, so that the benchmark can
    # time its own `import numpy` inside a "py" block
    import numpy as np

    rng = np.random.default_rng(0x5EED)
    z = rng.standard_normal((4000, 4, 4)) + 1j * rng.standard_normal((4000, 4, 4))
    return np, list((z + z.conj().transpose(0, 2, 1)) / 2)


def _py_slice():
    # closures, generators and tuple compares over a small carrier, like the
    # harness evaluating a law on every pair of random variables
    def le(f, g):
        return all(a == 0 or a == b for a, b in zip(f, g))

    n = 0
    for x, y in itertools.product(_TRIPLES, repeat=2):
        n += le(x, y)
    return n


_cursor = itertools.count()


def _np_slice():
    # small-matrix numpy calls with Python glue, spread over a 1 MB pool of
    # operands. Measured against dim-4 and dim-64 meets in 1 s windows on
    # the reference host, this slice's time tracks theirs (slope 1.03 and
    # 0.90, correlation 0.98) better than a slice on a few cached operands
    # or on a dim-64 eigh does.
    np, pool = _matrices()
    s = 0.0
    for _ in range(24):
        m = pool[next(_cursor) * 7919 % len(pool)]
        w, v = np.linalg.eigh(m)
        u = v[:, w > 0]
        p = u @ u.conj().T
        s += float(np.linalg.norm(p @ m - m @ p))
    return s


_SLICES = {"py": _py_slice, "np": _np_slice}


def reference(kind: str, reps: int = 5) -> float:
    """Median seconds of `reps` reference slices of `kind`, run now."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _SLICES[kind]()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Block:
    """Times one block of work while sampling the host's speed inside it.

    After the block, `raw` is its wall time without the slices, `factor`
    rescales any time measured inside it to nominal speed, and `seconds` is
    `raw` so rescaled. `paused` is the slice time so far, for timing single
    calls inside the block: their own time is the wall time minus the growth
    of `paused`."""

    def __init__(self, kind: str):
        self.kind = kind
        self.slices: list[float] = []
        self.paused = 0.0
        self.raw = 0.0
        self.factor = 1.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _SLICES[self.kind]()
        dt = time.perf_counter() - t
        self.slices.append(dt)
        self.paused += dt

    def __enter__(self):
        if self.kind == "np":
            _matrices()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc):
        # stop the timer first: a slice that runs before `elapsed` is taken
        # is then inside both `elapsed` and `paused`
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._t
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = elapsed - self.paused
        if not self.slices:  # a block shorter than PERIOD: sample right after it
            self.slices.append(reference(self.kind, reps=1))
        self.factor = NOMINAL[self.kind] / statistics.fmean(self.slices)
        return False

    @property
    def seconds(self) -> float:
        return self.raw * self.factor
