"""Fixed reference kernel that measures how fast this core runs right now.

On the 2-core virtual machine this benchmark was measured on, each core
runs in fast and slow phases, up to twice apart, lasting from under a
second to many seconds, and the two cores change phase independently.  A ``Stopwatch`` therefore samples
the core's speed around and during every timed operation:

* before and after the operation it runs the kernel, ``LEGS`` legs;
* while the operation runs, a SIGALRM every ``PERIOD_S`` seconds runs one
  more leg in this process.

A leg is timed in CPU seconds of this thread, and those seconds are taken
off the operation's wall time.  The operation's time in reference seconds
(``ref_s``) is then

    ref_s = (wall_s - sampled legs) * NOMINAL_S / mean(leg times)

where the bracketing kernels count as one leg time each.  A short
operation sees only the brackets, which makes this the ratio to the mean
of the two bracketing runs.  A long one is rescaled by the speed the core
had while it ran.

A leg does what the solvers do: dict builds, a keyed sort and a float
loop, all in pure Python.  It imports nothing from the program, so no
change to the program can move it.  It has no numpy leg because the
program's timed paths are pure Python; a numpy sort-and-cumsum timed with
this kernel spread wider than its raw time (README, "Timing").

Do not change the leg, NOMINAL_S, LEGS or PERIOD_S: every recorded ref_s
figure depends on them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Nominal CPU time of one leg, in seconds; the README records it too.
NOMINAL_S = 0.004
LEGS = 5
PERIOD_S = 0.05

_N = 4000


def _leg_body() -> float:
    keys = [(i * 7919) % _N for i in range(_N)]
    value = {k: k * 0.5 + 1.0 for k in keys}
    inverse = {k: 1.0 / v for k, v in value.items()}
    order = sorted(keys, key=lambda k: (inverse[k], k))
    acc = 0.0
    for k in order:
        acc = acc + value[k] * inverse[k] - 0.25
    return acc


def leg() -> float:
    """Run one leg and return its CPU time in seconds.

    The collector is off while it runs: the leg makes no cycles, and a
    full collection of a large host heap would otherwise land in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _leg_body()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def kernel() -> float:
    """The mean CPU time of ``LEGS`` legs run back to back."""
    return statistics.fmean(leg() for _ in range(LEGS))


class Stopwatch:
    """Times one operation in reference seconds; see the module docstring.

    After the ``with`` block: ``wall`` is the operation's own wall time
    (sampled legs taken off), ``ref`` its reference seconds, ``factor``
    their ratio, ``legs`` every leg time seen and ``samples`` the
    (start, CPU seconds) of each leg sampled inside.  Pass ``before`` and
    ``start`` to time from a kernel and a perf_counter reading taken
    earlier, possibly by the parent process just before it started this
    one (perf_counter is the system's monotonic clock on Linux).
    """

    def __init__(self, before: float | None = None, start: float | None = None):
        self.before = before
        self.start = start
        self.samples = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, leg()))

    def __enter__(self):
        self.legs = [kernel() if self.before is None else self.before]
        self._old = signal.signal(signal.SIGALRM, self._sample)
        if self.start is None:
            self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self.legs += [s for _, s in self.samples]
        self.legs.append(kernel())
        self.wall = self.own(self.start, end)
        self.factor = NOMINAL_S / statistics.fmean(self.legs)
        self.ref = self.wall * self.factor

    def own(self, start: float, end: float) -> float:
        """Wall time between two perf_counter readings, sampled legs taken off."""
        return (end - start) - sum(s for t, s in self.samples if start <= t < end)
