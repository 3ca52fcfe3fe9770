"""Host-speed-normalised timing.

On a small shared host the speed of the same single-threaded Python
code drifts by up to 2x over tens of seconds (measured on a 2-core
x86_64 sandbox: YCSB rounds of one process ranged from 39 to 80 ops/s,
with process CPU time tracking wall time, so the loss is contention for
the core, not preemption).  No run length absorbs a drift that slow.

So the benchmark times its work against a fixed probe: a short,
interpreter-bound loop that belongs to the benchmark.  Inside a
:class:`Meter` region a timer signal runs the probe every
``INTERVAL_S``; each stretch of work between two probes is scaled by
``REFERENCE_S`` over the mean of those two probes, giving the time the
stretch would have taken on a host that runs the probe in
``REFERENCE_S``.  Probe time itself is not counted.  The probe is
benchmark code, so a change to the program moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Probe time on the reference host (2-core x86_64, Python 3.11, quiet).
REFERENCE_S = 0.002
#: Seconds of work between probes.
INTERVAL_S = 0.05

_TABLE = dict.fromkeys(range(4096), 1)


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes right now."""
    t0 = perf_counter()
    acc = 0
    table = _TABLE
    for i in range(8_000):
        key = (acc + i) & 4095
        acc = (acc * 31 + table[key]) & 0xFFFFFFFF
        table[key] = acc & 0xFF
    return perf_counter() - t0


class Meter:
    """Context manager: raw and speed-scaled seconds of a region."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _close_stretch(self, *_) -> None:
        now = perf_counter()
        stretch = now - self._mark
        speed = probe()
        self.raw_s += stretch
        self.scaled_s += stretch * 2 * REFERENCE_S / (self._last + speed)
        self._last = speed
        self._mark = perf_counter()

    def __enter__(self) -> "Meter":
        if self.probing:
            self._last = probe()
            signal.signal(signal.SIGALRM, self._close_stretch)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if not self.probing:
            self.raw_s = self.scaled_s = perf_counter() - self._mark
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._close_stretch()
