"""The host's CPU speed, sampled while a workload runs.

On a shared host the same code takes more or less CPU time from one second
to the next: the hypervisor places other guests on the sibling hyperthread
and in the caches, and the program then runs up to 1.7x slower for a few
seconds at a time.  A fixed pure-Python loop, timed every ``INTERVAL_S``
of the measured phase, tracks that speed.  A CPU time measured while the
loop took ``c`` ms (the median of the loop's times within ``WINDOW_S``) is
reported as ``t * REFERENCE_MS / c``: the time it would have taken on a
host where the loop takes ``REFERENCE_MS``.  The loop does not touch the
program under test, so a change to the program moves the reported times
exactly as much as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Optional

#: The loop's CPU time on the reference host (a quiet 2.0 GHz Xeon guest),
#: in milliseconds.
REFERENCE_MS = 1.8
#: How often the loop is timed while measuring.
INTERVAL_S = 0.1
#: Loop times within this many seconds of a measurement set its speed.
WINDOW_S = 0.5


def calibration_loop() -> float:
    """Run the fixed loop once; return its thread CPU time in milliseconds.

    Dict updates, float arithmetic and a sort: the interpreter work that
    dominates the program's own hot paths.
    """
    began = time.thread_time_ns()
    table = {}
    total = 0.0
    for i in range(6000):
        table[i % 512] = table.get(i % 512, 0.0) + i * 0.5
        total += (i % 7) * 1.25
    sorted(table.values(), reverse=True)
    return (time.thread_time_ns() - began) / 1e6


class SpeedProbe:
    """Times the calibration loop at most every ``INTERVAL_S`` seconds."""

    def __init__(self) -> None:
        #: perf_counter_ns at each timing, the loop's ms, and the process
        #: CPU ns used so far without the loop's own.
        self.stamps: List[int] = []
        self.loop_ms: List[float] = []
        self.cpu: List[int] = []
        #: Process CPU time the loop itself has used, so callers can leave
        #: it out of what they measure.
        self.cpu_ns = 0
        self._next = 0

    def reset(self) -> None:
        self.stamps, self.loop_ms, self.cpu = [], [], []
        self._next = 0

    def sample(self, force: bool = False) -> None:
        """Time the loop, unless it was timed less than ``INTERVAL_S`` ago."""
        now = time.perf_counter_ns()
        if now < self._next and not force:
            return
        cpu = time.process_time_ns()
        self.loop_ms.append(calibration_loop())
        self.cpu_ns += time.process_time_ns() - cpu
        self.stamps.append(now)
        self.cpu.append(cpu - self.cpu_ns)
        self._next = now + int(INTERVAL_S * 1e9)

    def scale(self, at_ns: Optional[int] = None) -> float:
        """The factor that takes a CPU time measured around ``at_ns`` (or
        anywhere since the last ``reset``) to the reference host."""
        if not self.stamps:
            raise RuntimeError("the speed probe took no samples")
        near = self.loop_ms
        if at_ns is not None:
            lo = bisect.bisect_left(self.stamps, at_ns - int(WINDOW_S * 1e9))
            hi = bisect.bisect_right(self.stamps, at_ns + int(WINDOW_S * 1e9))
            if lo == hi:  # no timing that close: take the nearest one
                lo = min(lo, len(self.stamps) - 1)
                hi = lo + 1
            near = self.loop_ms[lo:hi]
        return REFERENCE_MS / statistics.median(near)

    def scaled_cpu_s(self) -> float:
        """Process CPU seconds from the first timing to the last, without
        the loop's own, each interval taken to the reference host."""
        total = 0
        for i in range(1, len(self.stamps)):
            middle = (self.stamps[i - 1] + self.stamps[i]) // 2
            total += (self.cpu[i] - self.cpu[i - 1]) * self.scale(middle)
        return total / 1e9


#: The process's one probe.
PROBE = SpeedProbe()
