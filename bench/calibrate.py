"""Host-speed calibration: report times in reference-host seconds.

Raw wall times of identical code drift by tens of percent between runs
on a shared host.  On the reference host the speed switches between a
fast and a ~1.8x slower state every few seconds, so a timed repeat of a
few seconds often straddles both.  The benchmark therefore samples the
host's speed *while* a repeat runs: a ``SIGALRM`` timer runs a short
fixed pure-Python loop (heap pushes and pops plus dict updates, the
kind of work the simulator does) every :data:`PROBE_INTERVAL_S`, and
once more immediately before and after the repeat.  With ``p_i`` the
loop's times::

    calibrated = (raw - time spent in loops during the repeat)
                 * CALIB_REF_S * mean(1 / p_i)

``mean(1 / p_i)`` is the time-averaged host speed, so a repeat that ran
on a host (or in a minute) 30% slower reads about the same as one on the
reference host.  The loops cost about 1% of a repeat; they run in the
benchmark's own process and thread, between bytecodes of the workload.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter
from typing import List, Sequence

#: median time of one calibration loop on the reference host, in its
#: fast state (2-vCPU x86-64 VM, CPython 3.11).
CALIB_REF_S = 0.00014

#: iterations of one calibration loop.
CALIB_ITERATIONS = 200

#: wall seconds between calibration loops while a repeat runs.
PROBE_INTERVAL_S = 0.02


def calibration_loop(iterations: int = CALIB_ITERATIONS) -> float:
    """Run the fixed loop once; return its wall seconds."""
    heap = []
    table = {}
    x = 1
    started = perf_counter()
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
        table[x & 4095] = table.get(x & 4095, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - started


class SpeedProbe:
    """Runs the calibration loop every :data:`PROBE_INTERVAL_S` while active.

    ``samples`` holds the loop times taken inside the ``with`` block and
    ``spent`` their sum: time the measured code did not spend on itself.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        took = calibration_loop()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_factor(loops: Sequence[float]) -> float:
    """Reference-host seconds per raw second, from the loop times seen."""
    if not loops or min(loops) <= 0:
        raise ValueError(f"need positive loop times, got {list(loops)}")
    return CALIB_REF_S * statistics.fmean(1.0 / loop for loop in loops)

