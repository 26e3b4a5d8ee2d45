"""Wall times scaled to a reference CPU speed.

The benchmark runs on shared virtual CPUs whose speed drifts by 10-40%
within seconds and between minutes, and one of which can run at half the
speed of the other for minutes.  The drift slows the library and a plain
Python loop alike (their times correlate at 0.7-0.9 on such a machine),
so the benchmark times this fixed loop on the same CPU right before and
after each op, and scales the op's wall time by how much slower than
NOMINAL_S the loop ran around it.  The loop lives in the benchmark, so no
change to the library can move it, and it allocates nothing the garbage
collector tracks, so a larger library heap cannot slow it either.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 10000
# the loop's time on the faster core of the 2-vCPU VM the benchmark was
# built on, when nothing else ran; any constant would do, since both
# sides of a comparison use it
NOMINAL_S = 0.001
# each op is scaled by the median loop time over this many loops on each
# side of it, beyond the two that bracket it
WINDOW = 2

_TABLE = {i: i * 7 for i in range(64)}


def reference_s() -> float:
    """Seconds the reference loop takes now, on this CPU."""
    table = _TABLE
    x = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        x = (x + table[(x ^ i) & 63]) & 0xFFFF
    return time.perf_counter() - start


def scale(latencies, refs) -> list:
    """Each latency at reference speed.  refs[i] and refs[i + 1] are the
    loop times right before and after latency i."""
    if len(refs) != len(latencies) + 1:
        raise ValueError("need one reference time before each op and one after the last")
    return [lat * NOMINAL_S / statistics.median(refs[max(0, i - WINDOW):i + 2 + WINDOW])
            for i, lat in enumerate(latencies)]
