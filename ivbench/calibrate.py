"""Read the host's current speed from a fixed reference computation.

The benchmark runs on a few cores of a shared host.  Other tenants slow it
in two ways: the guest scheduler gives their processes turns on our core,
and the host slows or pre-empts the whole virtual CPU.  Timing an op in CPU
seconds removes the first.  For the second, a fixed slice of work that does
not touch ivtest runs between ops; how long it takes right then tells how
fast the host is running.  An op's CPU time is rescaled to the reference
speed, at which one slice takes ``REFERENCE_S``:

    normalized = op_cpu_s * REFERENCE_S / slice_cpu_s

The slice is pure Python, like most of ivtest's time: exact ``Fraction``
sums whose denominators grow to long integers, and building, indexing and
sorting many small objects, about half its time each.  Slices that also ran
small numpy kernels slowed less than ivtest's ops when the host was busy.
The slice does the same work every time, and garbage collection is paused
while it runs, so heap left behind by the program does not change its cost.
"""

from __future__ import annotations

import gc
import resource
import time
from fractions import Fraction

# CPU seconds one slice takes on the reference machine, a 2-core x86_64
# virtual machine with Python 3.11, when its host is quiet.
REFERENCE_S = 0.016
MIN_SLICES = 3  # slices in one calibration point, at least
SHARE = 0.1  # and enough to take this share of the op before it


def cpu_s() -> float:
    """CPU seconds of this process plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _work():
    for _ in range(28):  # exact sums whose denominators grow to long integers
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(1, k * k + 1)
    for _ in range(4):  # many small objects: build, index, sort
        rows = [(i, float(i) * 0.5, str(i)) for i in range(8000)]
        by_key = {r[0]: r for r in rows}
        sorted(rows, key=lambda r: -r[1])
    return acc, by_key


def slice_s() -> float:
    """CPU seconds of one reference slice, run now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = cpu_s()
        _work()
        return cpu_s() - t0
    finally:
        if was_enabled:
            gc.enable()


def point(op_cpu_s: float = 0.0) -> list[float]:
    """One calibration point: CPU seconds of each slice run now.

    Longer ops get more slices, so that each point samples the host for a
    fixed share of the time the op before it took.
    """
    n = max(MIN_SLICES, round(SHARE * op_cpu_s / REFERENCE_S))
    return [slice_s() for _ in range(n)]
