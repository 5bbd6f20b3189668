"""Host-speed reference: a fixed pure-Python workload timed alongside the
journey.

On a shared host the speed of the same Python code drifts by tens of
percent over seconds to minutes (other tenants, frequency, SMT
siblings), which would swamp a 10% regression bound. The benchmark
times this reference between rounds and reports every time scaled to
the reference's nominal speed, so a slow minute slows the reference as
much as the journey and cancels out. The reference uses no library
code: a change to the system cannot speed up the yardstick.
"""

from __future__ import annotations

import time
from typing import Tuple

#: Duration of one :func:`_reference` pass on the calibration host
#: (2-core x86-64, Python 3.11), the speed every reported time is
#: scaled to.
NOMINAL_S = 0.0040
#: Passes per measurement; the fastest is kept (interference only slows).
PASSES = 2


def _reference() -> int:
    # Dict updates, integer arithmetic and small-string work: the same
    # kinds of bytecode the interpreter, probe and service spend on.
    table = {}
    acc = 0
    for i in range(20000):
        key = i & 4095
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc


def measure() -> float:
    """Seconds of one reference pass right now (fastest of a few)."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two reference
    measurements into nominal-host time."""
    return NOMINAL_S / ((before + after) / 2.0)


class PhaseClock:
    """Wall time cut into phases at reference measurements.

    The host's speed switches between regimes every second or so, so a
    long interval is scaled badly by references taken only at its ends;
    cutting a round at every point where the service is idle keeps each
    phase short. The reference measurements themselves are not timed.
    """

    def __init__(self):
        self.reference = measure()
        self.start = time.perf_counter()

    def restart(self) -> None:
        """Begin the next phase now (untimed work happened since)."""
        self.start = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        """End the current phase: ``(raw seconds, scale factor)``. The
        next phase starts when this returns."""
        end = time.perf_counter()
        raw = end - self.start
        reference = measure()
        factor = scale(self.reference, reference)
        self.reference = reference
        self.start = time.perf_counter()
        return raw, factor
