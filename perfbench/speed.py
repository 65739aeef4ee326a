"""Machine-speed probe.

On a shared 2-vCPU Intel Xeon host the speed of a core was measured to
drift by up to 2x over minutes; CPU time tracks wall time, so the loss is in
execution speed, not in waiting.  Raw timings of two identical runs a few
minutes apart can therefore differ by more than any regression bound.  Each run interleaves a
fixed calibration kernel, written here and independent of polyfourier, with
its operations, every INTERVAL_S, and divides every operation timing by the
run's speed factor

    factor = mean(kernel time in this run) / REFERENCE_S,

so a reported time reads as the time on a machine where the kernel takes
REFERENCE_S.  The raw timings are printed alongside.  A change to the
library moves the normalized timings exactly as it moves the raw ones.

The probe must share the operations' thread: ring_pairs and ring_lattice
sample it between operations, and validate_cli's child process samples it
from an interval timer (a probe in the parent, on the other core, tracked
the child worse than no probe at all).

The kernel does not track the start-up of a fresh process, which swung by
2x between runs minutes apart while the kernel moved far less.  Each set-up
sample is therefore paired with a reference process started just before it,
a fresh interpreter that imports numpy (SETUP_REFERENCE_ARGV) as every
set-up does before it reaches polyfourier, and

    setup_s = median(set-up time / reference time) * SETUP_REFERENCE_S.

Work added to set-up raises setup_s in proportion, as it raises the raw time.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Typical kernel time on the machine that recorded perfbench/BASELINE.md.
REFERENCE_S = 1.5e-3

INTERVAL_S = 0.25  # probe interval inside a timed region

SETUP_REFERENCE_ARGV = ["-c", "import numpy"]
# Typical reference-process time on the machine that recorded BASELINE.md.
SETUP_REFERENCE_S = 0.17
_ANGLES = np.arange(20000) * 1e-3


def kernel() -> float:
    """Interpreter-bound float loop, Fraction arithmetic and a numpy cos
    sweep: the three kinds of work polyfourier's layers do."""
    acc = 0.0
    for i in range(1, 4000):
        acc += math.sqrt(i) / i
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)
    return acc + float(f) + float(np.cos(_ANGLES).sum())


class SpeedProbe:
    """Collects kernel timings during a run; `factor()` is their mean over
    REFERENCE_S (above 1 on a slower machine)."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        # The mean, not the median: slow spells on this host come in bursts,
        # which the operations pay in full and a median would skip.
        if not self.samples:  # every child process died before reporting
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S
