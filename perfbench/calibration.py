"""Machine-speed calibration for timing on a shared host.

The host's speed drifts by 10-30 % within seconds and over minutes, with
the same code and inputs (see README.md, "Noise and calibration").  A run
therefore times a fixed calibration kernel in a short burst before every
operation, between the commands of an operation, and after the last one.
Each stretch of program time between two bursts is divided by its speed
factor, the mean of the two bursts over the kernel's reference time; the
sum over an operation's stretches is its time at the reference speed.

The kernel is vectorised numpy on 32,768-element arrays, like the particle
push, the deposit and the field interpolation.  It imports nothing from
``src/``, so a change to the program never changes it.  A kernel of
small-array calls from Python, like the Cartesian characteristics, was
tried and tracked the drift worse on every workload, the Cartesian one
included.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N_VECTOR = 32768
N_SHELLS = 512
PASSES = 8
REPEATS = 7

# median burst on the machine the benchmark was introduced on (2 vCPUs,
# "Intel(R) Xeon(R) Processor", numpy 2.4.6); it only sets the scale of the
# normalised figures, which read as seconds at that machine's usual speed
REFERENCE_S = 0.023


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20240531)   # fixed: never the run's seed
        self.x = rng.random(N_VECTOR)
        self.bins = rng.integers(0, N_SHELLS + 1, N_VECTOR)
        self.edges = np.linspace(0.0, 1.0, N_SHELLS + 1)
        self.bursts = []

    def _kernel(self):
        x = self.x
        for _ in range(PASSES):
            y = np.sin(x) * x + np.sqrt(x)
            np.bincount(self.bins, weights=y, minlength=N_SHELLS + 1).cumsum()
            np.interp(y, self.edges, self.edges)

    def burst(self) -> float:
        """Median of REPEATS kernel timings, in seconds; kept in ``bursts``."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        t = statistics.median(times)
        self.bursts.append(t)
        return t


def speed_factor(before: float, after: float) -> float:
    """How many times slower than the reference the machine ran around one
    operation: the mean of the bracketing bursts over REFERENCE_S."""
    return 0.5 * (before + after) / REFERENCE_S


class Clock:
    """Times one operation in stretches separated by calibration bursts.

    ``split`` ends the current stretch with a burst; the bursts themselves
    are in neither total.  ``speeds`` holds each stretch's speed factor."""

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.raw_s = self.norm_s = 0.0
        self.speeds = []
        self._last = cal.bursts[-1] if cal.bursts else cal.burst()
        self._t0 = time.perf_counter()

    def split(self):
        dt = time.perf_counter() - self._t0
        burst = self.cal.burst()
        speed = speed_factor(self._last, burst)
        self.raw_s += dt
        self.norm_s += dt / speed
        self.speeds.append(speed)
        self._last = burst
        self._t0 = time.perf_counter()
