"""Host-speed calibration for the benchmark's timings.

The benchmark's reference host (2 vCPUs of a shared Xeon) runs the same
deterministic chain anywhere from 1.1 to 2.5 s: neighbours on the physical
cores slow every instruction, in phases from under a second to minutes, so
neither more repeats nor medians steady a wall-clock figure. A fixed
reference kernel, timed every few sweeps, slows at the same moments, and the
package's code slows as a power of it (ALPHA). Dividing a wall time by the
reference slowdown to that power gives the time at the reference kernel's
nominal speed. The kernel uses numpy and plain Python only, never the
package. Each tick first runs it untimed, so the caches the last
sweep left behind are mostly refilled before the timed calls; README.md gives
what remains of that effect.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pdgsbr import gibbs

# Seconds per timed reference() call on an idle core of the reference host
# (about its fastest observed calls). Only ratios to it are reported; it never
# changes.
REFERENCE_S = 3.0e-5

# The package's code slows less than the reference kernel on a loaded host:
# at the seed commit, chain time grew as the reference slowdown to the power
# 0.6-0.8 on all three workloads (README.md). Times are divided by the
# slowdown to this power.
ALPHA = 0.7

# A tick every TICK_EVERY sweeps: WARM_CALLS untimed reference() calls, then
# TIMED_CALLS timed ones.
TICK_EVERY = 10
WARM_CALLS = 2
TIMED_CALLS = 6

_COEFFS = (0.05, 2.55, 0.0, -0.99, 0.0, 0.0)
_GRID = np.linspace(-1.0, 1.0, 64)


def reference() -> float:
    """Interpreter-bound work with small numpy calls: the mix of a sweep."""
    acc = 0.0
    for i in range(12):
        x = i / 12.0
        y = 0.0
        for c in _COEFFS:
            y = y * x + c
        acc += y + float(np.exp(-_GRID * x).sum())
    return acc


class Calibrator:
    """Running total of reference-kernel time, sampled between sweeps."""

    def __init__(self):
        self.spent = 0.0  # wall seconds of whole ticks, warm-up included
        self.seconds = 0.0  # of the timed calls
        self.calls = 0

    def tick(self) -> None:
        start = perf_counter()
        for _ in range(WARM_CALLS):
            reference()
        timed = perf_counter()
        for _ in range(TIMED_CALLS):
            reference()
        end = perf_counter()
        self.spent += end - start
        self.seconds += end - timed
        self.calls += TIMED_CALLS

    def ticks(self, count: int) -> None:
        for _ in range(count):
            self.tick()

    def mark(self) -> tuple:
        return self.spent, self.seconds, self.calls

    def since(self, mark: tuple = (0.0, 0.0, 0)) -> tuple:
        """(wall seconds of the ticks, slowdown factor) since ``mark``.

        The factor is the reference slowdown to the power ALPHA: what a wall
        time of the package's code is divided by.
        """
        spent, seconds, calls = (now - then for now, then in zip(self.mark(), mark))
        return spent, ((seconds / calls / REFERENCE_S) ** ALPHA if calls else 1.0)

    def wrap(self, step):
        sweeps = 0

        def calibrated(*args, **kwargs):
            nonlocal sweeps
            result = step(*args, **kwargs)
            sweeps += 1
            if sweeps % TICK_EVERY == 0:
                self.tick()
            return result
        return calibrated


@contextmanager
def calibrated(calibrator: Calibrator):
    """Tick ``calibrator`` every TICK_EVERY sweeps of both sweep functions."""
    saved = gibbs.sweep, gibbs.parametric_sweep
    gibbs.sweep, gibbs.parametric_sweep = (calibrator.wrap(step) for step in saved)
    try:
        yield calibrator
    finally:
        gibbs.sweep, gibbs.parametric_sweep = saved
