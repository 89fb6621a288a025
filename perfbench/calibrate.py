"""Reference loop that scales the timed metrics to a fixed machine speed.

The benchmark runs on shared machines whose speed drifts: the same
iteration on the same inputs takes anywhere from 1.1 to 2.5 s over ten
minutes, in phases lasting seconds to minutes, and CPU time moves with wall
time.  A 25 s run cannot average that out, so ten runs of the same code
spread by 15 to 25% of their median.

The reference loop is fixed work of the same kinds the workloads do, but no
``selfnorm_lab`` code: scipy ``quad`` on a Python integrand, numpy draws,
sorts and cumulative sums, and a Python arithmetic loop.  Run between
iterations, for a fixed share of the time they take, it sees the same
phases.  Over 25 s windows its mean unit time tracks the mean iteration time
with a correlation of 0.85 to 0.99 (the lower end on the workloads that run
two threads), and the ratio of the two spreads two to seven times less than
the iteration time alone.

A timed metric is reported at reference speed: multiplied by
``REF_UNIT_S`` over the mean unit time measured alongside it.
``REF_UNIT_S`` is about the unit time on the machine described in
``README.md`` (it reads 6.5 to 10 ms there); it only sets the scale, so
reported times read close to seconds there.  Only a change to the reference loop or to this constant
changes what a time means; a change to the package does not touch the loop.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

REF_UNIT_S = 0.008   # unit time on the reference machine
SHARE = 0.12         # reference time per second of measured work


def _integrand(x, a):
    return math.atan(a * x) / (1.0 + x * x)


def unit() -> float:
    """One unit of reference work; returns a value so nothing is skipped."""
    s = 0.0
    for k in range(40):
        s += quad(_integrand, 0.0, 50.0, args=((k + 1) * 0.01,), limit=200)[0]
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(4):
        x = rng.pareto(0.5, 20_000)
        s += float(np.sort(x)[100]) + float(np.cumsum(x)[-1])
    for i in range(20_000):
        s += math.sqrt(i) * 0.5
    return s


class Reference:
    """Unit times of the reference loop, collected alongside a measurement."""

    def __init__(self):
        self.times = []

    def run(self, seconds: float) -> None:
        """Run whole units, at least one, until ``seconds`` have passed.

        The collector is off meanwhile, so the package's live objects do not
        cost the loop a collection.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                unit()
                t1 = time.perf_counter()
                self.times.append(t1 - t0)
                if t1 - start >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()

    @property
    def unit_s(self) -> float:
        return statistics.fmean(self.times)

    @property
    def scale(self) -> float:
        """Factor that takes a time measured alongside to reference speed."""
        return REF_UNIT_S / self.unit_s
