"""Host-speed reference for the opfield benchmark.

A shared host's speed drifts: on a 2-vCPU Intel Xeon VM the same fixed
Fraction loop took from 1x to 2x its best time within a minute, and every
kernel slowed together. The benchmark times this fixed, stdlib-only kernel
before and after each call and scales the call's time by how much slower the
kernel ran than its nominal time, so a metric reports the call's time at a
fixed host speed. The kernel never imports opfield, so no change to the
program moves it.

The kernel mixes what opfield spends its time on: a sparse product of
polynomials with Fraction coefficients in a dict keyed by exponent tuples,
and a loop of multi-limb integer arithmetic.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Time of one kernel() on an idle core of the 2-vCPU Intel Xeon VM where the
# benchmark was written; scaled metrics read as seconds on that host.
NOMINAL_S = 0.0025
REPS = 2  # kernel runs per sample; their mean is the sample

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
_B = {(i, j): Fraction(j - 3, i + 1) for i in range(5) for j in range(6) if (i + j) % 2}
_MOD = 7**420


def kernel() -> None:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    x = 3**400
    for i in range(3000):
        x = (x * 12345 + i) % _MOD


def sample() -> float:
    """Mean time of REPS kernel runs, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REPS):
            kernel()
        return (perf_counter() - start) / REPS
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two samples, at the nominal host speed."""
    return seconds * NOMINAL_S * 2 / (before + after)
