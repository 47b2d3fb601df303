"""A fixed, stdlib-only gauge of the machine's current speed.

On a shared machine the same exact-arithmetic work can take twice as long
for minutes at a time, and CPU time rises with wall time, so neither
separates the program's cost from the machine's state. This module times a
fixed Gauss-Jordan elimination over Fractions, the kind of work qaffine
does, but with no qaffine code, so no change to the program can move it.
`timed` samples it before and after a call and, from a timer signal, every
PERIOD_S during it, and scales the call's wall time by NOMINAL_S / (mean
sample): the result is the call's wall time at the gauge's nominal speed.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One elimination on an uncontended vCPU (Python 3.11, x86-64) of the machine
# the benchmark was written on. Any constant works; it fixes the unit.
NOMINAL_S = 0.0052
# Gauge samples inside a long call; each costs about 2 % of the period.
PERIOD_S = 0.25

_rng = random.Random(0)
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(12))
    for _ in range(12)
)


def _eliminate() -> None:
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]


def _one() -> float:
    start = perf_counter()
    _eliminate()
    return perf_counter() - start


def sample() -> float:
    """Median time of three eliminations, in seconds."""
    return statistics.median(_one() for _ in range(3))


def timed(call):
    """Run call() and return (its result, its wall time, the factor that
    scales that time to the gauge's nominal speed). Time spent in the gauge
    during the call is not counted."""
    samples = [sample()]
    inside: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(_one()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = perf_counter()
    try:
        result = call()
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += inside
    samples.append(sample())
    return result, elapsed - sum(inside), NOMINAL_S / statistics.mean(samples)
