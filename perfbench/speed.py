"""Machine-speed probe: a fixed piece of work timed next to each timed operation.

On a shared virtual machine the speed of the whole machine moves in levels
that last from seconds to minutes, by up to 2x: every operation of a run gets
faster or slower together, whatever the program does.  The probe is work of
the same kind as the program's (Python-level dict and tuple handling of
CSV-like rows, and a numpy sort), fixed and independent of ``repro``.  It is
timed right before and right after each timed operation, and every time of a
run is scaled by ``REFERENCE_S`` over the median of all the run's probe
times: the time it would have taken with the machine at the level where the
probe takes ``REFERENCE_S``.  The median over the whole run follows the
levels that last minutes, which move whole runs, and is not moved by the
short ones, which the medians over each run's samples already absorb.  A
change to the program moves the operations and not the probe, so it shows in
full.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

# The reference level: a probe time between the ~5.6 ms and ~11 ms seen at the
# fast and slow levels of a 2-vCPU shared virtual machine.  Any fixed value
# would do: it only sets the scale at which the scaled times are reported.
REFERENCE_S = 0.008
REPEATS = 5

_ARRAY = np.random.default_rng(7).random(160_000)
_ROWS = [[str(i % 37), str(i % 11), str(i)] for i in range(12_000)]


def _work() -> int:
    totals: dict[tuple[str, str], int] = {}
    for row in _ROWS:
        key = (row[0], row[1])
        totals[key] = totals.get(key, 0) + int(row[2])
    np.sort(_ARRAY)
    return len(totals)


def probe() -> float:
    """Median time of a few repetitions of the fixed work, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Level:
    """The probe times of one run; ``scale`` maps the run's times to the reference level."""

    def __init__(self) -> None:
        self.times: list[float] = []

    @contextmanager
    def around(self) -> Iterator[None]:
        """Probe right before and right after the enclosed operation."""
        self.times.append(probe())
        yield
        self.times.append(probe())

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.times)
