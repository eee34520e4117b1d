"""How fast the host runs Python at this moment.

The benchmark's host is a few cores of a shared machine whose speed
drifts by up to about 1.7x over minutes as its neighbours' load changes,
which moves every timing of the program with it.  ``calibrate`` times a
fixed piece of interpreter-bound work that belongs to the benchmark, not
to the program but like it: a bitmask queens search, building boards as
tuples and sets, and filtering permutations through a validated frozen
dataclass.  The runner times it next to every timed op and reports
``scale(seconds, calibration)``: the op's time at the host speed at
which the calibration takes ``REFERENCE_S``.  A change to the program
moves the op's time but not the calibration, so the scaled time shows it
in full; a slow spell of the host moves both.

How well this works depends on the op.  On three ten-seed sets on 2
vCPUs of a shared 2.1 GHz Xeon host, the interquartile spread of
``wall_s`` over its median was 0.09-0.21 unscaled and 0.03-0.06 scaled
on ``search``, whose ops are short and interpreter-bound, and 0.10-0.18
unscaled and 0.10-0.13 scaled on ``verify-full``, whose single 14 s op
outlasts the calibrations beside it.  Memory-heavy ops slow less than the calibration
does: on ``flips-k5`` (flip enumeration at n = 1025, about 280 MiB) it
was 0.15-0.18 scaled against 0.09-0.12 unscaled (with an earlier, similar
calibration), which is why that workload is left out of
``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import permutations
from time import perf_counter

# About the calibration's wall time on an unloaded 2.1 GHz Xeon vCPU with
# Python 3.11.
REFERENCE_S = 0.07


def _queens(n: int) -> int:
    full = (1 << n) - 1

    def place(cols: int, d1: int, d2: int) -> int:
        if cols == full:
            return 1
        total = 0
        free = full & ~(cols | d1 | d2)
        while free:
            bit = free & -free
            free ^= bit
            total += place(cols | bit, ((d1 | bit) << 1) & full, (d2 | bit) >> 1)
        return total

    return place(0, 0, 0)


def _linear_diagonals(n: int) -> int:
    """Sum over the linear boards p(y) = a*y + b (mod n) of the number of
    distinct sum-diagonals each uses, building every board as a tuple."""
    total = 0
    for a in range(n):
        for b in range(n):
            p = tuple((a * y + b) % n for y in range(n))
            total += len(frozenset((x + y) % n for y, x in enumerate(p)))
    return total


@dataclass(frozen=True)
class _Board:
    n: int
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        if len(self.p) != self.n or len(set(self.p)) != self.n:
            raise ValueError("not a permutation")


def _permutation_filter(n: int) -> int:
    """Count the n-queens solutions among all n! permutations, building a
    validated frozen dataclass for each."""
    count = 0
    for perm in permutations(range(n)):
        board = _Board(n, perm)
        if len({x + y for y, x in enumerate(board.p)}) == n and len({x - y for y, x in enumerate(board.p)}) == n:
            count += 1
    return count


def _work() -> bool:
    return (
        _queens(10) == 724
        and _linear_diagonals(47) == 46 * 47 * 47 + 47
        and _permutation_filter(7) == 40
    )


def calibrate(reps: int = 1) -> float:
    """Mean wall seconds of ``reps`` runs of the calibration work, with the
    collector off so that the program's heap does not change its cost.
    The host's speed flickers from one tenth of a second to the next, so a
    calibration for a long op should run long enough to average it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        ok = all(_work() for _ in range(reps))
        seconds = (perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
    if not ok:
        raise AssertionError("calibration work computed a wrong answer")
    return seconds


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` timed while the calibration took ``calibration``, at the
    reference host speed."""
    return seconds * REFERENCE_S / calibration


def reps_for(seconds: float) -> int:
    """Calibration runs to pair with an op of ``seconds``: about a
    twentieth of its time, and at least one run."""
    return max(1, round(seconds / (20 * REFERENCE_S)))
