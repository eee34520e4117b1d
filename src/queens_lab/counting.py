"""Exact solution counters for the classical and toroidal boards.

One row-by-row DFS over n-bit masks serves both boards and both uses,
counting and enumeration.  It keeps the occupied columns and, per
diagonal family, the columns of the current row that an earlier queen
attacks along it.  Moving down a row, the mask of one family shifts up a
bit and the other shifts down; on the classical board the bit pushed off
the edge is dropped, on the torus it re-enters at the other edge.
Candidates are tried lowest column first, so enumerate_solutions yields
placements in lexicographic order.  A brute-force permutation filter
(oracle_count) provides an independent slow check.

Counting splits cleanly on the first-row choice, so the optional
``threads`` argument fans subtrees out to a process pool; the total is a
commutative sum and does not depend on the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, repeat

from . import core
from .construction import board_size_cap
from .core import QueensConfig
from .errors import InvalidConfigError, SizeLimitError

MODES = ("classical", "toroidal")

DEFAULT_CAP = 16
ORACLE_CAP = 10


@dataclass(frozen=True)
class CountResult:
    n: int
    mode: str
    count: int
    nodes_visited: int
    elapsed: float


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _check_size(n: int, cap: int) -> None:
    if n < 1:
        raise SizeLimitError(f"board size must be >= 1, got {n}")
    if n > cap:
        raise SizeLimitError(f"board size {n} exceeds cap {cap}")


class _LimitReached(Exception):
    """Unwinds an enumeration once it has recorded ``limit`` solutions."""


def _subtree(
    n: int,
    toroidal: bool,
    x0: int,
    out: list[QueensConfig] | None = None,
    limit: int | None = None,
) -> tuple[int, int]:
    """Count the solutions with the first queen in column x0, as
    (count, nodes below the first row).

    When ``out`` is given, each solution is also appended to it; the
    search raises _LimitReached once ``out`` holds ``limit`` of them.
    """
    full = (1 << n) - 1
    rows = [0] * n
    nodes = 0

    # ``up`` arrives shifted up a row but not yet masked, ``down`` not yet
    # shifted down, so that on the torus the bit leaving one edge can
    # re-enter at the other.
    def rec(y: int, cols: int, up: int, down: int) -> int:
        nonlocal nodes
        if y == n:
            if out is not None:
                out.append(QueensConfig(n=n, p=tuple(r.bit_length() - 1 for r in rows)))
                if len(out) == limit:
                    raise _LimitReached
            return 1
        if toroidal:
            up |= up >> n
            down |= (down & 1) << n
        down >>= 1
        free = full & ~(cols | up | down)
        if not free:
            return 0
        nodes += free.bit_count()
        up &= full
        total = 0
        y1 = y + 1
        while free:
            bit = free & -free
            free ^= bit
            rows[y] = bit
            total += rec(y1, cols | bit, (up | bit) << 1, down | bit)
        return total

    bit = 1 << x0
    rows[0] = bit
    count = rec(1, bit, bit << 1, bit)
    return count, nodes


def _count(n: int, mode: str, threads: int) -> CountResult:
    _check_size(n, board_size_cap(DEFAULT_CAP))
    start = time.perf_counter()
    toroidal = mode == "toroidal"
    if threads > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_subtree, repeat(n), repeat(toroidal), range(n)))
    else:
        results = [_subtree(n, toroidal, x0) for x0 in range(n)]
    count = sum(c for c, _ in results)
    # Every first-row placement is itself a visited node.
    nodes = n + sum(m for _, m in results)
    return CountResult(n, mode, count, nodes, time.perf_counter() - start)


def count_classical(n: int, threads: int = 1) -> CountResult:
    """Exact number of classical n-queens solutions."""
    return _count(n, "classical", threads)


def count_toroidal(n: int, threads: int = 1) -> CountResult:
    """Exact number of toroidal n-queens solutions."""
    return _count(n, "toroidal", threads)


def oracle_count(n: int, mode: str) -> CountResult:
    """Independent slow count: filter all n! permutations through the
    core validator.  Capped at n <= 10."""
    _check_mode(mode)
    _check_size(n, ORACLE_CAP)
    validator = core.validate_toroidal if mode == "toroidal" else core.validate_classical
    start = time.perf_counter()
    count = 0
    checked = 0
    for perm in permutations(range(n)):
        checked += 1
        if validator(QueensConfig(n=n, p=perm)).is_valid:
            count += 1
    return CountResult(n, mode, count, checked, time.perf_counter() - start)


def enumerate_solutions(
    n: int, mode: str, limit: int | None = None
) -> list[QueensConfig]:
    """All solutions in lexicographic order of p, optionally truncated."""
    _check_mode(mode)
    _check_size(n, board_size_cap(DEFAULT_CAP))
    if limit is not None and limit < 0:
        raise InvalidConfigError(f"limit must be >= 0, got {limit}")
    if limit == 0:
        return []
    out: list[QueensConfig] = []
    try:
        for x0 in range(n):
            _subtree(n, mode == "toroidal", x0, out, limit)
    except _LimitReached:
        pass
    return out
