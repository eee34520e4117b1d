"""Independent oracles used by the tests.

Everything here is deliberately written against different data structures
and search orders than the package code: pairwise attack scans instead of
permutation residue sets, direct pair-cover search for triple systems,
row-permutation enumeration for Sudoku grids, every row pair for flips.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import Future
from itertools import combinations, permutations

from queens_lab import hypergraph
from queens_lab.core import Square
from queens_lab.errors import InvalidConfigError
from queens_lab.flips import Flip


def naive_classical_valid(p) -> bool:
    """O(n^2) pairwise attack scan on the bounded board."""
    n = len(p)
    for y1 in range(n):
        for y2 in range(y1 + 1, n):
            if p[y1] == p[y2]:
                return False
            if abs(p[y1] - p[y2]) == abs(y1 - y2):
                return False
    return True


def naive_toroidal_valid(p) -> bool:
    """O(n^2) pairwise attack scan with wrap-around diagonals."""
    n = len(p)
    for y1 in range(n):
        for y2 in range(y1 + 1, n):
            if p[y1] == p[y2]:
                return False
            if (p[y1] + y1) % n == (p[y2] + y2) % n:
                return False
            if (p[y1] - y1) % n == (p[y2] - y2) % n:
                return False
    return True


def reference_violations(p, toroidal: bool) -> tuple[tuple[str, int, int], ...]:
    """Over-occupied diagonals as (kind, index, multiplicity), sorted by
    (kind, index): one Counter over all (kind, index) pairs."""
    n = len(p)
    counts: Counter[tuple[str, int]] = Counter()
    for y, x in enumerate(p):
        plus, minus = x + y, x - y
        if toroidal:
            plus, minus = plus % n, minus % n
        counts["plus-diagonal", plus] += 1
        counts["minus-diagonal", minus] += 1
    return tuple(
        (kind, index, mult) for (kind, index), mult in sorted(counts.items()) if mult > 1
    )


def reference_config_check(n, p) -> tuple:
    """The field-by-field QueensConfig checks, one by one and with no fast
    path: the normalised p, or InvalidConfigError naming the first fault."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidConfigError("field 'n': must be an integer")
    if n < 1:
        raise InvalidConfigError(f"field 'n': must be >= 1, got {n}")
    p = tuple(p)
    if len(p) != n:
        raise InvalidConfigError(f"field 'p': expected length {n}, got {len(p)}")
    for y, x in enumerate(p):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InvalidConfigError(f"field 'p': entry at index {y} is not an integer")
        if not 0 <= x < n:
            raise InvalidConfigError(f"field 'p': entry {x} at index {y} out of range 0..{n - 1}")
    if len(set(p)) != n:
        raise InvalidConfigError("field 'p': not a permutation (repeated column)")
    return p


def reference_attack_profiles(p) -> list[tuple[int, int, int]]:
    """(by_three, by_two, by_one) per row of a classical solution, by
    counting the rows that rule out each square of the row in turn."""
    n = len(p)
    sum_rows = {p[y] + y for y in range(n)}
    diff_rows = {p[y] - y for y in range(n)}
    profiles = []
    for y in range(n):
        by = [0, 0, 0, 0]
        for x in range(n):
            if x == p[y]:
                continue
            count = 1  # the queen in column x, never in row y
            if x + y in sum_rows:
                count += 1
            if x - y in diff_rows:
                count += 1
            by[count] += 1
        profiles.append((by[3], by[2], by[1]))
    return profiles


def reference_flips(params) -> list:
    """Every flip, sorted by canonical id, from all n(n-1)/2 row pairs:
    a pair (y1, y2) and its companion pair (y3, y4) give the same flip,
    so the flips are merged through a dict keyed by canonical id."""
    n, m = params.n, params.m
    inv = pow(m + 1, -1, n)
    col = [m * y % n for y in range(n)]
    by_id = {}
    for y1 in range(n):
        for y2 in range(y1 + 1, n):
            y3 = inv * (m * y2 + y1) % n
            y4 = inv * (m * y1 + y2) % n
            rows = (y1, y2, y3, y4)
            removed = tuple(Square(col[y], y) for y in sorted(rows))
            added = tuple(
                sorted(
                    (
                        Square(col[y1], y2),
                        Square(col[y2], y1),
                        Square(col[y3], y4),
                        Square(col[y4], y3),
                    )
                )
            )
            by_id.setdefault(added[0], Flip(removed=removed, added=added))
    return [by_id[key] for key in sorted(by_id)]


def reference_greedy_scan(all_flips, t: int) -> list:
    """Up to t flips: scan ``all_flips`` in order and keep each flip that
    shares no removed row with those already kept."""
    chosen = []
    used: set[int] = set()
    for flip in all_flips:
        if len(chosen) == t:
            break
        rows = {s.y for s in flip.removed}
        if not (used & rows):
            chosen.append(flip)
            used |= rows
    return chosen


def brute_force_diagonal_exposure(n: int, i: int, j: int) -> int:
    """Count squares sharing a diagonal with (i, j) by direct scan."""
    count = 0
    for i2 in range(n):
        for j2 in range(n):
            if (i2, j2) == (i, j):
                continue
            if i2 + j2 == i + j or i2 - j2 == i - j:
                count += 1
    return count


def independent_transversal_count(latin) -> int:
    """Transversals of a Latin square by filtering all permutations."""
    n = len(latin)
    count = 0
    for perm in permutations(range(n)):
        symbols = {latin[i][perm[i]] for i in range(n)}
        if len(symbols) == n:
            count += 1
    return count


def independent_sts_count(n: int) -> int:
    """Triple systems on n points covering every pair exactly once,
    counted by backtracking directly over point pairs."""
    pairs = list(combinations(range(n), 2))
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    triple_masks = []
    for triple in combinations(range(n), 3):
        mask = 0
        for pair in combinations(triple, 2):
            mask |= 1 << pair_index[pair]
        triple_masks.append(mask)
    full = (1 << len(pairs)) - 1

    def rec(covered: int) -> int:
        if covered == full:
            return 1
        free = full & ~covered
        lowest = (free & -free).bit_length() - 1
        total = 0
        for mask in triple_masks:
            if (mask >> lowest) & 1 and not (mask & covered):
                total += rec(covered | mask)
        return total

    return rec(0)


def independent_sudoku_count(b: int) -> int:
    """Completed order-b^2 Sudoku grids, enumerated row by row over
    permutations with column and box pruning."""
    n = b * b
    rows: list[tuple[int, ...]] = []
    count = 0

    def consistent(candidate: tuple[int, ...]) -> bool:
        for c in range(n):
            for prev in rows:
                if prev[c] == candidate[c]:
                    return False
        box_row = (len(rows) // b) * b
        for box_col in range(0, n, b):
            seen = set()
            for prev in rows[box_row:]:
                seen.update(prev[box_col : box_col + b])
            for cc in range(box_col, box_col + b):
                if candidate[cc] in seen:
                    return False
                seen.add(candidate[cc])
        return True

    def rec() -> None:
        nonlocal count
        if len(rows) == n:
            count += 1
            return
        for perm in permutations(range(n)):
            if consistent(perm):
                rows.append(perm)
                rec()
                rows.pop()

    rec()
    return count


# Diagonal exposure grid for the 5x5 board: (n-3) + 2 * ring depth.
EXPOSURE_5 = [
    [4, 4, 4, 4, 4],
    [4, 6, 6, 6, 4],
    [4, 6, 8, 6, 4],
    [4, 6, 6, 6, 4],
    [4, 4, 4, 4, 4],
]


def brute_force_perfect_matchings(num_vertices: int, edges) -> int:
    """Number of edge subsets whose edges are pairwise disjoint and cover
    every vertex, by trying every subset of ``edges``."""
    count = 0
    for r in range(len(edges) + 1):
        for chosen in combinations(edges, r):
            covered = [v for e in chosen for v in e]
            if len(covered) == num_vertices and len(set(covered)) == num_vertices:
                count += 1
    return count


def recording_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that starts no process: each pool
    appends its ``max_workers`` to ``sizes`` and runs ``map`` as its
    results are read, and each ``submit`` at once, in this process;
    ``shutdown`` has nothing to stop."""

    class Pool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    return Pool


def cover_count(num_vertices: int, edges) -> tuple[int, int]:
    """(count, nodes) of the package's serial exact-cover search over all
    the vertex tuples ``edges``, with a budget it never reaches."""
    tables = hypergraph._cover_tables(num_vertices, edges)
    return hypergraph._cover_search(tables, tables.full, (1 << len(edges)) - 1, 10**9)
