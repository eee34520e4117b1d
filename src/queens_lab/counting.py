"""Exact solution counters for the classical and toroidal boards.

One row-by-row DFS over n-bit masks serves both boards and both uses,
counting and enumeration.  It keeps the occupied columns and, per
diagonal family, the columns of the current row that an earlier queen
attacks along it.  Moving down a row, the mask of one family shifts up a
bit and the other shifts down; on the classical board the bit pushed off
the edge is dropped, on the torus it re-enters at the other edge.  A
node is entered only with a nonempty mask of free columns, and it shifts
its masks once for all its children.  A row with one free column is a
forced move: the call places its queen and loops on to the next row
instead of recursing, so the tree searched, ``nodes_visited`` and the
enumeration order stay those of the plain recursion.  ``_moves`` holds,
per free-column mask, the row's moves lowest column first, each with the
mask of the next row's columns that its queen leaves open, so a child's
free columns cost one AND and a dead child is never entered.  The table
has 2^n entries and is held for one (n, board) at a time; each pool
worker builds its own.  enumerate_solutions yields placements in
lexicographic order.  A brute-force permutation filter provides an
independent slow check: oracle_counts makes one pass over
the n! permutations for any set of modes, building each permutation once
as a checked QueensConfig (positionally, through the same
``__post_init__`` checks as every construction) and handing it to every
mode's core predicate (looked up per block); oracle_count is that pass
for one mode.  The pass is split into one block per placement of the
first two rows, n(n - 1) blocks of (n - 2)! boards, each driven from C
by ``map``, ``tee`` and ``zip`` into a Counter of verdict tuples, with no
per-board Python loop; the block Counters are summed.

The search is reduced by symmetry.  The mirror x -> n - 1 - x maps
classical solutions onto classical ones, and the maps x -> +-x + c map
toroidal solutions onto toroidal ones; each maps the search tree below a
prefix of rows onto the tree below its image, node for node.  ``_group``
is the one list of these column maps.  The search splits on the legal
placements (x0, x1) of the first two rows and searches one per orbit
under the group, its lexicographic least, weighted by the orbit's size.
The classical board searches x0 < (n - 1) / 2, and on an odd board the
middle column with x1 < (n - 1) / 2, each weighted by 2; the torus
searches (0, a) with a <= n / 2, weighted by 2n, or n for a = n / 2.
One ordered task list serves the counters and enumerate_solutions, which
runs in-process and returns the set of the searched solutions' images
under the same group, sorted.

``_fan_out`` is the one dispatch of the counters' optional ``threads``
argument, for the search tasks (~n^2 / 2 classical, ~n / 2 toroidal) and
the oracle's blocks alike: it runs them in order in this process, or on
a process pool of at most one worker per task and per usable CPU.  On
the pool every task is submitted before ``_fan_out`` returns; the
results come back in order, read lazily, and the pool shuts down, with
pending tasks cancelled and its workers joined, once they are all read,
a read raises or the reader closes them.  The counters read them at
once; ``_oracle_pass`` hands them to a caller that does other work
first, and ``_oracle_tally`` sums them.  Counts are commutative sums and
do not depend on the worker count; a ``threads`` that is not an int
>= 1 is refused with InvalidConfigError before any task is built.  The
pool class is imported on the first fan-out, so a single-worker process
never loads concurrent.futures or multiprocessing.

``nodes_visited`` is the size of the full, unreduced row-by-row tree:
every legal placement tried, the first row included.  It is computed
through the symmetry, as the weighted sum of the searched subtrees; a
node adds its free columns, so placements whose next row is dead are
counted though never entered, and the sum is that of a search that
entered them.  A forced row followed in the same call adds its one free
column, as a call would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, repeat, tee
from operator import add

from . import core
from .core import QueensConfig
from .errors import InvalidConfigError, check_cap, check_threads, usable_cpus

MODES = ("classical", "toroidal")

# concurrent.futures.ProcessPoolExecutor, imported on the first fan-out.
ProcessPoolExecutor = None


@dataclass(frozen=True)
class CountResult:
    n: int
    mode: str
    count: int
    nodes_visited: int


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _check_size(n: int, entry: str) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidConfigError(f"board size must be an integer, got {n!r}")
    if n < 1:
        raise InvalidConfigError(f"board size must be >= 1, got {n}")
    check_cap(entry, n, f"board size {n}")


def _attacks(n: int, toroidal: bool, prefix: tuple[int, ...]) -> tuple[int, int, int]:
    """Masks of the columns of row len(prefix) that the queens of the rows
    ``prefix`` attack: along their column, along the diagonal on which the
    column grows with the row, and along the one on which it shrinks."""
    r = len(prefix)
    cols = up = down = 0
    for y, x in enumerate(prefix):
        d = r - y
        cols |= 1 << x
        if toroidal:
            up |= 1 << (x + d) % n
            down |= 1 << (x - d) % n
        else:
            if x + d < n:
                up |= 1 << (x + d)
            if x >= d:
                down |= 1 << (x - d)
    return cols, up, down


def _group(n: int, toroidal: bool) -> list[tuple[int, int]]:
    """The column maps x -> (s * x + c) % n, as (s, c), that carry solutions
    onto solutions: the identity and the mirror x -> n - 1 - x on the
    classical board, every translation with and without the reflection
    x -> -x on the torus.  The identity comes first."""
    if toroidal:
        return [(s, c) for s in (1, -1) for c in range(n)]
    return [(1, 0), (-1, n - 1)]


def _tasks(n: int, toroidal: bool) -> list[tuple[tuple[int, ...], int]]:
    """The searched legal placements of the first min(n, 2) rows, in
    lexicographic order, each the least of its orbit under the board's
    column symmetries and weighted by the orbit's size."""
    full = (1 << n) - 1
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(min(n, 2)):
        grown = []
        for prefix in prefixes:
            cols, up, down = _attacks(n, toroidal, prefix)
            free = full & ~(cols | up | down)
            grown += [prefix + (x,) for x in range(n) if free >> x & 1]
        prefixes = grown
    group = _group(n, toroidal)
    seen: set[tuple[int, ...]] = set()
    tasks = []
    # In lexicographic order the first prefix met of an orbit is its least.
    for prefix in prefixes:
        if prefix not in seen:
            orbit = {tuple((s * x + c) % n for x in prefix) for s, c in group}
            seen |= orbit
            tasks.append((prefix, len(orbit)))
    return tasks


Move = tuple[int, int, int, int, int]


@lru_cache(maxsize=1)
def _moves(n: int, toroidal: bool) -> list[tuple[Move, ...]]:
    """The moves into each free-column mask of a row, lowest column first.

    A move is (x, bit, keep, up, down): the queen's column x and its bit,
    ``keep`` the columns of the next row it leaves open (all but x and its
    two diagonal neighbours, wrapped on the torus), and ``up`` and
    ``down`` its diagonal bits on the next row.  The masks with bit x set
    are those below it with bit x added, so each column doubles the table.
    One table is held at a time.
    """
    full = (1 << n) - 1
    table: list[tuple[Move, ...]] = [()]
    for x in range(n):
        bit = 1 << x
        if toroidal:
            up, down = 1 << (x + 1) % n, 1 << (x - 1) % n
        else:
            up, down = bit << 1 & full, bit >> 1
        move = (x, bit, full & ~(bit | up | down), up, down)
        table += [moves + (move,) for moves in table]
    return table


def _subtree(
    n: int,
    toroidal: bool,
    prefix: tuple[int, ...],
    out: list[tuple[int, ...]] | None = None,
) -> tuple[int, int]:
    """Count the solutions whose first rows hold the legal placement
    ``prefix``, as (count, nodes below the first row); each prefix row
    after the first is one of those nodes.

    When ``out`` is given, each solution's p is also appended to it.
    """
    full = (1 << n) - 1
    last = n - 1
    table = _moves(n, toroidal)
    rows = list(prefix) + [0] * (n - len(prefix))
    nodes = len(prefix) - 1

    # Entered with the nonempty ``free`` columns of row y and the diagonal
    # attacks on row y; a child is searched only if it has a free column.
    # A row with one free column is placed here and the loop moves on to
    # the next row, as the one child's call would.
    def rec(y: int, free: int, cols: int, up: int, down: int) -> int:
        nonlocal nodes
        while True:
            count = free.bit_count()
            nodes += count
            if y == last:
                if out is not None:
                    for move in table[free]:
                        rows[y] = move[0]
                        out.append(tuple(rows))
                return count
            if toroidal:
                up, down = (up << 1 | up >> last) & full, down >> 1 | (down & 1) << last
            else:
                # Bits shifted past column n - 1 are dropped by ``full`` below.
                up, down = up << 1, down >> 1
            base = full & ~(cols | up | down)
            if count > 1:
                break
            ((x, bit, keep, to_up, to_down),) = table[free]
            free = base & keep
            if not free:
                return 0
            rows[y] = x
            y += 1
            cols, up, down = cols | bit, up | to_up, down | to_down
        total = 0
        y1 = y + 1
        for x, bit, keep, to_up, to_down in table[free]:
            child = base & keep
            if child:
                rows[y] = x
                total += rec(y1, child, cols | bit, up | to_up, down | to_down)
        return total

    y = len(prefix)
    if y == n:
        # A full-length prefix (n = 1) is itself the one solution.
        if out is not None:
            out.append(tuple(rows))
        count = 1
    else:
        cols, up, down = _attacks(n, toroidal, prefix)
        free = full & ~(cols | up | down)
        count = rec(y, free, cols, up, down) if free else 0
    del rec  # rec holds itself through its closure; this breaks the cycle
    return count, nodes


class _Results:
    """Results of tasks already started, in order, read lazily.  The pool
    that runs them, if any, shuts down once they are all read, when a read
    raises or when ``close`` is called; pending tasks are then cancelled
    and the workers joined."""

    def __init__(self, results, pool=None):
        self._results, self._pool = results, pool

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._results)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


def _fan_out(threads: int, fn, shared: tuple, items: list) -> _Results:
    """``fn(*shared, item)`` for each of ``items``, in order: on a process
    pool of min(threads, len(items), usable CPUs) workers when that is
    above 1, every task submitted before this returns, else in this
    process as the results are read."""
    args = (*map(repeat, shared), items)
    workers = min(threads, len(items), usable_cpus())
    if workers <= 1:
        return _Results(map(fn, *args))
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return _Results(pool.map(fn, *args), pool)
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise


def _count(n: int, mode: str, threads: int) -> CountResult:
    _check_size(n, "count")
    check_threads(threads)
    toroidal = mode == "toroidal"
    tasks = _tasks(n, toroidal)
    prefixes = [prefix for prefix, _ in tasks]
    results = list(_fan_out(threads, _subtree, (n, toroidal), prefixes))
    count = sum(w * c for (_, w), (c, _) in zip(tasks, results))
    # Every first-row placement is itself a visited node; the weights sum
    # to the number of legal prefixes, each standing for its own subtree.
    nodes = n + sum(w * m for (_, w), (_, m) in zip(tasks, results))
    return CountResult(n, mode, count, nodes)


def count_classical(n: int, threads: int = 1) -> CountResult:
    """Exact number of classical n-queens solutions."""
    return _count(n, "classical", threads)


def count_toroidal(n: int, threads: int = 1) -> CountResult:
    """Exact number of toroidal n-queens solutions."""
    return _count(n, "toroidal", threads)


def _oracle_block(n: int, modes: tuple[str, ...], prefix: tuple[int, ...]) -> Counter:
    """Verdict tuples of the permutations that start with ``prefix``, in
    lexicographic order, each built once as a checked QueensConfig and
    handed to every mode's core predicate.

    The pass runs from C: ``tee`` hands each board to one ``map`` per
    predicate, and ``zip`` draws one verdict from each before the next
    board is built, so the boards held at once are bounded by tee's
    buffer, not by the block's size.
    """
    # Looked up per block, so a replaced core predicate is the one used.
    predicates = [getattr(core, f"is_{mode}") for mode in modes]
    rest = [x for x in range(n) if x not in prefix]
    configs = map(QueensConfig, repeat(n), map(add, repeat(prefix), permutations(rest)))
    return Counter(zip(*map(map, predicates, tee(configs, len(predicates)))))


def _oracle_pass(n: int, modes: tuple[str, ...], threads: int) -> _Results:
    """Check the arguments of oracle_counts, then start its pass: the block
    Counters, in order, from ``_fan_out``."""
    for mode in modes:
        _check_mode(mode)
    _check_size(n, "oracle")
    check_threads(threads)
    prefixes = list(permutations(range(n), min(n, 2)))
    return _fan_out(threads, _oracle_block, (n, tuple(modes)), prefixes)


def _oracle_tally(n: int, modes: tuple[str, ...], blocks) -> tuple[CountResult, ...]:
    """One CountResult per mode from the block Counters of a pass."""
    verdicts = Counter()
    for block in blocks:
        verdicts.update(block)
    checked = verdicts.total()
    return tuple(
        CountResult(n, mode, sum(c for key, c in verdicts.items() if key[i]), checked)
        for i, mode in enumerate(modes)
    )


def oracle_counts(
    n: int, modes: tuple[str, ...], threads: int = 1
) -> tuple[CountResult, ...]:
    """Independent slow counts, one per mode: filter all n! permutations
    through the core predicates in one pass, each permutation built once
    as a checked QueensConfig and handed to every mode's predicate.

    The permutations split into one block per placement of the first
    min(n, 2) rows, n(n - 1) of them for n >= 2, run in lexicographic
    order, so a serial pass builds the boards in ``permutations`` order;
    with ``threads`` > 1 the blocks go to a process pool.  The summed
    Counter of verdict tuples gives the number of boards checked and, per
    mode, the number it accepted, whatever the worker count.  Capped at
    the "oracle" entry of ``CAPS``; a ``threads`` that is not an int >= 1
    is refused with InvalidConfigError before any board is built.
    """
    return _oracle_tally(n, modes, _oracle_pass(n, modes, threads))


def oracle_count(n: int, mode: str, threads: int = 1) -> CountResult:
    """Independent slow count of one mode; see oracle_counts."""
    return oracle_counts(n, (mode,), threads)[0]


def enumerate_solutions(n: int, mode: str) -> list[QueensConfig]:
    """All solutions in lexicographic order of p."""
    _check_mode(mode)
    _check_size(n, "count")
    toroidal = mode == "toroidal"
    found: list[tuple[int, ...]] = []
    for prefix, _ in _tasks(n, toroidal):
        _subtree(n, toroidal, prefix, found)
    # The searched boards keep their own tuples: equal images are not added.
    # The group's first map is the identity; each other map is a column table.
    boards = set(found)
    for s, c in _group(n, toroidal)[1:]:
        table = [(s * x + c) % n for x in range(n)]
        boards.update(tuple(map(table.__getitem__, p)) for p in found)
    return [QueensConfig(n=n, p=p) for p in sorted(boards)]
