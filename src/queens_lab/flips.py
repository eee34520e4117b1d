"""Flip algebra over the base configuration.

A flip removes four queens of the base placement and re-adds four squares
obtained by exchanging row coordinates within two companion pairs.  For
any rows y1 != y2 the companion rows are

    y3 = (m + 1)^-1 * (m * y2 + y1)   (mod n)
    y4 = (m + 1)^-1 * (m * y1 + y2)   (mod n)

with m = 2^k, and the eight diagonal balance equations then guarantee the
result is again a toroidal solution.  The companion map is an involution
on unordered row pairs with no fixed point, so the number of distinct
flips is n(n-1)/4 and each unoccupied square belongs to the added set of
exactly one flip.  Disjoint flips (sharing no removed queen) compose
freely and the composition is reversible.

As m^2 = n - 1, m^-1 = n - m (mod n): column x's base queen is in row (n - m) x.
Every function here takes its k, n, m and (m + 1)^-1 from a ``BaseParams``,
whose one constructor ``BaseParams(k)`` derives n, m and (m + 1)^-1 from k
and refuses boards above the "board" cap.

The kernels work on row quadruples (y1, y2, y3, y4), the companion rows
taken from one rule, ``_companions``.  ``_verify_balance`` is the one
balance check and returns the quadruple it checked; ``_flip`` builds a
``Flip`` from that return value, only where one is returned.  One scan of
the unoccupied squares, column by column, meets the flips in canonical-id
order.  ``_all_flips`` runs the whole scan once the "edges" cap allows
it and checks that it met n(n-1)/4 flips: ``enumerate_flips`` builds a
``Flip`` of each, and ``hypergraph.build_flip_hg`` takes just the
balance-checked quadruples.  Both selections keep quadruples through
``_keep``, which marks their rows in a ``used`` bytearray, so the scan
yields only flips disjoint from those.  Seeded selection draws uniform
unoccupied squares; each flip owns four, so a kept draw is uniform over
the free flips.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from .construction import BaseParams
from .core import QueensConfig, Square, is_toroidal
from .errors import (
    FlipError,
    GreedyExhaustionError,
    InternalConsistencyError,
    ReconstructionError,
    check_cap,
)


@dataclass(frozen=True)
class Flip:
    """Four removed queens (sorted by row) and four added squares (sorted).

    Any added square determines the flip uniquely, so the lexicographic
    minimum of the added set is a stable canonical key.
    """

    removed: tuple[Square, Square, Square, Square]
    added: tuple[Square, Square, Square, Square]

    @property
    def canonical_id(self) -> Square:
        return self.added[0]

    @property
    def rows(self) -> frozenset[int]:
        return frozenset(s.y for s in self.removed)


@dataclass(frozen=True)
class FlipSet:
    """A pairwise-disjoint collection of flips, sorted by canonical id."""

    flips: tuple[Flip, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "flips", tuple(sorted(self.flips, key=lambda f: f.canonical_id))
        )
        seen: set[int] = set()
        for flip in self.flips:
            if seen & flip.rows:
                raise FlipError("flips are not pairwise disjoint")
            seen |= flip.rows

    def __iter__(self) -> Iterator[Flip]:
        return iter(self.flips)

    def __len__(self) -> int:
        return len(self.flips)

    def canonical_ids(self) -> tuple[Square, ...]:
        return tuple(f.canonical_id for f in self.flips)


Rows = tuple[int, int, int, int]
T = TypeVar("T")


def _companions(params: BaseParams, y1: int) -> tuple[int, int, int]:
    """(a, b, c) with companion rows y3 = (a y + b) % n, y4 = (inv y + c) % n
    of the pair (y1, y): y3 = inv (m y + y1) and y4 = inv (m y1 + y)."""
    n, m, inv = params.n, params.m, params.inv
    a = inv * m % n
    return a, inv * y1 % n, a * y1 % n


def _rows(params: BaseParams, y1: int, y: int) -> Rows:
    """The quadruple (y1, y, y3, y4) of the flip on rows y1 and y."""
    n = params.n
    a, b, c = _companions(params, y1)
    return y1, y, (a * y + b) % n, (params.inv * y + c) % n


def _verify_balance(params: BaseParams, rows: Rows) -> Rows:
    """``rows``, once the eight diagonal balance equations hold for it."""
    # The eight equations say each vacated diagonal is re-covered by an
    # added square: they must hold identically, so a failure is a bug.
    n, m = params.n, params.m
    y1, y2, y3, y4 = rows
    x1, x2, x3, x4 = ((m * y) % n for y in (y1, y2, y3, y4))
    equations = (
        x1 + y1 - x3 - y4,
        x2 + y2 - x4 - y3,
        x3 + y3 - x2 - y1,
        x4 + y4 - x1 - y2,
        (x3 - y3) - (x1 - y2),
        (x2 - y2) - (x3 - y4),
        (x1 - y1) - (x4 - y3),
        (x4 - y4) - (x2 - y1),
    )
    if any(e % n for e in equations) or len({y1, y2, y3, y4}) != 4:
        raise InternalConsistencyError(
            f"diagonal balance failed for rows ({y1}, {y2}, {y3}, {y4}) at n = {n}"
        )
    return rows


def _flip(params: BaseParams, rows: Rows) -> Flip:
    """The flip on the quadruple ``rows``, built once its balance is verified."""
    rows = _verify_balance(params, rows)
    n, m = params.n, params.m
    removed = tuple(Square(m * y % n, y) for y in sorted(rows))
    # Each row takes the base column of its partner in (y1, y2) or (y3, y4).
    added = tuple(sorted(Square(m * rows[i ^ 1] % n, rows[i]) for i in range(4)))
    return Flip(removed=removed, added=added)  # type: ignore[arg-type]


def flip_for_square(params: BaseParams, square: Square) -> Flip:
    """The unique flip whose added set contains the unoccupied square.

    It involves the base queens in the square's row and column: the row
    gives y2 and the column queen's row gives y1.
    """
    n, m = params.n, params.m
    x, y = square
    if type(x) is not int or type(y) is not int:  # type, as True is an int too
        raise FlipError(f"square {tuple(square)} must have integer coordinates")
    if not (0 <= x < n and 0 <= y < n):
        raise FlipError(f"square {tuple(square)} outside board of size {n}")
    y1 = (n - m) * x % n
    if y1 == y:
        raise FlipError(f"square {tuple(square)} is occupied in the base configuration")
    flip = _flip(params, _rows(params, y1, y))
    if square not in flip.added:
        raise InternalConsistencyError(f"flip for {tuple(square)} does not add it")
    return flip


def enumerate_flips(params: BaseParams) -> list[Flip]:
    """All n(n-1)/4 flips of the base configuration, sorted by canonical id.

    More flips than the "edges" cap raise SizeLimitError before any
    square is visited.
    """
    return _all_flips(params, _flip)


def _all_flips(params: BaseParams, build: Callable[[BaseParams, Rows], T]) -> list[T]:
    """``build(params, rows)`` for each of the n(n-1)/4 flip quadruples, in
    canonical-id order; more than the "edges" cap raise SizeLimitError
    before any square is visited."""
    n = params.n
    count = n * (n - 1) // 4
    check_cap("edges", count, f"flip enumeration at k = {params.k} ({count} flips)")
    flips = [build(params, rows) for rows in _free_flips(params, bytearray(n))]
    if len(flips) != count:
        raise InternalConsistencyError(f"expected {count} flips, found {len(flips)}")
    return flips


def _free_flips(params: BaseParams, used: bytearray) -> Iterator[Rows]:
    """Row quadruples of the flips free in ``used``, in canonical-id order.

    ``used`` is read as the scan goes, so rows the caller marks between
    yields rule out later flips.  The flip of the unoccupied square (x, y)
    has rows y1 = (n - m) x (the column queen's row), y and its companions,
    whose coefficients are read once per column.  Its added squares lie in
    the columns m y1 = x, m y, m y3 and m y4, which are distinct, so (x, y)
    is the flip's canonical id exactly when x is the least of them.  Every
    flip in column x removes the queen of row y1, so the column is left
    once that row is used.
    """
    n, m, inv = params.n, params.m, params.inv
    for x in range(n):
        y1 = (n - m) * x % n
        if used[y1]:
            continue
        a, b, c = _companions(params, y1)
        for y in range(used.find(0), n):
            if used[y] or y == y1:
                continue
            y3 = (a * y + b) % n
            y4 = (inv * y + c) % n
            if used[y3] or used[y4] or m * y % n < x or m * y3 % n < x or m * y4 % n < x:
                continue
            yield y1, y, y3, y4
            if used[y1]:
                break


def greedy_disjoint_flips(params: BaseParams, t: int, seed: int | None = None) -> FlipSet:
    """Greedily pick t pairwise-disjoint flips.

    Without a seed: the first t flips, in canonical-id order, that are
    disjoint from those kept before them, taken from the square scan
    that also serves ``enumerate_flips``.

    With a seed: a uniform unoccupied square is drawn and mapped to its
    flip, which is kept when it shares no row with those kept so far.
    Each flip owns exactly four unoccupied squares, so every kept flip is
    uniform over the disjoint flips still available: the distribution of a
    greedy scan over a seeded shuffle of all flips.  After n rejections in
    a row the flips still disjoint from those kept are listed by the
    square scan, shuffled with the same generator and scanned, so
    exhaustion reports the true greedy count at every k.

    Each flip rules out at most 4(n-1) others, so t = floor(n/16) always
    succeeds; larger t may exhaust the pass and raises with the count
    achieved.  Disjoint flips remove 4t distinct queens of the n, so
    t > floor(n/4) is refused with FlipError before any square is drawn.
    """
    if type(t) is not int:  # type, as True is an int too
        raise FlipError(f"t must be an integer, got {t!r}")
    if t < 0:
        raise FlipError(f"t must be >= 0, got {t}")
    if 4 * t > params.n:
        raise FlipError(
            f"t = {t} disjoint flips would remove {4 * t} queens, "
            f"more than the {params.n} of the board"
        )
    used = bytearray(params.n)
    chosen: list[Rows] = []
    if seed is None:
        _keep(_free_flips(params, used), t, used, chosen)
    else:
        _sampled_disjoint(params, t, random.Random(seed), used, chosen)
    if len(chosen) < t:
        raise GreedyExhaustionError(requested=t, achieved=len(chosen))
    return FlipSet(flips=tuple(_flip(params, rows) for rows in chosen))


def _keep(quads: Iterable[Rows], t: int, used: bytearray, chosen: list[Rows]) -> None:
    """Append to ``chosen`` each of ``quads`` that shares no row marked in
    ``used``, marking its rows, and draw no quadruple once ``chosen`` holds
    t, so a scan that reads ``used`` as it goes stops at the t-th kept one."""
    if len(chosen) == t:
        return
    for rows in quads:
        if not any(used[row] for row in rows):
            chosen.append(rows)
            for row in rows:
                used[row] = 1
            if len(chosen) == t:
                return


def _sampled_disjoint(
    params: BaseParams, t: int, rng: random.Random, used: bytearray, chosen: list[Rows]
) -> None:
    """Keep up to t disjoint quadruples, each uniform over those still available."""
    n, m = params.n, params.m
    misses = 0
    while len(chosen) < t and misses < n:
        y = rng.randrange(n)
        x = rng.randrange(n - 1)
        if x >= m * y % n:
            x += 1  # skip the base queen's column
        rows = _rows(params, (n - m) * x % n, y)
        if any(used[row] for row in rows):
            misses += 1
            continue
        misses = 0
        _keep((rows,), t, used, chosen)
    if len(chosen) < t:
        rest = list(_free_flips(params, used))
        rng.shuffle(rest)
        _keep(rest, t, used, chosen)


def _require_base(base: QueensConfig) -> BaseParams:
    """Params of ``base``, checked in place to be the base placement."""
    params = BaseParams.from_board_size(base.n)
    m, n = params.m, params.n
    if any(x != m * y % n for y, x in enumerate(base.p)):
        raise FlipError("flips are defined only over the base configuration")
    return params


def apply_flips(base: QueensConfig, flip_set: FlipSet) -> QueensConfig:
    """Apply a disjoint flip set to the base configuration.

    Each flip must be the one that ``flip_for_square`` gives for its
    canonical id; any other ``Flip`` is refused with FlipError.
    """
    params = _require_base(base)
    p = list(base.p)
    for flip in flip_set:
        if flip != flip_for_square(params, flip.canonical_id):
            raise FlipError(
                f"flip with canonical id {tuple(flip.canonical_id)} is not a flip "
                "of the base configuration"
            )
        for x, y in flip.added:
            p[y] = x
    result = QueensConfig(n=params.n, p=tuple(p))
    if not is_toroidal(result):
        raise InternalConsistencyError("flip application broke toroidal validity")
    return result


def reconstruct_flips(base: QueensConfig, modified: QueensConfig) -> FlipSet:
    """Recover the unique disjoint flip set turning base into modified.

    Every displaced queen sits on an added square of exactly one flip, so
    scanning displaced rows and re-deriving each queen's flip either
    reproduces the set or proves the board unreachable.  A kept flip's
    added squares all match the board, and each unoccupied square is added
    by exactly one flip, so no later flip can share a row with it.
    """
    params = _require_base(base)
    if modified.n != base.n:
        raise FlipError(f"board sizes differ: {base.n} vs {modified.n}")
    consumed: set[int] = set()
    flips: list[Flip] = []
    for y in range(base.n):
        if y in consumed or modified.p[y] == base.p[y]:
            continue
        queen = Square(modified.p[y], y)
        flip = flip_for_square(params, queen)
        for x2, y2 in flip.added:
            if modified.p[y2] == base.p[y2]:
                raise ReconstructionError(
                    queen, f"its flip needs row {y2} displaced, but row {y2} is unchanged"
                )
            if modified.p[y2] != x2:
                raise ReconstructionError(
                    queen,
                    f"its flip places column {x2} in row {y2}, found {modified.p[y2]}",
                )
        consumed |= flip.rows
        flips.append(flip)
    return FlipSet(flips=tuple(flips))


def lower_bound_log_count(n: int) -> float:
    """Natural log of a lower bound on the number of sets of t = floor(n/16)
    pairwise disjoint flips.

    The i-th greedy pick has at least n(n-1)/4 - (i-1) * 4(n-1)
    candidates; all factors are positive for this t.  Their product counts
    ordered sequences, and each unordered set of t flips arises from t!
    orders, so the product is divided by t!.  Only boards n = 4^k + 1
    have flips: ``BaseParams.from_board_size`` refuses any other n >= 1
    with InvalidConfigError, and a board above the "board" cap with
    SizeLimitError.  Returns 0.0 at n = 5 (no steps).
    """
    if type(n) is not int:  # type, as True is an int too
        raise FlipError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise FlipError(f"n must be >= 1, got {n}")
    BaseParams.from_board_size(n)
    t = n // 16
    if t == 0:
        return 0.0
    total = -math.lgamma(t + 1)
    base_count = n * (n - 1) / 4.0
    per_step = 4.0 * (n - 1)
    for i in range(1, t + 1):
        factor = base_count - (i - 1) * per_step
        if factor <= 0:
            raise InternalConsistencyError(
                f"non-positive factor at step {i} for n = {n}"
            )
        total += math.log(factor)
    return total
