"""Numeric identities behind the solution-count upper bounds.

Two families of checks live here.  The board-geometry side: for a fixed
classical solution, each non-queen position in a row is ruled out by 1,
2 or 3 other rows (column plus up to two diagonals), the per-row counts
(by_three, by_two, by_one) always sum to n - 1, and the diagonal-pair
total sum(2 * by_three + by_two) equals the summed diagonal exposure
D(i, j) over the queens, a quantity constant on concentric square rings
and bounded below by (5/4) n^2 - 6n.  The analytic side: the classical-
board constant alpha = 3 - 2 sqrt(3/5) arctan(sqrt(5/3)) ~ 1.5875 in
Q(n) <= (n / e^alpha)^n, in closed form and as a certified bracket of
its integral definition alpha = 1 - integral_0^1 log((5/8) x^2 + 3/8) dx,
and the log bounds n (log n - c) built on it.  ``quadrature.enclose``
gives certified ends for alpha and the bound integrals; verify's rows
read them.

All finite-n comparisons against actual counts are reports, never
assertions: the bounds hold asymptotically, with a vanishing-order
factor this module drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import QueensConfig, is_classical
from .errors import InvalidConfigError, check_cap
from .quadrature import Enclosure, enclose

ALPHA_PANELS = 10_000  # panels of each shaped piece of alpha's integral


@dataclass(frozen=True)
class RowProfile:
    """Counts of row positions ruled out by exactly 3, 2, or 1 other rows."""

    row: int
    by_three: int
    by_two: int
    by_one: int


def _check_int(name: str, value) -> None:
    """Refuse a bool or non-int size before anything is computed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")


def _check_board_size(n) -> None:
    _check_int("board size", n)
    if n < 1:
        raise InvalidConfigError(f"board size must be >= 1, got {n}")


def diagonal_exposure(n: int, i: int, j: int) -> int:
    """Number of squares sharing a diagonal with (i, j), excluding itself.

    Equals (n - 3) + 2 * min(i + 1, j + 1, n - i, n - j) in 0-based
    coordinates: constant on concentric square rings, growing by 2 per
    ring inward.  Refuses a non-integer n, i or j, n < 1 and a square
    off the board.
    """
    _check_board_size(n)
    _check_int("row", i)
    _check_int("column", j)
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidConfigError(f"position ({i}, {j}) outside board of size {n}")
    return _exposure(n, i, j)


def _exposure(n: int, i: int, j: int) -> int:
    """diagonal_exposure without its checks, for callers that loop over
    squares already on the board."""
    return (n - 3) + 2 * min(i + 1, j + 1, n - i, n - j)


def diagonal_exposure_matrix(n: int) -> list[list[int]]:
    """diagonal_exposure at every square, row i and column j.  Refuses
    a non-integer n, n < 1 and n above the "dmatrix" cap before building
    anything."""
    _check_board_size(n)
    check_cap("dmatrix", n, f"board size {n}")
    return [[_exposure(n, i, j) for j in range(n)] for i in range(n)]


def attack_profiles(config: QueensConfig) -> list[RowProfile]:
    """Per-row rule-out profile of a classical solution.

    A position (x, y) with x != p[y] is ruled out by the row of the queen
    in column x, plus the row of the queen on each of its two diagonals
    when occupied; that count is always 1, 2 or 3, and the queen's own
    square is the unique position ruled out by no other row.
    """
    return [RowProfile(y, *counts) for y, counts in enumerate(_rule_out_counts(config))]


def _rule_out_counts(config: QueensConfig) -> list[tuple[int, int, int]]:
    """(by_three, by_two, by_one) for each row of a classical solution.

    Row y's columns on an occupied sum diagonal form the set
    A = {s - y : s a queen's x + y} and those on an occupied difference
    diagonal B = {d + y : d a queen's x - y}, both cut to 0..n-1 and
    without p[y].  Then by_three = |A & B| and by_two = |A ^ B|.  The sets
    are bit masks: one shift of the board-wide mask per row.
    """
    if not is_classical(config):
        raise InvalidConfigError("config is not a valid classical solution")
    n = config.n
    row_mask = (1 << n) - 1
    sums = diffs = 0
    for y, x in enumerate(config.p):
        sums |= 1 << (x + y)
        diffs |= 1 << (x - y + n - 1)
    counts = []
    for y, x in enumerate(config.p):
        others = row_mask & ~(1 << x)
        on_sum = (sums >> y) & others
        on_diff = (diffs >> (n - 1 - y)) & others
        three = (on_sum & on_diff).bit_count()
        two = (on_sum ^ on_diff).bit_count()
        counts.append((three, two, n - 1 - three - two))
    return counts


def concentric_sum(config: QueensConfig) -> int:
    """sum over rows of (2 * by_three + by_two).

    Counts (queen, empty square) pairs sharing a diagonal, so it also
    equals the diagonal exposure summed over the queens; tests check the
    two routes against each other.
    """
    return _pair_sum(_rule_out_counts(config))


def _pair_sum(counts: list[tuple[int, int, int]]) -> int:
    return sum(2 * three + two for three, two, _ in counts)


def concentric_lower_bound(n: int) -> float:
    """The ring-counting lower bound (5/4) n^2 - 6n for concentric_sum."""
    return 1.25 * n * n - 6.0 * n


def check_lemmas(n: int) -> dict:
    """Check the three row-profile lemmas on every classical n-queens
    solution: profile counts sum to n - 1, the diagonal-pair identity,
    and the concentric-ring inequality.  Returns a JSON-able report.
    Capped by the "lemma" cap, since every solution is materialised."""
    check_cap("lemma", n, f"board size {n}")
    from .counting import enumerate_solutions

    solutions = enumerate_solutions(n, "classical")
    floor = concentric_lower_bound(n)
    identity_ok = True
    inequality_ok = True
    sums_ok = True
    for config in solutions:
        counts = _rule_out_counts(config)
        if any(sum(row) != n - 1 for row in counts):
            sums_ok = False
        lhs = _pair_sum(counts)
        rhs = sum(_exposure(n, y, x) for x, y in config.squares())
        identity_ok = identity_ok and lhs == rhs
        inequality_ok = inequality_ok and lhs >= floor
    return {
        "n": n,
        "solutions": len(solutions),
        "profile_sums_ok": sums_ok,
        "identity_ok": identity_ok,
        "inequality_ok": inequality_ok,
        "passed": sums_ok and identity_ok and inequality_ok,
    }


def classical_alpha() -> float:
    """The classical-board bound constant 3 - 2 sqrt(3/5) arctan(sqrt(5/3)),
    the closed form of 1 - integral_0^1 log((5/8) x^2 + 3/8) dx.
    classical_alpha_enclosure brackets the integral form."""
    return 3.0 - 2.0 * math.sqrt(3.0 / 5.0) * math.atan(math.sqrt(5.0 / 3.0))


def classical_alpha_enclosure() -> Enclosure:
    """Certified bounds on alpha = 1 - integral_0^1 f, f(x) = log((5/8) x^2 + 3/8).

    f'' has the sign of 3/5 - x^2, so f is convex on [0, c] and concave
    on [c, 1], c = sqrt(3/5).  Each piece is mapped onto [0, 1]:
    integral_0^c f = integral_0^1 c f(c t) dt and integral_c^1 f =
    integral_0^1 (1 - c) f(c + (1 - c) t) dt, and enclosed with its
    shape at ALPHA_PANELS panels; the bracket is below 1e-9 wide.  The
    two pieces meet at the rounded c, so together they cover [0, 1]
    exactly; between the rounded and the true c, an ulp at most, f'' is
    all but zero, and the few roundings of the sums are far inside
    enclose's margins.
    """
    c = math.sqrt(0.6)
    d = 1.0 - c

    def f(x: float) -> float:
        return math.log(0.625 * x * x + 0.375)

    convex = enclose(lambda t: c * f(c * t), ALPHA_PANELS, "convex")
    concave = enclose(lambda t: d * f(c + d * t), ALPHA_PANELS, "concave")
    return Enclosure(
        lower=1.0 - (convex.upper + concave.upper),
        upper=1.0 - (convex.lower + concave.lower),
        evaluations=convex.evaluations + concave.evaluations,
    )


def _bound_log(n: int, c: float) -> float:
    """n (log n - c), the log of (n / e^c)^n; refuses a non-integer n,
    n < 1, and any n at which that value is not a finite float."""
    _check_int("n", n)
    if n < 1:
        raise InvalidConfigError(f"n must be >= 1, got {n}")
    try:
        value = n * (math.log(n) - c)
    except OverflowError:  # n itself is beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise InvalidConfigError(f"n = {n} is too large: its log bound is not a finite float")
    return value


def torus_bound_log(n: int) -> float:
    """log of the toroidal-count upper bound (n / e^3)^n, vanishing-order
    factor dropped: n (log n - 3)."""
    return _bound_log(n, 3.0)


def classical_bound_log(n: int) -> float:
    """log of the classical-count upper bound (n / e^alpha)^n: n (log n - alpha)."""
    return _bound_log(n, classical_alpha())
