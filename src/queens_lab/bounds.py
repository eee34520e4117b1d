"""Numeric identities behind the solution-count upper bounds.

Two families of checks live here.  The board-geometry side: for a fixed
classical solution, each non-queen position in a row is ruled out by 1,
2 or 3 other rows (column plus up to two diagonals), the per-row counts
(by_three, by_two, by_one) always sum to n - 1, and the diagonal-pair
total sum(2 * by_three + by_two) equals the summed diagonal exposure
D(i, j) over the queens, a quantity constant on concentric square rings
and bounded below by (5/4) n^2 - 6n.  The analytic side: the classical-
board constant alpha = 3 - 2 sqrt(3/5) arctan(sqrt(5/3)) ~ 1.5875 in
Q(n) <= (n / e^alpha)^n, by its closed form or by adaptive quadrature of
its integral definition alpha = 1 - integral_0^1 log((5/8) x^2 + 3/8) dx,
and the log bounds n (log n - c) built on it.  ``quadrature.enclose``
gives certified ends for the bound integrals; verify's rows read it.

All finite-n comparisons against actual counts are reports, never
assertions: the bounds hold asymptotically, with a vanishing-order
factor this module drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import QueensConfig, is_classical
from .errors import InvalidConfigError, check_cap
from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class RowProfile:
    """Counts of row positions ruled out by exactly 3, 2, or 1 other rows."""

    row: int
    by_three: int
    by_two: int
    by_one: int


def diagonal_exposure(n: int, i: int, j: int) -> int:
    """Number of squares sharing a diagonal with (i, j), excluding itself.

    Equals (n - 3) + 2 * min(i + 1, j + 1, n - i, n - j) in 0-based
    coordinates: constant on concentric square rings, growing by 2 per
    ring inward.
    """
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidConfigError(f"position ({i}, {j}) outside board of size {n}")
    return (n - 3) + 2 * min(i + 1, j + 1, n - i, n - j)


def diagonal_exposure_matrix(n: int) -> list[list[int]]:
    """diagonal_exposure at every square, row i and column j.  Refuses
    n < 1 and n above the "dmatrix" cap before building anything."""
    if n < 1:
        raise InvalidConfigError(f"board size must be >= 1, got {n}")
    check_cap("dmatrix", n, f"board size {n}")
    return [[diagonal_exposure(n, i, j) for j in range(n)] for i in range(n)]


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
        rhs = sum(diagonal_exposure(n, y, x) for x, y in config.squares())
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


def classical_alpha(method: str = "closed_form") -> float:
    """The classical-board bound constant, by either route.

    closed_form: 3 - 2 sqrt(3/5) arctan(sqrt(5/3)).
    quadrature:  1 - integral_0^1 log((5/8) x^2 + 3/8) dx.
    The two agree to 1e-9 and lie strictly between 1.587 and 1.588.
    """
    if method == "closed_form":
        return 3.0 - 2.0 * math.sqrt(3.0 / 5.0) * math.atan(math.sqrt(5.0 / 3.0))
    if method == "quadrature":
        result = adaptive_simpson(lambda x: math.log(0.625 * x * x + 0.375), 0.0, 1.0, tol=1e-12)
        return 1.0 - result.value
    raise InvalidConfigError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def _bound_log(n: int, c: float) -> float:
    """n (log n - c), the log of (n / e^c)^n; refuses n < 1, and any n at
    which that value is not a finite float."""
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
    return _bound_log(n, classical_alpha("closed_form"))
