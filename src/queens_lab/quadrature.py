"""Quadrature: an adaptive Simpson estimate and a certified enclosure.

``adaptive_simpson`` integrates a smooth f to a tolerance; its error term
is an estimate, not a bound.  ``enclose`` brackets the integral over
[0, 1] of a non-decreasing f between its left and right Riemann sums,
widened by a rounding margin, so its ends are bounds a caller can rely
on.  Both count their evaluations and respect the "evals" cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError, cap

DEFAULT_TOL = 1e-9
MAX_DEPTH = 60  # bisection depth of one adaptive_simpson panel
ROUNDING_MARGIN = 1e-12  # enclose widens each end by this times (1 + max |f|)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def adaptive_simpson(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
) -> QuadratureResult:
    """Integrate a smooth f over [lo, hi] by adaptive panel bisection.

    A panel is accepted when the two-half Simpson refinement moves the
    estimate by at most 15 * (local tolerance); the standard Richardson
    correction is applied to the accepted value.  More than the "evals"
    cap of evaluations, or a panel bisected MAX_DEPTH times, raises
    QuadratureError.
    """
    limit = cap("evals")
    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > limit:
            raise QuadratureError(
                f"evaluation budget {limit} exhausted before tolerance {tol}"
            )
        return f(x)

    def simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(
        a: float,
        b: float,
        fa: float,
        fm: float,
        fb: float,
        whole: float,
        budget: float,
        depth: int,
    ) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm = ev(lm)
        frm = ev(rm)
        left = simpson(a, mid, fa, flm, fm)
        right = simpson(mid, b, fm, frm, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * budget:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= MAX_DEPTH:
            raise QuadratureError(
                f"tolerance {tol} unreachable at depth {MAX_DEPTH} on [{a}, {b}]"
            )
        lv, le = rec(a, mid, fa, flm, fm, left, budget / 2.0, depth + 1)
        rv, re = rec(mid, b, fm, frm, fb, right, budget / 2.0, depth + 1)
        return lv + rv, le + re

    if hi <= lo:
        raise QuadratureError(f"empty interval [{lo}, {hi}]")
    fa = ev(lo)
    fm = ev(0.5 * (lo + hi))
    fb = ev(hi)
    whole = simpson(lo, hi, fa, fm, fb)
    value, err = rec(lo, hi, fa, fm, fb, whole, tol, 0)
    del rec  # rec holds itself through its closure; this breaks the cycle
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


@dataclass(frozen=True)
class Enclosure:
    lower: float
    upper: float
    evaluations: int


def enclose(f: Callable[[float], float], panels: int) -> Enclosure:
    """Bounds on integral_0^1 f(x) dx for a non-decreasing f.

    On each of ``panels`` equal panels such an f lies between its values
    at the panel's two ends, so the left Riemann sum is a lower bound and
    the right one an upper bound.  Before widening they differ by exactly
    (f(1) - f(0)) / panels, so the panel count fixes the width up front.

    Each sum of values is taken with math.fsum, which rounds once, and
    divided by ``panels``, which rounds once more.  Because f is monotone,
    M = max(|f(0)|, |f(1)|) bounds |f| on [0, 1], so each value, and each
    end, is at most M in size.  If f is computed to a few ulps and moves
    by no more than that over one ulp of x (log-type integrands, whose
    x f'(x) is small, do), every value is off by a few times 2^-53 M, and
    so is their mean.  Each end is widened outward by
    ROUNDING_MARGIN * (1 + M), thousands of times more.  ``panels`` must
    be an int >= 1, and panels + 1 evaluations must fit the "evals" cap;
    otherwise QuadratureError is raised before f is called.
    """
    limit = cap("evals")
    if type(panels) is not int or not 1 <= panels < limit:
        raise QuadratureError(f"panels must be an integer in [1, {limit - 1}], got {panels!r}")
    values = [f(i / panels) for i in range(panels + 1)]
    margin = ROUNDING_MARGIN * (1.0 + max(abs(values[0]), abs(values[-1])))
    return Enclosure(
        lower=math.fsum(values[:-1]) / panels - margin,
        upper=math.fsum(values[1:]) / panels + margin,
        evaluations=panels + 1,
    )
