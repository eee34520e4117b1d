"""Adaptive Simpson quadrature with support for a log-type singularity at
the left endpoint.

The singular case splits [lo, hi] into panels shrinking geometrically
toward lo ([lo + w/2^i, lo + w/2^(i-1)]); each panel is smooth and gets
an adaptive pass with a halved error budget, and the scan stops once the
remaining tail is provably below tolerance.  This is enough for every
integrand used here, all of which are integrable at 0 with at worst a
log blow-up or a log-type derivative blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError, cap

DEFAULT_TOL = 1e-9
MAX_DEPTH = 60  # bisection depth of one adaptive_simpson panel
MAX_PANELS = 400  # geometric panels of integrate's singular path


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


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    singular_left: bool = False,
) -> QuadratureResult:
    """Integrate f over [lo, hi], tolerating a log singularity at lo.

    With ``singular_left`` the integrand is never evaluated at lo itself;
    geometric panels approach it until the last panel contributes less
    than tol/8, at which point the unseen tail of a log-type integrand is
    below 3x that contribution and is charged to the error estimate.
    """
    if not singular_left:
        return adaptive_simpson(f, lo, hi, tol)
    if hi <= lo:
        raise QuadratureError(f"empty interval [{lo}, {hi}]")
    width = hi - lo
    total = 0.0
    err = 0.0
    evals = 0
    right = hi
    for i in range(1, MAX_PANELS + 1):
        left = lo + width * 2.0 ** (-i)
        panel = adaptive_simpson(f, left, right, tol * 2.0 ** (-i - 1))
        total += panel.value
        err += panel.abs_error_estimate
        evals += panel.evaluations
        right = left
        if i >= 8 and abs(panel.value) < tol / 8.0:
            tail = 3.0 * abs(panel.value)
            if tail <= tol / 2.0:
                return QuadratureResult(
                    value=total, abs_error_estimate=err + tail, evaluations=evals
                )
    raise QuadratureError(
        f"singular tail did not fall below tolerance {tol} in {MAX_PANELS} panels"
    )
