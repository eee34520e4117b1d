"""Quadrature: certified enclosures of integrals over [0, 1].

``enclose`` brackets the integral over [0, 1] of an f whose shape the
caller states.  For a non-decreasing f the ends are its left and right
Riemann sums; for a convex or concave f they are its midpoint and
trapezoid sums.  Each end is widened by a rounding margin, so the ends
are bounds a caller can rely on.  The panel count and shape fix the
number of evaluations, which is checked against the "evals" cap before
f is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .errors import QuadratureError, cap

SHAPES = ("increasing", "convex", "concave")
ROUNDING_MARGIN = 1e-12  # enclose widens each end by this times (1 + max |value|)


@dataclass(frozen=True)
class Enclosure:
    lower: float
    upper: float
    evaluations: int


def enclose(f: Callable[[float], float], panels: int, shape: str = "increasing") -> Enclosure:
    """Bounds on integral_0^1 f(x) dx for an f of the given shape on [0, 1].

    "increasing": on each of ``panels`` equal panels a non-decreasing f
    lies between its values at the panel's two ends, so the left Riemann
    sum is a lower bound and the right one an upper bound.  Before
    widening they differ by exactly (f(1) - f(0)) / panels.  Costs
    panels + 1 evaluations.

    "convex": on each panel f lies above its tangent at the midpoint and
    below its chord, so the midpoint sum is a lower bound and the
    trapezoid sum an upper bound.  "concave" swaps the two.  Before
    widening they differ by O(panels^-2).  Costs 2 panels + 1
    evaluations, at the multiples of 1 / (2 panels).

    Each sum of values is taken with math.fsum, which rounds once, and
    divided by ``panels``, which rounds once more.  The weights of each
    sum add up to ``panels``, so with M the largest |value| evaluated,
    each end is at most M in size.  If f is computed to a few ulps and
    moves by no more than that over one ulp of x (log-type integrands,
    whose x f'(x) is small, do), every value is off by a few times
    2^-53 M, and so is each end.  Each end is widened outward by
    ROUNDING_MARGIN * (1 + M), thousands of times more.  ``shape`` must
    be one of SHAPES, ``panels`` an int >= 1, and the evaluations must
    fit the "evals" cap; otherwise QuadratureError is raised before f is
    called.
    """
    if shape not in SHAPES:
        raise QuadratureError(f"shape must be one of {SHAPES}, got {shape!r}")
    limit = cap("evals")
    most = limit - 1 if shape == "increasing" else (limit - 1) // 2
    if type(panels) is not int or not 1 <= panels <= most:
        raise QuadratureError(f"panels must be an integer in [1, {most}], got {panels!r}")
    if shape == "increasing":
        values = [f(i / panels) for i in range(panels + 1)]
        lower = math.fsum(values[:-1]) / panels
        upper = math.fsum(values[1:]) / panels
        top = max(map(abs, values))
        evaluations = panels + 1
    else:
        # Midpoints and panel ends are disjoint, so each sum reads its own
        # values as they are made and no list of them is held.
        top = 0.0

        def seen(x: float) -> float:
            nonlocal top
            value = f(x)
            top = max(top, abs(value))
            return value

        twice = 2 * panels
        midpoint = math.fsum(seen(i / twice) for i in range(1, twice, 2)) / panels
        ends = 0.5 * seen(0.0), 0.5 * seen(1.0)
        trapezoid = math.fsum(chain(ends, (seen(i / twice) for i in range(2, twice, 2)))) / panels
        lower, upper = (midpoint, trapezoid) if shape == "convex" else (trapezoid, midpoint)
        evaluations = twice + 1
    margin = ROUNDING_MARGIN * (1.0 + top)
    return Enclosure(lower=lower - margin, upper=upper + margin, evaluations=evaluations)
