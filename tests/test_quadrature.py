import math

import pytest

from queens_lab import errors
from queens_lab.errors import QuadratureError
from queens_lab.quadrature import ROUNDING_MARGIN, SHAPES, Enclosure, enclose


def never(x):
    raise AssertionError("integrand evaluated")


def test_polynomial():
    # For x^2 the midpoint sum is 1/3 - 1/(12 p^2) and the trapezoid sum
    # 1/3 + 1/(6 p^2), so the width is fixed by the panel count p.
    margin = 2.0 * ROUNDING_MARGIN
    for panels in (1, 3, 10):
        result = enclose(lambda x: x * x, panels, "convex")
        assert result.lower == pytest.approx(1.0 / 3.0 - 1.0 / (12 * panels**2) - margin, abs=1e-15)
        assert result.upper == pytest.approx(1.0 / 3.0 + 1.0 / (6 * panels**2) + margin, abs=1e-15)


def test_sine_over_half_period():
    # integral_0^pi sin = integral_0^1 pi sin(pi t) dt = 2, a concave integrand.
    result = enclose(lambda t: math.pi * math.sin(math.pi * t), 1000, "concave")
    assert result.lower <= 2.0 <= result.upper
    assert result.upper - result.lower <= 1e-5


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "evals", 20)
    with pytest.raises(QuadratureError, match=r"^panels must be an integer in \[1, 9\], got 10$"):
        enclose(never, 10, "convex")


def test_result_is_frozen():
    result = Enclosure(1.0, 2.0, 3)
    with pytest.raises(AttributeError):
        result.lower = 2.0


ALPHA = 3.0 - 2.0 * math.sqrt(3.0 / 5.0) * math.atan(math.sqrt(5.0 / 3.0))
# (non-decreasing integrand on [0, 1], its integral's closed form)
CLOSED_FORMS = {
    **{
        f"log1p-{c}": (lambda x, c=c: math.log1p(c * x), (1.0 + c) * math.log1p(c) / c - 1.0)
        for c in (0.5, 15.0, 1023.0)
    },
    "alpha": (lambda x: math.log(0.625 * x * x + 0.375), 1.0 - ALPHA),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
@pytest.mark.parametrize("panels", [1, 2, 7, 100, 1000])
def test_enclose_brackets_closed_forms(name, panels):
    f, exact = CLOSED_FORMS[name]
    result = enclose(f, panels)
    assert result.lower <= exact <= result.upper
    assert result.evaluations == panels + 1
    margin = ROUNDING_MARGIN * (1.0 + max(abs(f(0.0)), abs(f(1.0))))
    width = (f(1.0) - f(0.0)) / panels
    assert result.upper - result.lower - 2.0 * margin == pytest.approx(width, rel=1e-12)


def test_enclose_of_a_constant_is_the_constant_within_the_margin():
    result = enclose(lambda x: -2.5, 3)
    assert result == Enclosure(-2.5 - 3.5 * ROUNDING_MARGIN, -2.5 + 3.5 * ROUNDING_MARGIN, 4)


@pytest.mark.parametrize("panels", [0, -3, 2.0, True, None])
def test_enclose_refuses_a_panel_count_that_is_not_a_positive_int(panels):
    with pytest.raises(QuadratureError, match="panels must be an integer"):
        enclose(never, panels)


def test_enclose_evaluations_fit_the_evals_cap(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "evals", 11)
    assert enclose(math.exp, 10).evaluations == 11
    with pytest.raises(QuadratureError, match=r"^panels must be an integer in \[1, 10\], got 11$"):
        enclose(math.exp, 11)


# (convex or concave integrand on [0, 1], its shape, its integral's closed form)
SHAPED_FORMS = {
    "square": (lambda x: x * x, "convex", 1.0 / 3.0),
    "exp": (math.exp, "convex", math.e - 1.0),
    "log1p": (math.log1p, "concave", 2.0 * math.log(2.0) - 1.0),
    "sqrt1p": (lambda x: math.sqrt(1.0 + x), "concave", (4.0 * math.sqrt(2.0) - 2.0) / 3.0),
}


@pytest.mark.parametrize("name", list(SHAPED_FORMS))
@pytest.mark.parametrize("panels", [1, 2, 7, 100, 1000])
def test_shaped_enclose_brackets_closed_forms(name, panels):
    f, shape, exact = SHAPED_FORMS[name]
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    result = enclose(counted, panels, shape)
    assert result.lower <= exact <= result.upper
    assert result.evaluations == len(calls) == 2 * panels + 1
    # The midpoint and trapezoid errors are O(panels^-2).
    assert result.upper - result.lower <= 2.0 / panels**2


@pytest.mark.parametrize("shape", ["decreasing", "Convex", None])
def test_enclose_refuses_an_unknown_shape(shape):
    with pytest.raises(QuadratureError, match="shape must be one of"):
        enclose(never, 10, shape)


@pytest.mark.parametrize("shape", SHAPES[1:])
def test_shaped_evaluations_fit_the_evals_cap(monkeypatch, shape):
    monkeypatch.setitem(errors.CAPS, "evals", 21)
    assert enclose(math.exp, 10, shape).evaluations == 21
    with pytest.raises(QuadratureError, match=r"^panels must be an integer in \[1, 10\], got 11$"):
        enclose(math.exp, 11, shape)
