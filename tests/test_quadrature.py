import math

import pytest

from queens_lab import errors
from queens_lab.errors import QuadratureError
from queens_lab.quadrature import ROUNDING_MARGIN, Enclosure, QuadratureResult, adaptive_simpson, enclose


def test_polynomial():
    result = adaptive_simpson(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.abs_error_estimate <= 1e-12
    assert result.evaluations >= 5


def test_sine_over_half_period():
    result = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10)
    assert result.value == pytest.approx(2.0, abs=1e-10)


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "evals", 20)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.sin(50.0 * x), 0.0, 1.0, tol=1e-15)


def test_empty_interval():
    with pytest.raises(QuadratureError):
        adaptive_simpson(math.sin, 1.0, 1.0)


def test_result_is_frozen():
    result = QuadratureResult(1.0, 0.0, 3)
    with pytest.raises(AttributeError):
        result.value = 2.0


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
    def never(x):
        raise AssertionError("integrand evaluated")

    with pytest.raises(QuadratureError, match="panels must be an integer"):
        enclose(never, panels)


def test_enclose_evaluations_fit_the_evals_cap(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "evals", 11)
    assert enclose(math.exp, 10).evaluations == 11
    with pytest.raises(QuadratureError, match=r"^panels must be an integer in \[1, 10\], got 11$"):
        enclose(math.exp, 11)
