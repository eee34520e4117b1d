import math

import pytest

from queens_lab import errors
from queens_lab.errors import QuadratureError
from queens_lab.quadrature import QuadratureResult, adaptive_simpson, integrate


def test_polynomial():
    result = adaptive_simpson(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.abs_error_estimate <= 1e-12
    assert result.evaluations >= 5


def test_sine_over_half_period():
    result = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10)
    assert result.value == pytest.approx(2.0, abs=1e-10)


def test_singular_log():
    result = integrate(math.log, 0.0, 1.0, tol=1e-9, singular_left=True)
    assert result.value == pytest.approx(-1.0, abs=1e-8)
    assert result.abs_error_estimate <= 1e-9


def test_singular_log_cubed():
    result = integrate(lambda x: math.log(x**3), 0.0, 1.0, tol=1e-9, singular_left=True)
    assert result.value == pytest.approx(-3.0, abs=1e-8)


def test_singular_x_log_x():
    result = integrate(lambda x: x * math.log(x), 0.0, 1.0, tol=1e-10, singular_left=True)
    assert result.value == pytest.approx(-0.25, abs=1e-9)


def test_non_singular_path_matches_closed_form():
    result = integrate(lambda x: math.exp(x), 0.0, 1.0, tol=1e-11)
    assert result.value == pytest.approx(math.e - 1.0, abs=1e-10)


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "evals", 20)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.sin(50.0 * x), 0.0, 1.0, tol=1e-15)


def test_empty_interval():
    with pytest.raises(QuadratureError):
        adaptive_simpson(math.sin, 1.0, 1.0)
    with pytest.raises(QuadratureError):
        integrate(math.log, 1.0, 0.5, singular_left=True)


def test_result_is_frozen():
    result = QuadratureResult(1.0, 0.0, 3)
    with pytest.raises(AttributeError):
        result.value = 2.0
