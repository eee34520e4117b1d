import math

import pytest

from queens_lab import bounds, counting, errors
from queens_lab.quadrature import ROUNDING_MARGIN, enclose
from queens_lab.verify import PANELS
from queens_lab.bounds import (
    attack_profiles,
    classical_alpha,
    classical_alpha_enclosure,
    classical_bound_log,
    concentric_lower_bound,
    concentric_sum,
    diagonal_exposure,
    diagonal_exposure_matrix,
    torus_bound_log,
)
from queens_lab.core import QueensConfig
from queens_lab.counting import enumerate_solutions
from queens_lab.errors import InvalidConfigError, SizeLimitError

from helpers import EXPOSURE_5, brute_force_diagonal_exposure, reference_attack_profiles

ALPHA_CLOSED = 3.0 - 2.0 * math.sqrt(3.0 / 5.0) * math.atan(math.sqrt(5.0 / 3.0))


def test_exposure_matrix_five():
    assert diagonal_exposure_matrix(5) == EXPOSURE_5
    assert diagonal_exposure(5, 0, 0) == 4
    assert diagonal_exposure(5, 2, 2) == 8
    assert diagonal_exposure(5, 1, 2) == 6


@pytest.mark.parametrize("n", range(1, 9))
def test_exposure_formula_matches_brute_force(n):
    for i in range(n):
        for j in range(n):
            assert diagonal_exposure(n, i, j) == brute_force_diagonal_exposure(n, i, j)


def test_exposure_matrix_is_bounded_before_it_builds(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "dmatrix", 6)
    assert diagonal_exposure_matrix(6) == [
        [brute_force_diagonal_exposure(6, i, j) for j in range(6)] for i in range(6)
    ]

    def no_build(*args):
        raise AssertionError("diagonal_exposure_matrix built past its bounds")

    monkeypatch.setattr(bounds, "diagonal_exposure", no_build)
    for n in (7, 10**9):
        with pytest.raises(SizeLimitError, match="exposure-matrix cap 6"):
            diagonal_exposure_matrix(n)
    for n in (0, -2):
        with pytest.raises(InvalidConfigError, match="must be >= 1"):
            diagonal_exposure_matrix(n)


@pytest.mark.parametrize(
    "view,n",
    [
        (diagonal_exposure_matrix, True),
        (diagonal_exposure_matrix, 5.0),
        (torus_bound_log, True),
        (torus_bound_log, 5.0),
        (classical_bound_log, True),
        (classical_bound_log, 7.5),
    ],
)
def test_size_views_refuse_non_integer_sizes(monkeypatch, view, n):
    def no_cap(*args):
        raise AssertionError("size checked against a cap")

    monkeypatch.setattr(bounds, "check_cap", no_cap)
    with pytest.raises(InvalidConfigError, match=f"must be an integer, got {n!r}$"):
        view(n)


def test_exposure_out_of_range():
    with pytest.raises(InvalidConfigError):
        diagonal_exposure(5, 5, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((5.0, 0, 0), "board size must be an integer, got 5.0"),
        ((True, 0, 0), "board size must be an integer, got True"),
        ((5, 2.5, 0), "row must be an integer, got 2.5"),
        ((5, 0, False), "column must be an integer, got False"),
        ((0, 0, 0), "board size must be >= 1, got 0"),
    ],
)
def test_exposure_refuses_malformed_arguments(args, message):
    with pytest.raises(InvalidConfigError, match=f"^{message}$"):
        diagonal_exposure(*args)


def test_attack_profiles_frozen_example():
    # Worked by hand for the standard 4-queens solution.
    profiles = attack_profiles(QueensConfig(n=4, p=(1, 3, 0, 2)))
    assert [(p.by_three, p.by_two, p.by_one) for p in profiles] == [
        (1, 0, 2),
        (1, 2, 0),
        (1, 2, 0),
        (1, 0, 2),
    ]
    assert concentric_sum(QueensConfig(n=4, p=(1, 3, 0, 2))) == 12


def test_attack_profiles_single_queen():
    profiles = attack_profiles(QueensConfig(n=1, p=(0,)))
    assert [(p.by_three, p.by_two, p.by_one) for p in profiles] == [(0, 0, 0)]
    assert concentric_sum(QueensConfig(n=1, p=(0,))) == 0


def test_attack_profiles_require_classical_solution():
    with pytest.raises(InvalidConfigError):
        attack_profiles(QueensConfig(n=4, p=(0, 1, 2, 3)))


@pytest.mark.parametrize("n", range(1, 10))
def test_attack_profiles_match_square_by_square_reference(n):
    for config in enumerate_solutions(n, "classical"):
        profiles = attack_profiles(config)
        assert [p.row for p in profiles] == list(range(n))
        assert [(p.by_three, p.by_two, p.by_one) for p in profiles] == (
            reference_attack_profiles(config.p)
        )


@pytest.mark.parametrize("n", range(4, 7))
def test_profile_identities(n):
    floor = concentric_lower_bound(n)
    for config in enumerate_solutions(n, "classical"):
        profiles = attack_profiles(config)
        assert all(p.by_three + p.by_two + p.by_one == n - 1 for p in profiles)
        lhs = concentric_sum(config)
        rhs = sum(diagonal_exposure(n, y, x) for x, y in config.squares())
        assert lhs == rhs
        assert lhs >= floor


def test_identity_on_toroidal_derived_solutions():
    for config in enumerate_solutions(5, "toroidal"):
        lhs = concentric_sum(config)
        rhs = sum(diagonal_exposure(5, y, x) for x, y in config.squares())
        assert lhs == rhs


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_log_gap_bound(n):
    # integral_0^1 log((n-1) x) dx = log(n-1) - 1; adding 1 inside the log
    # raises the integral by less than 2/sqrt(n).
    without = math.log(n - 1) - 1.0
    with_one = enclose(lambda x: math.log1p((n - 1) * x), PANELS)
    assert without < with_one.lower
    assert with_one.upper - without <= 2.0 / math.sqrt(n)


def test_log_gap_mixed_coefficients_reported():
    n = 100
    # integral_0^1 log(33 x (x^2 + x + 1)) dx in closed form.
    without = math.log(33) - 3.0 + 1.5 * math.log(3) + math.pi / (2.0 * math.sqrt(3))
    with_one = enclose(lambda x: math.log1p(((33 * x + 33) * x + 33) * x), PANELS)
    assert without < with_one.lower  # adding 1 inside the log can only increase it
    measured_constant = (with_one.upper - without) * math.sqrt(n)
    assert measured_constant < 4.0


def test_alpha_interval_and_agreement():
    closed = classical_alpha()
    bracket = classical_alpha_enclosure()
    assert 1.587 < bracket.lower <= closed <= bracket.upper < 1.588
    assert bracket.upper - bracket.lower <= 1e-9
    assert bracket.evaluations == 2 * (2 * bounds.ALPHA_PANELS + 1)
    assert closed == pytest.approx(ALPHA_CLOSED)
    assert bracket.lower <= 1.587541113191774 <= bracket.upper


def _alpha_antiderivative(x: float) -> float:
    # d/dx [x log(a x^2 + b) - 2x + 2 sqrt(b/a) atan(x sqrt(a/b))] = log(a x^2 + b)
    c = math.sqrt(0.6)
    return x * math.log(0.625 * x * x + 0.375) - 2.0 * x + 2.0 * c * math.atan(x / c)


def test_alpha_integrand_value():
    # Each shaped piece of alpha's integral brackets its own closed form,
    # and the wrong shape on either piece misses it.
    f = lambda x: math.log(0.625 * x * x + 0.375)
    c = math.sqrt(0.6)
    d = 1.0 - c
    pieces = [
        (lambda t: c * f(c * t), "convex", _alpha_antiderivative(c)),
        (lambda t: d * f(c + d * t), "concave", _alpha_antiderivative(1.0) - _alpha_antiderivative(c)),
    ]
    for g, shape, exact in pieces:
        right = enclose(g, 100, shape)
        assert right.lower <= exact <= right.upper
        wrong = enclose(g, 100, "concave" if shape == "convex" else "convex")
        assert not wrong.lower <= exact <= wrong.upper
    assert -0.588 < _alpha_antiderivative(1.0) < -0.587
    assert 1.0 - _alpha_antiderivative(1.0) == pytest.approx(ALPHA_CLOSED, abs=1e-15)


def test_bound_logs():
    assert torus_bound_log(1) == pytest.approx(-3.0)
    assert classical_bound_log(1) == pytest.approx(-ALPHA_CLOSED)
    assert torus_bound_log(20) < 0 < torus_bound_log(21)  # sign change near e^3
    assert classical_bound_log(8) == pytest.approx(8.0 * (math.log(8) - ALPHA_CLOSED))
    for n in (1, 2, 5, 8, 20, 100):
        assert classical_bound_log(n) > torus_bound_log(n)
    with pytest.raises(InvalidConfigError):
        torus_bound_log(0)


@pytest.mark.parametrize("bound_log", [torus_bound_log, classical_bound_log])
@pytest.mark.parametrize("n", [10**306, 10**400], ids=["1e306", "1e400"])
def test_bound_logs_refuse_n_without_a_finite_value(bound_log, n):
    # At 10^306 the product overflows to inf; 10^400 is beyond the floats.
    with pytest.raises(InvalidConfigError, match=f"n = {n} is too large"):
        bound_log(n)
    assert math.isfinite(bound_log(10**300))


def test_finite_size_comparison_is_reported_not_asserted():
    # At n = 8 the exact count exceeds the bound value; both numbers are
    # produced for reporting and no ordering is claimed at finite n.
    log_count = math.log(92)
    bound = classical_bound_log(8)
    assert log_count > 0 and math.isfinite(bound)


@pytest.mark.parametrize("k", [5, 17, 100])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_matching_integral_closed_form(k, d):
    # 1 + (k-1) t >= k t on [0, 1], so the integral is at least
    # integral_0^1 log(k x^(d-1)) dx = log k - (d-1).
    result = enclose(lambda x: math.log1p((k - 1) * x ** (d - 1)), PANELS)
    assert result.lower >= math.log(k) - (d - 1)


def test_matching_integral_trivial():
    # At d = 1 the integrand is the constant log k, and so is the bound.
    for k in (1, 5, 100):
        result = enclose(lambda x: math.log1p((k - 1) * x**0), PANELS)
        margin = ROUNDING_MARGIN * (1.0 + math.log(k))
        assert result.lower == pytest.approx(math.log(k) - margin, abs=1e-15)
        assert result.lower <= math.log(k) <= result.upper
        assert result.upper - result.lower <= 2.0 * margin + 1e-15


def test_check_lemmas_is_capped_before_it_searches(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("check_lemmas searched past its cap")

    # check_lemmas imports enumerate_solutions from counting when it runs.
    monkeypatch.setattr(counting, "enumerate_solutions", no_search)
    for n in (errors.CAPS["lemma"] + 1, 16, 10**9):
        with pytest.raises(SizeLimitError, match="lemma-check cap"):
            bounds.check_lemmas(n)
    monkeypatch.setattr(counting, "enumerate_solutions", lambda n, mode: [])
    assert bounds.check_lemmas(errors.CAPS["lemma"])["passed"] is True
