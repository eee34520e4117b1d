import pytest

from queens_lab.construction import BaseParams, build_base_config, check_units
from queens_lab.core import is_toroidal
from queens_lab.errors import InvalidConfigError, SizeLimitError


@pytest.mark.parametrize("k", range(1, 7))
def test_check_units(k):
    params = BaseParams(k)
    assert check_units(params)
    assert params.inv * (params.m + 1) % params.n == 1


def test_base_params():
    params = BaseParams(3)
    assert (params.n, params.m, params.inv) == (65, 8, 29)
    assert params.inv * (params.m + 1) % params.n == 1
    assert BaseParams.from_board_size(65) == params
    with pytest.raises(InvalidConfigError):
        BaseParams.from_board_size(9)
    with pytest.raises(InvalidConfigError):
        BaseParams(0)


def test_k_is_the_only_field_a_caller_sets():
    n, m = 4**9 + 1, 2**9
    with pytest.raises(TypeError):
        BaseParams(k=9, n=n, m=m, inv=pow(m + 1, -1, n))
    with pytest.raises(TypeError):
        BaseParams(3, 65, 8, 29)
    with pytest.raises(SizeLimitError, match=r"^k = 9 exceeds cap 8 "):
        BaseParams(9)


@pytest.mark.parametrize("k", [True, False, 2.0, 9.0, "2", None])
def test_k_that_is_not_an_int_is_refused_before_the_cap(k):
    with pytest.raises(InvalidConfigError, match=r"^k must be an integer, got "):
        BaseParams(k)


def test_base_config_k1():
    config = build_base_config(1)
    assert config.n == 5
    assert config.p == (0, 2, 4, 1, 3)
    assert config.p[3] == 1  # 2 * 3 = 6 = 1 (mod 5)


def test_base_config_k2_entries():
    config = build_base_config(2)
    assert config.n == 17
    assert config.p[1] == 4
    assert config.p[5] == 3  # 4 * 5 = 20 = 3 (mod 17)


@pytest.mark.parametrize("k", range(1, 5))
def test_base_config_toroidal_valid(k):
    assert is_toroidal(build_base_config(k))


@pytest.mark.parametrize("k", range(1, 4))
def test_base_config_additivity(k):
    config = build_base_config(k)
    n = config.n
    for y1 in range(n):
        for y2 in range(n):
            assert config.p[(y1 + y2) % n] == (config.p[y1] + config.p[y2]) % n


def test_size_cap():
    with pytest.raises(SizeLimitError):
        build_base_config(9)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("QUEENS_LAB_CAP", "20")
    with pytest.raises(SizeLimitError):
        build_base_config(3)  # n = 65 > 20
    assert build_base_config(2).n == 17


def test_from_k_limit_matches_board_size_cap(monkeypatch):
    for cap in list(range(1, 300)) + [65536, 65537, 65538]:
        monkeypatch.setenv("QUEENS_LAB_CAP", str(cap))
        largest = max((k for k in range(10) if 4**k + 1 <= cap), default=0)
        if largest >= 1:
            assert BaseParams(largest).n <= cap
        with pytest.raises(SizeLimitError, match=f"k = {largest + 1} "):
            BaseParams(largest + 1)


class _UnpoweredK(int):
    """A k that fails the test if 4^k is ever computed from it."""

    def __rpow__(self, base, modulus=None):
        raise AssertionError(f"{base}^{int(self)} computed for a refused k")


def test_board_cap_refuses_before_computing_4_to_the_k(monkeypatch):
    refusals = [
        (lambda: BaseParams(_UnpoweredK(9)), "k = 9 exceeds cap 8", 65537),
        (lambda: BaseParams.from_board_size(4**9 + 1), "k = 9 exceeds cap 8", 65537),
        (lambda: BaseParams(_UnpoweredK(10**9)), f"k = {10**9} exceeds cap 8", 65537),
    ]
    for build, head, limit in refusals:
        with pytest.raises(SizeLimitError) as info:
            build()
        assert str(info.value) == f"{head} (board size 4^k + 1 must be <= {limit})"
    monkeypatch.setenv("QUEENS_LAB_CAP", "65")
    with pytest.raises(SizeLimitError) as info:
        BaseParams(_UnpoweredK(4))
    assert str(info.value) == "k = 4 exceeds cap 3 (board size 4^k + 1 must be <= 65)"
    assert BaseParams(3).n == 65
