"""The explicit toroidal base configuration for board sizes n = 4^k + 1.

With m = 2^k the placement ``x = m * y (mod n)`` is a toroidal solution:
since m^2 = -1 (mod n), the three multipliers m - 1, m, m + 1 are all
units of Z_n, which makes rows, columns and both diagonal families
bijective images of y.  This holds even when n is composite (k = 3 gives
n = 65).

``BaseParams(k)`` is the one constructor of the parameters that the base
board and its flips are built from (``from_board_size`` goes through it):
k is its only field set by the caller, and n, m and (m + 1)^-1 are
derived from it.  It refuses a board above the "board" cap, checking k
before 4^k is computed, so an absurd k costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .core import QueensConfig
from .errors import InvalidConfigError, SizeLimitError, cap


@dataclass(frozen=True)
class BaseParams:
    """Parameters of the base configuration: k, and derived from it the
    board size n = 4^k + 1, the row multiplier m = 2^k mod n and
    inv = (m + 1)^-1 mod n."""

    k: int
    n: int = field(init=False)
    m: int = field(init=False)
    inv: int = field(init=False)

    def __post_init__(self):
        k = self.k
        if isinstance(k, bool) or not isinstance(k, int):
            raise InvalidConfigError(f"k must be an integer, got {k!r}")
        limit = cap("board")
        if k < 1:
            raise InvalidConfigError(f"k must be >= 1, got {k}")
        # 4^k + 1 <= limit  <=>  2k <= floor(log2(limit - 1))
        max_k = (max(limit - 1, 1).bit_length() - 1) // 2
        if k > max_k:
            raise SizeLimitError(
                f"k = {k} exceeds cap {max_k} (board size 4^k + 1 must be <= {limit})"
            )
        n = 4**k + 1
        m = pow(2, k, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "inv", pow(m + 1, -1, n))

    @classmethod
    def from_board_size(cls, n: int) -> "BaseParams":
        """Recover k from n; fails unless n - 1 is a power of 4."""
        if n < 5 or (n - 1) & (n - 2) != 0 or (n - 1).bit_length() % 2 == 0:
            raise InvalidConfigError(f"board size {n} is not of the form 4^k + 1")
        return cls(((n - 1).bit_length() - 1) // 2)


def check_units(params: BaseParams) -> bool:
    """True when m - 1, m and m + 1 are all invertible mod n.

    For n = 4^k + 1 this always holds; the check exists so the algebraic
    precondition of the flip machinery can be asserted at runtime.
    """
    return all(gcd(a, params.n) == 1 for a in (params.m - 1, params.m, params.m + 1))


def build_base_config(k: int) -> QueensConfig:
    """Build the base placement p[y] = 2^k * y mod n on the n = 4^k + 1 board."""
    params = BaseParams(k)
    return QueensConfig(n=params.n, p=tuple((params.m * y) % params.n for y in range(params.n)))
