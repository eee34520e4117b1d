"""Board representation and validity checking for n-queens placements.

A configuration stores one queen per row as a permutation ``p`` with
``p[y] = x`` meaning a queen on square ``(x, y)``; all coordinates are
residues ``0 .. n-1``.  On the toroidal board the two diagonal families
are the residue classes of ``x + y`` and ``x - y`` mod n, so a placement
is a toroidal solution exactly when both families are hit once each.
On the classical board the same differences are taken over the integers.

Construction accepts a plain tuple of n distinct plain ints in 0 .. n-1
at once, by a type check and one set comparison against a cached
``range(n)`` set; any other input goes through the field-by-field checks,
which name the first fault.  Either way the checks run in
``__post_init__``, once per construction, positional or keyword.

The predicates is_classical and is_toroidal decide validity from set
sizes alone: a placement is valid exactly when each diagonal family takes
n distinct indices, the second family looked at only when the first
passes.  is_toroidal first applies the classical test to each family's
integer indices, since equal integers have equal residues; most
permutations fail it, and a survivor's n distinct integers share a
residue only when two of them differ by exactly n.  The one per-n
cache, the column set, holds n entries, since boards of 65 537 squares
are checked too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .errors import InvalidConfigError


class Square(NamedTuple):
    """A board square; compares lexicographically by (x, y)."""

    x: int
    y: int


@dataclass(frozen=True)
class QueensConfig:
    """A placement of n queens, one per row, as a column permutation.

    Structural invariants (length, range, permutation) are enforced at
    construction; the predicates below assume them and look only at the
    diagonals.
    """

    n: int
    p: tuple[int, ...]

    def __post_init__(self):
        # Fast path: a plain tuple of n distinct plain ints in 0 .. n-1 is
        # accepted at once.  Everything else (lists, int subclasses, bad
        # entries) takes the checks below, which name the first fault.
        n, p = self.n, self.p
        if (
            type(p) is tuple
            and type(n) is int
            and len(p) == n
            and set(map(type, p)) == _INT
            and set(p) == _columns(n)
        ):
            return
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidConfigError("field 'n': must be an integer")
        if self.n < 1:
            raise InvalidConfigError(f"field 'n': must be >= 1, got {self.n}")
        object.__setattr__(self, "p", tuple(self.p))
        if len(self.p) != self.n:
            raise InvalidConfigError(
                f"field 'p': expected length {self.n}, got {len(self.p)}"
            )
        for y, x in enumerate(self.p):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidConfigError(f"field 'p': entry at index {y} is not an integer")
            if not 0 <= x < self.n:
                raise InvalidConfigError(
                    f"field 'p': entry {x} at index {y} out of range 0..{self.n - 1}"
                )
        if len(set(self.p)) != self.n:
            raise InvalidConfigError("field 'p': not a permutation (repeated column)")

    def squares(self) -> tuple[Square, ...]:
        return tuple(Square(x, y) for y, x in enumerate(self.p))


_INT = frozenset({int})


@lru_cache(maxsize=32)
def _columns(n: int) -> frozenset[int]:
    return frozenset(range(n))


def is_toroidal(config: QueensConfig) -> bool:
    """Whether both wrap-around diagonal families are exactly covered.

    Rows and columns are already guaranteed by the permutation invariant,
    so only the residues of ``x + y`` and ``x - y`` mod n can repeat.
    Equal integers have equal residues, so a family whose integer indices
    repeat is refused before any residue is compared.  The n distinct
    integers of a family lie in a window narrower than 2n, so two of them
    share a residue exactly when they differ by n.
    """
    p = config.p
    n = len(p)
    rows = range(n)
    shifted = n.__add__
    plus = set(map(add, p, rows))
    if len(plus) < n or not plus.isdisjoint(map(shifted, plus)):
        return False
    minus = set(map(sub, p, rows))
    return len(minus) == n and minus.isdisjoint(map(shifted, minus))


def is_classical(config: QueensConfig) -> bool:
    """Whether no two queens attack on the classical board.

    Diagonal indices are taken over the integers: ``x + y`` in
    ``0 .. 2n-2`` and ``x - y`` in ``-(n-1) .. n-1``, with no wrap.
    """
    p = config.p
    n = len(p)
    rows = range(n)
    return len(set(map(add, p, rows))) == n and len(set(map(sub, p, rows))) == n


def serialize(config: QueensConfig) -> str:
    """Render the config as the canonical JSON schema {"n": ..., "p": [...]}."""
    return json.dumps({"n": config.n, "p": list(config.p)}, separators=(",", ":"))


def parse(text: str) -> QueensConfig:
    """Parse the JSON schema back into a config; inverse of serialize."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfigError("top level: expected a JSON object")
    if "n" not in raw:
        raise InvalidConfigError("field 'n': missing")
    if "p" not in raw:
        raise InvalidConfigError("field 'p': missing")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidConfigError("field 'n': must be an integer")
    p = raw["p"]
    if not isinstance(p, list):
        raise InvalidConfigError("field 'p': must be an array")
    return QueensConfig(n=n, p=tuple(p))
