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

The validators decide validity from set sizes alone: a placement is
valid exactly when each diagonal family takes n distinct indices, and
the second family is only looked at when the first passes.  A rejected
placement gets a private ValidityReport subclass whose ``is_valid`` is a
class attribute, so the report costs an allocation and one slot write
holding the permutation; its ``violations`` are tallied from it the
first time they are read.  Filtering many placements (the permutation
oracle) thus builds no violation lists.  Every per-n cache holds O(n)
entries, since the torus validator also checks base boards of 65 537
squares.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .errors import InvalidConfigError


class Square(NamedTuple):
    """A board square; compares lexicographically by (x, y)."""

    x: int
    y: int


class Violation(NamedTuple):
    """One over-occupied constraint line: kind, line index, queens on it."""

    kind: str
    index: int
    multiplicity: int


class ValidityReport:
    """Outcome of a validator: ``is_valid`` and the over-occupied lines.

    Constructed directly it holds the given values.  Validators reject a
    placement with a ``_Rejected`` report, which keeps the permutation
    (and the modulus on the torus) and tallies ``violations`` on first
    access, sorted by (kind, index).  Immutable; equality, hash and repr
    go by ``(is_valid, violations)``.
    """

    __slots__ = ("is_valid", "_violations", "_pending")

    def __init__(self, is_valid: bool, violations: tuple[Violation, ...]):
        object.__setattr__(self, "is_valid", is_valid)
        object.__setattr__(self, "_violations", violations)
        object.__setattr__(self, "_pending", None)

    @property
    def violations(self) -> tuple[Violation, ...]:
        pending = self._pending  # read once: another thread may clear it
        if pending is not None:
            p, modulus = pending
            plus = [x + y for y, x in enumerate(p)]
            minus = [x - y for y, x in enumerate(p)]
            if modulus is not None:
                plus = [i % modulus for i in plus]
                minus = [i % modulus for i in minus]
            tally = tuple(
                Violation(kind, index, mult)
                for kind, indices in (("minus-diagonal", minus), ("plus-diagonal", plus))
                for index, mult in sorted(Counter(indices).items())
                if mult > 1
            )
            object.__setattr__(self, "_violations", tally)
            object.__setattr__(self, "_pending", None)
        return self._violations

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ValidityReport is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, ValidityReport):
            return NotImplemented
        return (self.is_valid, self.violations) == (other.is_valid, other.violations)

    def __hash__(self):
        return hash((self.is_valid, self.violations))

    def __repr__(self):
        return f"ValidityReport(is_valid={self.is_valid!r}, violations={self.violations!r})"

    def __reduce__(self):
        return ValidityReport, (self.is_valid, self.violations)


class _Rejected(ValidityReport):
    """A rejected placement, as a validator returns it.  ``is_valid`` is a
    class attribute, so building one is an allocation and one write of
    ``_pending``: (p, modulus), with modulus n on the torus and None on
    the classical board.  Pickles as a plain ValidityReport."""

    __slots__ = ()
    is_valid = False


_new = object.__new__
_set_pending = ValidityReport._pending.__set__


@dataclass(frozen=True)
class QueensConfig:
    """A placement of n queens, one per row, as a column permutation.

    Structural invariants (length, range, permutation) are enforced at
    construction; validators below assume them and only ever report
    diagonal violations.
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

    def occupied(self, square: Square) -> bool:
        x, y = square
        return 0 <= y < self.n and self.p[y] == x


_VALID = ValidityReport(is_valid=True, violations=())
_INT = frozenset({int})


@lru_cache(maxsize=32)
def _columns(n: int) -> frozenset[int]:
    return frozenset(range(n))


@lru_cache(maxsize=32)
def _wrap(n: int):
    """Residue mod n of every integer in -(n-1) .. 2n-2, by list lookup."""
    return (list(range(n)) * 2).__getitem__


def validate_toroidal(config: QueensConfig) -> ValidityReport:
    """Check that both wrap-around diagonal families are exactly covered.

    Rows and columns are already guaranteed by the permutation invariant,
    so only repeated residues of ``x + y`` and ``x - y`` mod n can appear
    as violations.
    """
    p = config.p
    n = len(p)
    rows = range(n)
    wrap = _wrap(n)
    if (
        len(set(map(wrap, map(add, p, rows)))) == n
        and len(set(map(wrap, map(sub, p, rows)))) == n
    ):
        return _VALID
    report = _new(_Rejected)
    _set_pending(report, (p, n))
    return report


def validate_classical(config: QueensConfig) -> ValidityReport:
    """Check the classical no-two-queens-attack condition.

    Diagonal indices are taken over the integers: ``x + y`` in
    ``0 .. 2n-2`` and ``x - y`` in ``-(n-1) .. n-1``, with no wrap.
    """
    p = config.p
    n = len(p)
    rows = range(n)
    if len(set(map(add, p, rows))) == n and len(set(map(sub, p, rows))) == n:
        return _VALID
    report = _new(_Rejected)
    _set_pending(report, (p, None))
    return report


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
