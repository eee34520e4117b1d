"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of QueensLabError so the CLI can
map library errors to exit code 1 and keep usage errors (exit code 2)
separate.  Errors that carry extra constructor arguments define
``__reduce__`` so they survive pickling, and with it a trip back from a
process-pool worker.  ``CAPS`` is the one table of size limits and work
budgets; ``check_threads`` and ``usable_cpus`` are the one rule for a
worker count and for the CPUs a pool may use.
"""

from __future__ import annotations

import os


class QueensLabError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidConfigError(QueensLabError):
    """A board configuration or its serialized form is malformed."""

    code = "invalid-config"


class SizeLimitError(QueensLabError):
    """A requested instance exceeds the configured size cap."""

    code = "size-limit"


# Every size limit and work budget, by resource: a size is checked before
# the work it bounds is allocated or started, a budget as the work runs.
# QUEENS_LAB_CAP replaces "count" and "board".
CAPS = {
    "count": 16,  # board size of the exact counters and enumerate_solutions
    "oracle": 10,  # board size of the permutation oracle, which builds n! boards
    "lemma": 12,  # check_lemmas holds every classical solution: 14 200 at 12
    "dmatrix": 512,  # side of the exposure matrix: 262 144 entries, ~50 MiB
    "board": 4**8 + 1,  # board size 4^k + 1 of the construction and its flips
    "edges": 10**6,  # hypergraph edges or vertices, and flips enumerated at once
    # vertex-edge incidences of a Steiner build, vertex pairs within edges
    # tallied by hypergraph stats: 6 * 10^6 for the torus at the edge cap
    "incidences": 10**7,
    "table_bits": 2**30,  # perfect-matching search tables, 128 MiB
    "nodes": 5 * 10**7,  # node budget of count_perfect_matchings
    "evals": 2_000_000,  # integrand evaluations of one enclose call, checked before the first
}
_ENV_CAP = "QUEENS_LAB_CAP"
# How a SizeLimitError names a cap, where not as plain "cap".
_CAP_NAMES = {
    "lemma": "lemma-check cap",
    "dmatrix": "exposure-matrix cap",
    "edges": "the edge cap",
    "incidences": "the incidence cap",
}


def cap(name: str) -> int:
    """Entry ``name`` of CAPS, or QUEENS_LAB_CAP for "count" and "board"."""
    raw = os.environ.get(_ENV_CAP) if name in ("count", "board") else None
    if raw is None:
        return CAPS[name]
    try:
        value = int(raw)
    except ValueError as exc:
        raise SizeLimitError(f"{_ENV_CAP} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SizeLimitError(f"{_ENV_CAP} must be >= 1, got {value}")
    return value


def check_cap(name: str, size: int, what: str) -> None:
    """Refuse ``size`` above the cap ``name`` with SizeLimitError."""
    limit = cap(name)
    if size > limit:
        raise SizeLimitError(f"{what} exceeds {_CAP_NAMES.get(name, 'cap')} {limit}")


def check_threads(threads: int) -> None:
    """Refuse a worker count that is not an int >= 1, bool included."""
    if type(threads) is not int or threads < 1:
        raise InvalidConfigError(f"threads must be an integer >= 1, got {threads!r}")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (so cpusets and taskset count), else the CPU count,
    1 when that is unknown.  Pools are clamped to it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FlipError(QueensLabError):
    """A flip operation was applied outside its domain."""

    code = "flip-error"


class GreedyExhaustionError(FlipError):
    """The greedy pass ran out of disjoint flips; carries the count reached."""

    code = "greedy-exhausted"

    def __init__(self, requested: int, achieved: int):
        super().__init__(
            f"only {achieved} pairwise-disjoint flips reachable, {requested} requested"
        )
        self.requested = requested
        self.achieved = achieved

    def __reduce__(self):
        return type(self), (self.requested, self.achieved)


class ReconstructionError(FlipError):
    """A modified board is not reachable from the base by disjoint flips."""

    code = "reconstruction-error"

    def __init__(self, queen, message: str):
        super().__init__(f"queen at {tuple(queen)}: {message}")
        self.queen = queen
        self.message = message

    def __reduce__(self):
        return type(self), (self.queen, self.message)


class InternalConsistencyError(QueensLabError):
    """An internal algebraic identity failed; indicates a bug, never user input."""

    code = "internal-consistency"


class InvalidHypergraphError(QueensLabError):
    """A hypergraph or constructor input violates its structural contract."""

    code = "invalid-hypergraph"


class IrregularHypergraphError(QueensLabError):
    """An operation requiring a regular uniform hypergraph got an irregular one."""

    code = "irregular-hypergraph"


class SearchBudgetError(QueensLabError):
    """An exact search exceeded its node budget; carries nodes visited."""

    code = "search-budget"

    def __init__(self, nodes_visited: int, budget: int):
        super().__init__(
            f"search exceeded node budget ({nodes_visited} nodes, budget {budget})"
        )
        self.nodes_visited = nodes_visited
        self.budget = budget

    def __reduce__(self):
        return type(self), (self.nodes_visited, self.budget)


class QuadratureError(QueensLabError):
    """An enclosure request that is malformed or needs more evaluations than the cap."""

    code = "quadrature-error"
