"""Uniform hypergraphs, combinatorial reductions, and exact perfect
matching counts.

Several exact-cover style problems reduce to counting perfect matchings
in a d-uniform k-regular hypergraph with small codegrees: toroidal
queens placements, Latin square transversals, Sudoku squares, Steiner
systems, and decompositions of the flip structure itself.  The builders
here produce those hypergraphs, ``stats`` measures (d, k, codegrees)
exactly, ``count_perfect_matchings`` counts exact covers, and
``entropy_bound_log`` returns the log of the matching upper bound
(k / e^(d-1))^(n/d) as a float.  The vertex count and vertex ids are
plain ints: a float or bool one is refused when the hypergraph is built.

The exact-cover search reads bitmask tables built straight from the
edge lists: each edge's vertex set, the edges through each vertex, and
the edges meeting each edge.  It keeps the uncovered vertices and the
edges still usable, ``alive``, as bitmasks.  Each node branches on the
uncovered vertex with the fewest alive edges, the lowest id on ties
(Knuth's column choice in *Dancing Links*, arXiv cs/0011047), and
returns 0 as soon as some uncovered vertex has none; a child drops the
edges meeting its chosen edge with one AND against a precomputed
conflict row.  Every candidate edge of every node is one node of the
count.  A node charges all its candidates to the budget at once, and an
overrun raises SearchBudgetError(budget + 1, budget), the error of
trying the edges one at a time.  A vertex with one candidate is covered
in the same call, and a child that covers every vertex counts 1 without
a call.  The branching choice reads only vertex ids and edge sets, so
the node count does not depend on edge order.  When the gcd of the edge
sizes does not divide the vertex count, no perfect matching exists and
nothing is searched.

With ``threads`` > 1 the root's subtrees go to a process pool whose class
is imported on the first fan-out, one per free worker.  Each worker
searches its subtree with the budget left after the root's candidates,
its share; an overrun comes back as the picklable SearchBudgetError.
Once an overrun or the finished subtrees' nodes pass the budget, no
subtree starts and the parent raises the serial
SearchBudgetError(budget + 1, budget).  Only ``build_flip_hg`` imports the construction and flip
modules, so the other builders load neither.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, gcd, log
from typing import NamedTuple

from .errors import (
    InvalidHypergraphError,
    IrregularHypergraphError,
    SearchBudgetError,
    SizeLimitError,
    cap,
    check_cap,
    check_threads,
    usable_cpus,
)

# concurrent.futures.ProcessPoolExecutor, imported on the first fan-out.
ProcessPoolExecutor = None


def _capped_comb(n: int, r: int, limit: int) -> int:
    """comb(n, r) when it is at most ``limit``, else some value above it.

    The running product comb(n - r + i, i), i = 1 .. min(r, n - r), grows
    by (n - r + i) / i >= 2 a step, so it passes ``limit`` within about
    log2(limit) steps instead of computing a huge binomial.
    """
    r = min(r, n - r)
    c = 1
    for i in range(1, r + 1):
        c = c * (n - r + i) // i
        if c > limit:
            break
    return c


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a duplicate-free list of sorted edges."""

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.num_vertices) is not int:  # type, as True is an int too
            raise InvalidHypergraphError(f"vertex count {self.num_vertices!r} is not an integer")
        if self.num_vertices < 0:
            raise InvalidHypergraphError(f"negative vertex count {self.num_vertices}")
        # One C-driven pass; bool is refused too, as True would stand for 1.
        if not set(map(type, chain.from_iterable(self.edges))) <= {int}:
            raise InvalidHypergraphError("vertex ids must be integers")
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        seen: set[tuple[int, ...]] = set()
        for e in edges:
            if not e:
                raise InvalidHypergraphError("empty edge")
            if len(set(e)) != len(e):
                raise InvalidHypergraphError(f"edge {e} repeats a vertex")
            if e[0] < 0 or e[-1] >= self.num_vertices:
                raise InvalidHypergraphError(f"edge {e} out of vertex range")
            if e in seen:
                raise InvalidHypergraphError(f"duplicate edge {e}")
            seen.add(e)


@dataclass(frozen=True)
class HypergraphStats:
    num_vertices: int
    num_edges: int
    d: int | None
    is_regular: bool
    k: int | None
    max_codegree: int


def build_torus_queens_hg(n: int) -> Hypergraph:
    """Toroidal board as a 4-uniform hypergraph: one vertex per row,
    column, and wrap-around diagonal of each family, one edge per square.

    Perfect matchings are exactly the toroidal solutions.  Vertex id
    layout: rows 0..n-1, columns n..2n-1, plus-diagonals 2n..3n-1,
    minus-diagonals 3n..4n-1.
    """
    if n < 1:
        raise InvalidHypergraphError(f"board size must be >= 1, got {n}")
    check_cap("edges", n * n, f"torus board of size {n}")
    edges = []
    for x in range(n):
        for y in range(n):
            edges.append((y, n + x, 2 * n + (x + y) % n, 3 * n + (x - y) % n))
    return Hypergraph(4 * n, tuple(edges))


def validate_latin_square(latin: list[list[int]]) -> int:
    """Check the row/column Latin property; returns the order."""
    n = len(latin)
    if n < 1:
        raise InvalidHypergraphError("Latin square must have order >= 1")
    symbols = set(range(n))
    for i, row in enumerate(latin):
        if len(row) != n:
            raise InvalidHypergraphError(f"row {i} has length {len(row)}, expected {n}")
        if set(map(type, row)) != {int} or set(row) != symbols:
            raise InvalidHypergraphError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = [latin[i][j] for i in range(n)]
        if set(col) != symbols:
            raise InvalidHypergraphError(f"column {j} is not a permutation of 0..{n - 1}")
    return n


def cyclic_latin_square(n: int) -> list[list[int]]:
    check_cap("edges", max(n, 0) ** 2, f"cyclic Latin square of order {n}")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def build_transversal_hg(latin: list[list[int]]) -> Hypergraph:
    """Latin square as a 3-uniform hypergraph over rows, columns and
    symbols; perfect matchings are exactly the transversals."""
    n = validate_latin_square(latin)
    edges = []
    for i in range(n):
        for j in range(n):
            edges.append((i, n + j, 2 * n + latin[i][j]))
    return Hypergraph(3 * n, tuple(edges))


def build_sudoku_hg(b: int) -> Hypergraph:
    """Order-b^2 Sudoku as a 4-uniform hypergraph.

    Vertex classes are the constraint pairs (row, column),
    (column, symbol), (row, symbol) and (box, symbol), n^2 vertices each;
    one edge per (cell, symbol) choice gives n^3 edges.  Perfect
    matchings are exactly the completed Sudoku squares.
    """
    if b < 2:
        raise InvalidHypergraphError(f"box size must be >= 2, got {b}")
    check_cap("edges", b**6, f"Sudoku of box size {b}")
    n = b * b
    nn = n * n
    edges = []
    for r in range(n):
        for c in range(n):
            box = (r // b) * b + c // b
            for s in range(n):
                edges.append((r * n + c, nn + c * n + s, 2 * nn + r * n + s, 3 * nn + box * n + s))
    return Hypergraph(4 * nn, tuple(edges))


def build_steiner_aux_hg(n: int, q: int, r: int) -> Hypergraph:
    """Auxiliary hypergraph whose perfect matchings are the
    (n, q, r)-Steiner systems: r-subsets as vertices, one edge per
    q-subset bundling all its r-subsets, comb(n, q) * comb(q, r)
    incidences in all."""
    if not 0 < r < q < n:
        raise InvalidHypergraphError(f"need 0 < r < q < n, got ({n}, {q}, {r})")
    for size in (r, q):
        check_cap("edges", _capped_comb(n, size, cap("edges")), f"({n},{q},{r})")
    # Both binomials are within the edge cap now, and comb(q, r) <= comb(n, r),
    # so these two are cheap to compute exactly.
    incidences = comb(n, q) * comb(q, r)
    check_cap("incidences", incidences, f"({n},{q},{r}) with {incidences} incidences")
    r_sets = list(combinations(range(n), r))
    index = {s: i for i, s in enumerate(r_sets)}
    edges = []
    for f in combinations(range(n), q):
        edges.append(tuple(sorted(index[s] for s in combinations(f, r))))
    return Hypergraph(len(r_sets), tuple(edges))


def build_flip_hg(k: int) -> Hypergraph:
    """Flip structure of the base configuration: queens (indexed by row)
    as vertices, the removed quadruple of each flip as an edge.

    The result is 4-uniform and (n-1)-regular.  Its vertex count
    n = 4^k + 1 is never divisible by 4, so it has no perfect matching;
    it is kept as a regularity and codegree test case.
    """
    from .construction import BaseParams
    from .flips import _all_flips, _verify_balance

    params = BaseParams(k)
    edges = tuple(_all_flips(params, _verify_balance))
    return Hypergraph(params.n, edges)


def stats(hg: Hypergraph) -> HypergraphStats:
    """Exact uniformity, regularity, degree and maximum codegree.

    The codegrees are tallied over every vertex pair within an edge,
    sum C(|e|, 2) pairs, so that sum is checked against the "incidences"
    cap before any is tallied.  They are tallied one vertex u at a time,
    over the vertices v > u of the edges through u, so only u's
    codegrees are held at once.
    """
    sizes = {len(e) for e in hg.edges}
    pairs = sum(size * (size - 1) // 2 for size in map(len, hg.edges))
    check_cap("incidences", pairs, f"hypergraph stats over {pairs} codegree pairs")
    d = min(sizes) if len(sizes) == 1 else None
    degrees = [0] * hg.num_vertices
    # The edges through each vertex that has a larger vertex beside it.
    through: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    for e in hg.edges:
        for v in e:
            degrees[v] += 1
        for v in e[:-1]:
            through[v].append(e)
    max_codegree = 0
    for u, edges in through.items():
        codegree = Counter(chain.from_iterable(e[e.index(u) + 1 :] for e in edges))
        max_codegree = max(max_codegree, max(codegree.values()))
    distinct = set(degrees) if degrees else {0}
    is_regular = len(distinct) == 1
    return HypergraphStats(
        num_vertices=hg.num_vertices,
        num_edges=len(hg.edges),
        d=d,
        is_regular=is_regular,
        k=distinct.pop() if is_regular else None,
        max_codegree=max_codegree,
    )


def relabel_vertices(hg: Hypergraph, mapping: list[int]) -> Hypergraph:
    """Apply a vertex-id permutation; matching counts are invariant."""
    if sorted(mapping) != list(range(hg.num_vertices)):
        raise InvalidHypergraphError("mapping is not a permutation of the vertex ids")
    return Hypergraph(
        hg.num_vertices,
        tuple(tuple(sorted(mapping[v] for v in e)) for e in hg.edges),
    )


class _CoverTables(NamedTuple):
    """What the exact-cover search reads, built once per instance.

    ``masks[i]`` is edge i as a vertex bitmask, ``incident[v]`` the edges
    through vertex v and ``conflict[i]`` the edges sharing a vertex with
    edge i (edge i included), both as bitmasks over edge indices.
    """

    full: int
    masks: list[int]
    incident: list[int]
    conflict: list[int]


def _cover_tables(num_vertices: int, edges: tuple[tuple[int, ...], ...]) -> _CoverTables:
    incident = [0] * num_vertices
    for i, e in enumerate(edges):
        for v in e:
            incident[v] |= 1 << i
    masks, conflict = [], []
    for e in edges:
        m = c = 0
        for v in e:
            m |= 1 << v
            c |= incident[v]
        masks.append(m)
        conflict.append(c)
    return _CoverTables((1 << num_vertices) - 1, masks, incident, conflict)


def _fewest_candidates(incident: list[int], free: int, alive: int) -> int:
    """The ``alive`` edges through the vertex of ``free`` that has the
    fewest of them, the lowest id on ties, as a bitmask over edge indices;
    0 as soon as some vertex of ``free`` has none."""
    best, fewest = 0, alive.bit_length() + 1
    while free:
        low = free & -free
        free ^= low
        cand = incident[low.bit_length() - 1] & alive
        size = cand.bit_count()
        if size < fewest:
            if not size:
                return 0
            best, fewest = cand, size
            if size == 1:
                break
    return best


def _cover_search(
    tables: _CoverTables, uncovered: int, alive: int, budget: int
) -> tuple[int, int]:
    """Count the exact covers of the vertices ``uncovered`` by the edges of
    ``alive``, each of which lies within ``uncovered``, as (count, nodes);
    every candidate edge of every node is a node.

    Branches on the uncovered vertex with the fewest alive edges, the
    lowest id on ties (Knuth's column choice), so the search tree, and
    with it the node count, does not depend on edge order.  A node
    charges all its candidates to the budget at once and raises
    SearchBudgetError(budget + 1, budget) when they pass it, the error of
    trying the first edge past it.  A vertex with one candidate is covered
    in the same call, and a child that covers every vertex counts 1
    without a call.
    """
    _, masks, incident, conflict = tables
    nodes = 0

    # Entered with a nonempty ``uncovered``.  A vertex with one candidate is
    # covered here and the loop moves on, as the one child's call would.
    def rec(uncovered: int, alive: int) -> int:
        nonlocal nodes
        while True:
            cand = _fewest_candidates(incident, uncovered, alive)
            nodes += cand.bit_count()
            if nodes > budget:
                raise SearchBudgetError(nodes_visited=budget + 1, budget=budget)
            if cand & (cand - 1):
                break
            if not cand:
                return 0
            i = cand.bit_length() - 1
            uncovered ^= masks[i]
            if not uncovered:
                return 1
            alive &= ~conflict[i]
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            rest = uncovered ^ masks[i]
            total += rec(rest, alive & ~conflict[i]) if rest else 1
        return total

    count = rec(uncovered, alive) if uncovered else 1
    del rec  # rec holds itself through its closure; this breaks the cycle
    return count, nodes


def count_perfect_matchings(hg: Hypergraph, threads: int = 1) -> int:
    """Exact number of edge subsets partitioning the vertex set.

    The edges of a perfect matching partition the vertices, so their
    sizes sum to the vertex count: when the gcd of the edge sizes does
    not divide it, the answer is 0 without a search.  Otherwise an exact
    cover search branches on the uncovered vertex with the fewest
    candidate edges (the lowest id on ties) and raises SearchBudgetError
    once its nodes, the candidate edges of every vertex it branches on,
    pass the "nodes" cap, read at call time.  An instance whose search
    tables would exceed the "table_bits" cap is refused with
    SizeLimitError first.  With ``threads`` > 1 the
    subtrees below the root's candidate edges are counted in a process
    pool of at most one worker per subtree and per CPU.  The root's
    candidates plus the subtree nodes are the serial node count, and the
    budget applies to that total: a subtree's overrun or a larger total
    raises the serial error, so the result or error does not depend on
    ``threads``.  No subtree starts once the finished ones pass the
    budget, so the pool searches at most workers x (share + 1) nodes past
    it, the share being the budget less the root's candidates.  A
    ``threads`` that is not an int >= 1 is refused with InvalidConfigError
    before anything is searched.
    """
    check_threads(threads)
    if hg.num_vertices == 0:
        return 1
    size_gcd = gcd(*map(len, hg.edges))
    if not size_gcd or hg.num_vertices % size_gcd:
        return 0
    num_edges = len(hg.edges)
    bits = num_edges * (num_edges + 2 * hg.num_vertices)
    limit = cap("table_bits")
    if bits > limit:
        raise SizeLimitError(
            f"perfect-matching search over {num_edges} edges and {hg.num_vertices} "
            f"vertices needs {bits} table bits, above the cap {limit}"
        )
    budget = cap("nodes")
    tables = _cover_tables(hg.num_vertices, hg.edges)
    alive = (1 << num_edges) - 1
    first = _fewest_candidates(tables.incident, tables.full, alive)
    workers = min(threads, first.bit_count(), usable_cpus())
    if workers > 1:
        edges = [i for i in range(num_edges) if first >> i & 1]
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import FIRST_COMPLETED, wait

        share = budget - len(edges)
        nodes, count = len(edges), 0
        subtrees = ((tables.full ^ tables.masks[i], alive & ~tables.conflict[i]) for i in edges)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            running = set()
            while nodes <= budget:
                for uncovered, live in islice(subtrees, workers - len(running)):
                    running.add(pool.submit(_cover_search, tables, uncovered, live, share))
                if not running:
                    return count
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        found, searched = future.result()
                    except SearchBudgetError:  # the subtree overran its share
                        found, searched = 0, share + 1
                    count += found
                    nodes += searched
        # Over budget: the subtrees still running finished as the pool closed.
        raise SearchBudgetError(nodes_visited=budget + 1, budget=budget)
    count, _ = _cover_search(tables, tables.full, alive, budget)
    return count


def entropy_bound_log(hg_stats: HypergraphStats) -> float:
    """Log of the perfect-matching upper bound (k / e^(d-1))^(n/d) for a
    d-uniform k-regular hypergraph on n vertices (vanishing-order factor
    dropped)."""
    if not hg_stats.is_regular or hg_stats.d is None:
        raise IrregularHypergraphError(
            "matching bound requires a regular uniform hypergraph"
        )
    if hg_stats.k is None or hg_stats.k < 1:
        raise IrregularHypergraphError(f"degree must be >= 1, got {hg_stats.k}")
    n, d = hg_stats.num_vertices, hg_stats.d
    return (n / d) * (log(hg_stats.k) - (d - 1))


def to_json(hg: Hypergraph) -> str:
    """Exchange format: {"n": <vertices>, "edges": [[ids] ...]}."""
    return json.dumps(
        {"n": hg.num_vertices, "edges": [list(e) for e in hg.edges]},
        separators=(",", ":"),
    )


def from_json(text: str) -> Hypergraph:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidHypergraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "n" not in raw or "edges" not in raw:
        raise InvalidHypergraphError('expected an object with "n" and "edges"')
    if not isinstance(raw["n"], int) or isinstance(raw["n"], bool):
        raise InvalidHypergraphError('field "n": must be an integer')
    if not isinstance(raw["edges"], list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in raw["edges"]
    ):
        raise InvalidHypergraphError('field "edges": must be an array of integer arrays')
    num_edges = len(raw["edges"])
    check_cap("edges", raw["n"], f'hypergraph JSON with {raw["n"]} vertices')
    check_cap("edges", num_edges, f"hypergraph JSON with {num_edges} edges")
    return Hypergraph(raw["n"], tuple(tuple(e) for e in raw["edges"]))
