import math
import random
import time
from collections import Counter

import pytest

from queens_lab import errors, flips, hypergraph
from queens_lab.construction import BaseParams
from queens_lab.counting import count_toroidal
from queens_lab.errors import (
    InvalidConfigError,
    InvalidHypergraphError,
    IrregularHypergraphError,
    SearchBudgetError,
    SizeLimitError,
)
from queens_lab.hypergraph import (
    Hypergraph,
    build_flip_hg,
    build_steiner_aux_hg,
    build_sudoku_hg,
    build_torus_queens_hg,
    build_transversal_hg,
    count_perfect_matchings,
    cyclic_latin_square,
    entropy_bound_log,
    from_json,
    relabel_vertices,
    stats,
    to_json,
)

from helpers import (
    brute_force_perfect_matchings,
    cover_count,
    independent_sts_count,
    independent_sudoku_count,
    independent_transversal_count,
    recording_pool,
)


def test_container_validation():
    with pytest.raises(InvalidHypergraphError, match="duplicate"):
        Hypergraph(3, ((0, 1), (1, 0)))
    with pytest.raises(InvalidHypergraphError, match="range"):
        Hypergraph(2, ((0, 2),))
    with pytest.raises(InvalidHypergraphError, match="repeats"):
        Hypergraph(3, ((1, 1),))
    with pytest.raises(InvalidHypergraphError, match="empty"):
        Hypergraph(3, ((),))
    hg = Hypergraph(3, ((2, 0, 1),))
    assert hg.edges == ((0, 1, 2),)


def test_float_vertex_is_refused_before_any_count():
    with pytest.raises(InvalidHypergraphError, match="vertex ids must be integers"):
        count_perfect_matchings(Hypergraph(2, ((0, 1.0),)))


@pytest.mark.parametrize(
    "call, num_vertices, edges",
    [(count_perfect_matchings, True, ((0,),)), (stats, 2.0, ((0, 1),))],
    ids=["bool", "float"],
)
def test_vertex_count_must_be_a_plain_int(call, num_vertices, edges):
    # True would stand for one vertex, and 2.0 for a list length.
    with pytest.raises(InvalidHypergraphError, match="vertex count .* is not an integer"):
        call(Hypergraph(num_vertices, edges))


def test_relabelling_to_a_float_vertex_is_refused():
    # 7.0 == 7, so the mapping passes the permutation check.
    with pytest.raises(InvalidHypergraphError, match="vertex ids must be integers"):
        relabel_vertices(build_torus_queens_hg(2), [0, 1, 2, 3, 4, 5, 6, 7.0])


def test_bool_vertex_does_not_stand_for_its_int():
    with pytest.raises(InvalidHypergraphError, match="vertex ids must be integers"):
        Hypergraph(2, ((0,), (True,)))


def test_torus_stats():
    s = stats(build_torus_queens_hg(5))
    assert (s.num_vertices, s.num_edges, s.d, s.k) == (20, 25, 4, 5)
    assert s.is_regular
    assert s.max_codegree == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_torus_matchings_equal_toroidal_count(n):
    hg = build_torus_queens_hg(n)
    assert count_perfect_matchings(hg) == count_toroidal(n).count


def test_transversal_stats_and_count():
    latin = cyclic_latin_square(3)
    hg = build_transversal_hg(latin)
    s = stats(hg)
    assert (s.num_vertices, s.num_edges, s.d, s.k, s.max_codegree) == (9, 9, 3, 3, 1)
    assert count_perfect_matchings(hg) == independent_transversal_count(latin) == 3


def test_transversal_order_two_has_none():
    latin = cyclic_latin_square(2)
    assert count_perfect_matchings(build_transversal_hg(latin)) == 0
    assert independent_transversal_count(latin) == 0


def test_transversal_rejects_bad_latin_square():
    with pytest.raises(InvalidHypergraphError, match="row 0"):
        build_transversal_hg([[0, 0], [1, 1]])
    with pytest.raises(InvalidHypergraphError, match="column 0"):
        build_transversal_hg([[0, 1], [0, 1]])
    with pytest.raises(InvalidHypergraphError, match="row 0"):
        build_transversal_hg([[0.0, 1], [1, 0]])


def test_sudoku_stats_and_count():
    hg = build_sudoku_hg(2)
    s = stats(hg)
    assert (s.num_vertices, s.num_edges, s.d, s.k) == (64, 64, 4, 4)
    assert s.max_codegree <= 2
    assert count_perfect_matchings(hg) == independent_sudoku_count(2) == 288


def test_steiner_stats_and_count():
    hg = build_steiner_aux_hg(7, 3, 2)
    s = stats(hg)
    assert (s.num_vertices, s.num_edges, s.d, s.k) == (21, 35, 3, 5)
    # Two point-pairs lie in a common triple only when their union has 3 points.
    assert s.max_codegree == 1
    assert count_perfect_matchings(hg) == independent_sts_count(7) == 30


def test_steiner_no_system_on_six_points():
    assert count_perfect_matchings(build_steiner_aux_hg(6, 3, 2)) == 0


def test_steiner_guards(monkeypatch):
    with pytest.raises(InvalidHypergraphError):
        build_steiner_aux_hg(5, 3, 3)
    monkeypatch.setitem(errors.CAPS, "edges", 1000)
    with pytest.raises(SizeLimitError):
        build_steiner_aux_hg(60, 5, 2)


def test_steiner_size_is_refused_before_the_binomial():
    start = time.process_time()
    with pytest.raises(SizeLimitError, match=r"\(1000000,500001,500000\) exceeds the edge cap"):
        build_steiner_aux_hg(10**6, 500001, 500000)
    assert time.process_time() - start < 1.0


def test_steiner_incidences_are_refused_before_the_build(monkeypatch):
    # (20, 10, 5) passes both binomial checks (184 756 edges over 15 504
    # vertices), but each edge bundles comb(10, 5) = 252 vertices.
    start = time.process_time()
    refusal = r"^\(20,10,5\) with 46558512 incidences exceeds the incidence cap 10000000$"
    with pytest.raises(SizeLimitError, match=refusal):
        build_steiner_aux_hg(20, 10, 5)
    assert time.process_time() - start < 1.0
    # (7, 3, 2): 35 edges of 3 vertices each.
    monkeypatch.setitem(errors.CAPS, "incidences", 105)
    assert len(build_steiner_aux_hg(7, 3, 2).edges) == 35
    monkeypatch.setitem(errors.CAPS, "incidences", 104)
    with pytest.raises(SizeLimitError, match=r"^\(7,3,2\) with 105 incidences exceeds"):
        build_steiner_aux_hg(7, 3, 2)


def test_stats_codegree_pairs_are_refused_before_the_tally(monkeypatch):
    # One edge through 4 473 vertices holds comb(4473, 2) = 10 001 628 pairs.
    wide = Hypergraph(4473, (tuple(range(4473)),))
    start = time.process_time()
    refusal = "^hypergraph stats over 10001628 codegree pairs exceeds the incidence cap 10000000$"
    with pytest.raises(SizeLimitError, match=refusal):
        stats(wide)
    assert time.process_time() - start < 1.0
    # Torus-5: 25 edges of 4 vertices, 6 pairs each.
    torus = build_torus_queens_hg(5)
    monkeypatch.setitem(errors.CAPS, "incidences", 150)
    assert stats(torus).max_codegree == 1
    monkeypatch.setitem(errors.CAPS, "incidences", 149)
    with pytest.raises(SizeLimitError, match="^hypergraph stats over 150 codegree pairs exceeds"):
        stats(torus)


def test_capped_comb_is_exact_up_to_the_cap():
    for n in range(1, 25):
        for r in range(n + 1):
            for cap in (0, 1, 5, 100, math.comb(n, r) - 1, math.comb(n, r)):
                got = hypergraph._capped_comb(n, r, cap)
                assert got == math.comb(n, r) if math.comb(n, r) <= cap else got > cap


# (builder, its argument, the edge or vertex count it is checked at)
CAPPED_BUILDERS = [
    (build_torus_queens_hg, 5, 25),
    (cyclic_latin_square, 3, 9),
    (build_sudoku_hg, 2, 64),
    (build_flip_hg, 2, 68),
    (from_json, '{"n":7,"edges":[]}', 7),
    # 21 vertices, 35 edges
    (from_json, to_json(build_steiner_aux_hg(7, 3, 2)), 35),
]


@pytest.mark.parametrize(
    "build, arg, size",
    CAPPED_BUILDERS,
    ids=["torus", "cyclic-latin", "sudoku", "flip", "json-vertices", "json-edges"],
)
def test_builders_check_the_edge_cap(monkeypatch, build, arg, size):
    monkeypatch.setitem(errors.CAPS, "edges", size)
    build(arg)
    monkeypatch.setitem(errors.CAPS, "edges", size - 1)
    with pytest.raises(SizeLimitError, match="exceeds the edge cap"):
        build(arg)


def test_flip_hypergraph():
    hg1 = build_flip_hg(1)
    s1 = stats(hg1)
    assert (s1.num_vertices, s1.num_edges, s1.d, s1.k) == (5, 5, 4, 4)
    # The 5 edges are the five 4-subsets of the queens, so every vertex
    # pair lies in exactly 3 of them.
    assert s1.max_codegree == 3
    # 5 vertices cannot be covered by 4-element edges.
    assert count_perfect_matchings(hg1) == 0
    s2 = stats(build_flip_hg(2))
    assert (s2.num_vertices, s2.num_edges, s2.d, s2.k) == (17, 68, 4, 16)
    assert s2.max_codegree == 3


@pytest.mark.parametrize("k", range(1, 5))
def test_flip_hypergraph_edges_are_the_rows_of_the_enumerated_flips(k):
    expected = tuple(tuple(sorted(f.rows)) for f in flips.enumerate_flips(BaseParams(k)))
    assert build_flip_hg(k).edges == expected


def test_flip_hypergraph_checks_every_quadruple_and_builds_no_flip(monkeypatch):
    checked = []
    verify = flips._verify_balance

    def counted(params, rows):
        checked.append(rows)
        return verify(params, rows)

    def refuse(params, rows):
        raise AssertionError("Flip built")

    monkeypatch.setattr(flips, "_verify_balance", counted)
    monkeypatch.setattr(flips, "_flip", refuse)
    assert len(build_flip_hg(2).edges) == len(set(checked)) == len(checked) == 68
    checked.clear()
    monkeypatch.setitem(errors.CAPS, "edges", 67)
    with pytest.raises(SizeLimitError, match="68 flips"):
        build_flip_hg(2)
    assert checked == []


@pytest.mark.parametrize(
    "hg",
    [
        build_torus_queens_hg(5),
        build_transversal_hg(cyclic_latin_square(3)),
        build_sudoku_hg(2),
        build_steiner_aux_hg(7, 3, 2),
        build_flip_hg(2),
    ],
    ids=["torus", "transversal", "sudoku", "steiner", "flip"],
)
def test_double_counting(hg):
    s = stats(hg)
    assert s.is_regular
    assert s.num_vertices * s.k == s.d * s.num_edges


def test_stats_match_a_brute_force_pair_count():
    for seed in range(200):
        rng = random.Random(seed)
        num_vertices = rng.randrange(1, 12)
        edges = {
            tuple(sorted(rng.sample(range(num_vertices), rng.randint(1, num_vertices))))
            for _ in range(rng.randrange(15))
        }
        hg = Hypergraph(num_vertices, tuple(edges))
        max_codegree = max(
            (sum(u in e and v in e for e in edges) for u in range(num_vertices) for v in range(u)),
            default=0,
        )
        degrees = {sum(v in e for e in edges) for v in range(num_vertices)}
        s = stats(hg)
        assert s.max_codegree == max_codegree, seed
        assert s.is_regular == (len(degrees) == 1), seed
        assert s.k == (degrees.pop() if s.is_regular else None), seed


def test_non_uniform_stats():
    s = stats(Hypergraph(3, ((0, 1), (0, 1, 2))))
    assert s.d is None
    assert not s.is_regular


def test_matching_count_relabeling_invariance():
    for hg, expected in ((build_torus_queens_hg(5), 10), (build_steiner_aux_hg(7, 3, 2), 30)):
        for seed in range(10):
            mapping = list(range(hg.num_vertices))
            random.Random(seed).shuffle(mapping)
            assert count_perfect_matchings(relabel_vertices(hg, mapping)) == expected


def test_relabel_requires_permutation():
    with pytest.raises(InvalidHypergraphError):
        relabel_vertices(build_torus_queens_hg(2), [0] * 8)


def test_matching_threads_agree():
    hg = build_sudoku_hg(2)
    assert count_perfect_matchings(hg, threads=2) == 288
    assert count_perfect_matchings(build_torus_queens_hg(7), threads=2) == 28


def test_matching_budget(monkeypatch):
    monkeypatch.setitem(errors.CAPS, "nodes", 5)
    with pytest.raises(SearchBudgetError) as info:
        count_perfect_matchings(build_sudoku_hg(2))
    assert info.value.nodes_visited > 5


def _outcome(hg, max_nodes, threads):
    """The count, or the budget error, with the "nodes" cap at ``max_nodes``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(errors.CAPS, "nodes", max_nodes)
        try:
            return count_perfect_matchings(hg, threads=threads)
        except SearchBudgetError as exc:
            return ("budget", exc.nodes_visited, exc.budget)


@pytest.mark.parametrize("hg", [build_sudoku_hg(2), build_torus_queens_hg(5)])
def test_matching_budget_does_not_depend_on_threads(hg):
    _, serial_nodes = cover_count(hg.num_vertices, hg.edges)
    first_level = sum(e[0] == 0 for e in hg.edges)
    budgets = {0, first_level - 1, first_level, 2000}
    budgets |= {serial_nodes - 1, serial_nodes, serial_nodes + 1}
    for max_nodes in sorted(budgets):
        serial = _outcome(hg, max_nodes, threads=1)
        assert _outcome(hg, max_nodes, threads=2) == serial
        if max_nodes < serial_nodes:
            assert serial == ("budget", max_nodes + 1, max_nodes)
        else:
            assert isinstance(serial, int)


def _irregular_torus():
    """Torus-5 plus one edge through vertices 0, 6, 12 and 18 (not a square
    of the board), so vertex 0 has six candidates and vertex 1 five."""
    torus = build_torus_queens_hg(5)
    return Hypergraph(torus.num_vertices, torus.edges + ((0, 6, 12, 18),))


def test_pool_splits_on_the_serial_root_vertex():
    hg = _irregular_torus()
    tables = hypergraph._cover_tables(hg.num_vertices, hg.edges)
    first = hypergraph._fewest_candidates(tables.incident, tables.full, (1 << len(hg.edges)) - 1)
    assert first == tables.incident[1] != tables.incident[0]
    first_level = first.bit_count()
    count, serial_nodes = cover_count(hg.num_vertices, hg.edges)
    assert count == count_perfect_matchings(hg) >= 10
    budgets = {0, first_level - 1, first_level, first_level + 1, serial_nodes // 2}
    budgets |= {serial_nodes - 1, serial_nodes, serial_nodes + 1}
    for max_nodes in sorted(budgets):
        serial = _outcome(hg, max_nodes, threads=1)
        assert _outcome(hg, max_nodes, threads=2) == serial
        if max_nodes < serial_nodes:
            assert serial == ("budget", max_nodes + 1, max_nodes)
        else:
            assert serial == count


def test_pooled_search_stops_near_its_budget(monkeypatch):
    # The order-11 cyclic transversal: 215 646 nodes below 11 root
    # candidates.  With a budget of a quarter of that, every subtree used
    # to get the whole budget, and the pool searched all 215 635 subtree
    # nodes before it raised.
    hg = build_transversal_hg(cyclic_latin_square(11))
    budget, workers, roots = 53_911, 2, 11
    share = budget - roots
    searched = []
    search = hypergraph._cover_search

    def counted(tables, cover, alive, limit):
        try:
            count, nodes = search(tables, cover, alive, limit)
        except SearchBudgetError as exc:
            searched.append(exc.nodes_visited)
            raise
        searched.append(nodes)
        return count, nodes

    monkeypatch.setattr(hypergraph, "_cover_search", counted)
    monkeypatch.setattr(hypergraph, "ProcessPoolExecutor", recording_pool(sizes := []))
    monkeypatch.setattr(hypergraph, "usable_cpus", lambda: 64)
    serial = _outcome(hg, budget, threads=1)
    assert serial == ("budget", budget + 1, budget) and searched == [budget + 1]
    searched.clear()
    assert _outcome(hg, budget, threads=workers) == serial
    assert sizes == [workers]
    assert all(nodes <= share + 1 for nodes in searched)
    assert budget - roots < sum(searched) <= budget + workers * share
    assert len(searched) < roots


def _random_hypergraph(rng, max_vertices=9, max_edges=14):
    """Up to ``max_vertices`` vertices and ``max_edges`` distinct edges of
    sizes 1 to 4 (uniform for some seeds); vertices in no edge stay
    isolated."""
    num_vertices = rng.randint(1, max_vertices)
    sizes = [rng.randint(1, min(4, num_vertices))] if rng.random() < 0.3 else range(1, 5)
    sizes = [d for d in sizes if d <= num_vertices]
    edges = {
        tuple(sorted(rng.sample(range(num_vertices), rng.choice(sizes))))
        for _ in range(rng.randint(0, max_edges))
    }
    return Hypergraph(num_vertices, tuple(sorted(edges)))


def _assert_tables_match_their_definition(num_vertices, edges):
    """Each table entry recomputed from the edge sets, one pair at a time."""
    tables = hypergraph._cover_tables(num_vertices, edges)
    assert tables.full == (1 << num_vertices) - 1
    assert tables.masks == [sum(1 << v for v in e) for e in edges]
    assert tables.incident == [
        sum(1 << i for i, e in enumerate(edges) if v in e) for v in range(num_vertices)
    ]
    assert tables.conflict == [
        sum(1 << j for j, f in enumerate(edges) if set(e) & set(f)) for e in edges
    ]


_NAMED_COVER_CASES = {
    "torus-7": build_torus_queens_hg(7),
    "sudoku-2": build_sudoku_hg(2),
    "transversal-5": build_transversal_hg(cyclic_latin_square(5)),
    "steiner-9-3-2": build_steiner_aux_hg(9, 3, 2),
}
_RANDOM_COVER_CASES = {
    f"random-{seed}": _random_hypergraph(random.Random(seed), 12, 20) for seed in range(50)
}


@pytest.mark.parametrize(
    "hg",
    [*_NAMED_COVER_CASES.values(), *_RANDOM_COVER_CASES.values()],
    ids=[*_NAMED_COVER_CASES, *_RANDOM_COVER_CASES],
)
def test_cover_search_does_not_depend_on_edge_order(hg):
    _assert_tables_match_their_definition(hg.num_vertices, hg.edges)
    expected = cover_count(hg.num_vertices, hg.edges)
    if len(hg.edges) <= 20:  # brute force tries every edge subset
        assert expected[0] == brute_force_perfect_matchings(hg.num_vertices, hg.edges)
    for seed in range(5):
        shuffled = list(hg.edges)
        random.Random(seed).shuffle(shuffled)
        _assert_tables_match_their_definition(hg.num_vertices, shuffled)
        assert cover_count(hg.num_vertices, shuffled) == expected


@pytest.mark.parametrize(
    "hg, expected",
    [
        (build_sudoku_hg(2), (288, 2_156)),
        (build_torus_queens_hg(11), (88, 6_182)),
        (build_torus_queens_hg(13), (4_524, 81_632)),
        (build_transversal_hg(cyclic_latin_square(11)), (37_851, 215_646)),
    ],
    ids=["sudoku-2", "torus-11", "torus-13", "transversal-11"],
)
def test_cover_search_tree_is_pinned(hg, expected):
    # (count, nodes) of the serial search: every candidate edge of every
    # node is one node, so a change to the branching rule or to how forced
    # vertices are followed shows here.
    assert cover_count(hg.num_vertices, hg.edges) == expected


def test_matching_counts_match_brute_force():
    seen = Counter()
    for seed in range(300):
        hg = _random_hypergraph(random.Random(seed))
        expected = brute_force_perfect_matchings(hg.num_vertices, hg.edges)
        assert cover_count(hg.num_vertices, hg.edges)[0] == expected
        assert count_perfect_matchings(hg) == expected
        s = stats(hg)
        seen["matched"] += expected > 0
        seen["irregular"] += not s.is_regular
        seen["non-uniform"] += s.d is None
        seen["isolated vertex"] += len({v for e in hg.edges for v in e}) < hg.num_vertices
    assert min(seen.values()) >= 30, seen


def test_size_gcd_not_dividing_the_vertex_count_means_no_search(monkeypatch):
    flip3 = build_flip_hg(3)  # 65 vertices, 4-element edges
    sizes = []
    monkeypatch.setattr(hypergraph, "ProcessPoolExecutor", recording_pool(sizes))
    start = time.process_time()
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(errors.CAPS, "nodes", 0)
        for threads in (1, 2):
            assert count_perfect_matchings(flip3, threads=threads) == 0
    assert time.process_time() - start < 1.0
    assert sizes == []
    assert count_perfect_matchings(Hypergraph(6, ((0, 1), (2, 3, 4)))) == 0
    assert count_perfect_matchings(Hypergraph(1, ())) == 0


def test_search_tables_are_capped(monkeypatch):
    sudoku = build_sudoku_hg(2)  # 64 edges, 64 vertices
    monkeypatch.setitem(errors.CAPS, "table_bits", 64 * (64 + 2 * 64))
    assert count_perfect_matchings(sudoku) == 288
    monkeypatch.setitem(errors.CAPS, "table_bits", 64 * (64 + 2 * 64) - 1)
    with pytest.raises(SizeLimitError, match="needs 12288 table bits, above the cap 12287"):
        count_perfect_matchings(sudoku)
    # The gcd rule answers before the tables are sized.
    monkeypatch.setitem(errors.CAPS, "table_bits", 0)
    assert count_perfect_matchings(build_flip_hg(1)) == 0


def test_empty_hypergraph_has_one_matching():
    assert count_perfect_matchings(Hypergraph(0, ())) == 1


def test_isolated_vertex_has_none():
    assert count_perfect_matchings(Hypergraph(2, ((1,),))) == 0


def test_entropy_bound_values():
    torus_stats = stats(build_torus_queens_hg(5))
    torus = entropy_bound_log(torus_stats)
    assert torus == pytest.approx(5.0 * (math.log(5) - 3.0))
    assert (torus_stats.num_vertices, torus_stats.k, torus_stats.d) == (20, 5, 4)
    steiner = entropy_bound_log(stats(build_steiner_aux_hg(7, 3, 2)))
    assert steiner == pytest.approx(7.0 * (math.log(5) - 2.0))
    singletons = entropy_bound_log(stats(Hypergraph(3, ((0,), (1,), (2,)))))
    assert singletons == 0.0


def test_entropy_bound_requires_regular():
    irregular = Hypergraph(3, ((0, 1), (0, 2), (0, 1, 2)))
    with pytest.raises(IrregularHypergraphError):
        entropy_bound_log(stats(irregular))


def test_exchange_roundtrip():
    hg = build_transversal_hg(cyclic_latin_square(3))
    text = to_json(hg)
    back = from_json(text)
    assert back.num_vertices == hg.num_vertices
    assert back.edges == hg.edges
    with pytest.raises(InvalidHypergraphError):
        from_json("{}")
    with pytest.raises(InvalidHypergraphError):
        from_json('{"n":2,"edges":[["a"]]}')


@pytest.mark.parametrize("edges", ["[[false,true]]", "[[0,true]]", "[[0,1.0]]"])
def test_from_json_refuses_non_integer_vertex_ids(edges):
    with pytest.raises(InvalidHypergraphError, match='field "edges": must be an array of integer arrays'):
        from_json('{"n":2,"edges":%s}' % edges)


@pytest.mark.parametrize("threads", [1.5, 2.0, 0, -2, True])
def test_matching_threads_must_be_a_positive_int(monkeypatch, threads):
    sizes = []

    def refuse(*args):
        raise AssertionError("search tables built")

    monkeypatch.setattr(hypergraph, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(hypergraph, "_cover_tables", refuse)
    with pytest.raises(InvalidConfigError, match="threads must be an integer >= 1"):
        count_perfect_matchings(build_torus_queens_hg(5), threads=threads)
    assert sizes == []


def test_matching_pool_is_clamped_to_subtrees_and_cpus(monkeypatch):
    sizes = []
    monkeypatch.setattr(hypergraph, "ProcessPoolExecutor", recording_pool(sizes))
    torus = build_torus_queens_hg(5)
    monkeypatch.setattr(hypergraph, "usable_cpus", lambda: 64)
    # Vertex 0 is row 0 of the board, so five edges branch first.
    assert count_perfect_matchings(torus, threads=64) == 10
    assert sizes == [5]
    monkeypatch.setattr(hypergraph, "usable_cpus", lambda: 2)
    assert count_perfect_matchings(torus, threads=64) == 10
    assert sizes == [5, 2]
    monkeypatch.setattr(hypergraph, "usable_cpus", lambda: 1)
    sudoku = build_sudoku_hg(2)
    for max_nodes in (5, 2000):
        assert _outcome(sudoku, max_nodes, threads=64) == _outcome(sudoku, max_nodes, threads=1)
    assert sizes == [5, 2]
