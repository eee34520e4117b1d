"""The cap table: every entry is accepted at its cap and refused at the cap
plus one, and QUEENS_LAB_CAP overrides exactly the "count" and "board"
entries.  Where reaching the real cap would take too long, the entry is
shrunk in the table; the shrunk "edges", "table_bits" and "incidences"
entries are tested beside their builders in test_hypergraph.py."""

import math

import pytest

from queens_lab import bounds, counting, errors, hypergraph, quadrature
from queens_lab.construction import BaseParams, build_base_config
from queens_lab.errors import QuadratureError, SearchBudgetError, SizeLimitError, cap

from helpers import cover_count


def test_table_entries():
    assert errors.CAPS == {
        "count": 16,
        "oracle": 10,
        "lemma": 12,
        "dmatrix": 512,
        "board": 4**8 + 1,
        "edges": 10**6,
        "incidences": 10**7,
        "table_bits": 2**30,
        "nodes": 5 * 10**7,
        "evals": 2_000_000,
    }


def test_env_cap_overrides_count_and_board_only(monkeypatch):
    monkeypatch.setenv("QUEENS_LAB_CAP", "7")
    assert {name: cap(name) for name in errors.CAPS} == dict(errors.CAPS, count=7, board=7)


@pytest.mark.parametrize(
    "raw, message",
    [
        ("x", "QUEENS_LAB_CAP must be an integer, got 'x'"),
        ("0", "QUEENS_LAB_CAP must be >= 1, got 0"),
    ],
)
def test_bad_env_cap_is_refused_where_it_applies(monkeypatch, raw, message):
    monkeypatch.setenv("QUEENS_LAB_CAP", raw)
    for name in ("count", "board"):
        with pytest.raises(SizeLimitError) as info:
            cap(name)
        assert str(info.value) == message
    assert cap("oracle") == 10


def test_count_cap(monkeypatch):
    with pytest.raises(SizeLimitError, match="^board size 17 exceeds cap 16$"):
        counting.count_classical(17)
    monkeypatch.setitem(errors.CAPS, "count", 6)
    assert counting.count_classical(6).count == 4
    assert counting.count_toroidal(6).count == 0
    assert len(counting.enumerate_solutions(6, "classical")) == 4
    for run in (counting.count_classical, counting.count_toroidal):
        with pytest.raises(SizeLimitError, match="^board size 7 exceeds cap 6$"):
            run(7)
    with pytest.raises(SizeLimitError, match="^board size 7 exceeds cap 6$"):
        counting.enumerate_solutions(7, "toroidal")


def test_oracle_cap(monkeypatch):
    with pytest.raises(SizeLimitError, match="^board size 11 exceeds cap 10$"):
        counting.oracle_count(11, "classical")
    monkeypatch.setitem(errors.CAPS, "oracle", 6)
    assert counting.oracle_count(6, "classical").count == 4
    with pytest.raises(SizeLimitError, match="^board size 7 exceeds cap 6$"):
        counting.oracle_count(7, "toroidal")


def test_lemma_cap():
    assert bounds.check_lemmas(12)["passed"] is True
    with pytest.raises(SizeLimitError, match="^board size 13 exceeds lemma-check cap 12$"):
        bounds.check_lemmas(13)


def test_dmatrix_cap():
    matrix = bounds.diagonal_exposure_matrix(512)
    assert len(matrix) == 512 and matrix[0][0] == 511
    with pytest.raises(SizeLimitError, match="^board size 513 exceeds exposure-matrix cap 512$"):
        bounds.diagonal_exposure_matrix(513)


def test_board_cap(monkeypatch):
    assert BaseParams(8).n == 4**8 + 1
    refusal = r"^k = 9 exceeds cap 8 \(board size 4\^k \+ 1 must be <= 65537\)$"
    with pytest.raises(SizeLimitError, match=refusal):
        BaseParams(9)
    monkeypatch.setitem(errors.CAPS, "board", 17)
    assert build_base_config(2).n == 17
    monkeypatch.setitem(errors.CAPS, "board", 16)
    refusal = r"^k = 2 exceeds cap 1 \(board size 4\^k \+ 1 must be <= 16\)$"
    with pytest.raises(SizeLimitError, match=refusal):
        build_base_config(2)


def test_edges_cap():
    assert hypergraph.from_json('{"n": 1000000, "edges": []}').num_vertices == 10**6
    with pytest.raises(
        SizeLimitError, match="^hypergraph JSON with 1000001 vertices exceeds the edge cap 1000000$"
    ):
        hypergraph.from_json('{"n": 1000001, "edges": []}')


def test_table_bits_cap():
    # 25 edges over 21 474 824 vertices need 25 * (25 + 2 * 21474824) =
    # 2^30 + 1 table bits; the check comes before any table is built.
    hg = hypergraph.Hypergraph(21474824, tuple((2 * i, 2 * i + 1) for i in range(25)))
    refusal = "needs 1073741825 table bits, above the cap 1073741824$"
    with pytest.raises(SizeLimitError, match=refusal):
        hypergraph.count_perfect_matchings(hg)


def test_nodes_cap_is_the_default_budget(monkeypatch):
    sudoku = hypergraph.build_sudoku_hg(2)
    _, nodes = cover_count(sudoku.num_vertices, sudoku.edges)
    monkeypatch.setitem(errors.CAPS, "nodes", nodes)
    assert hypergraph.count_perfect_matchings(sudoku) == 288
    monkeypatch.setitem(errors.CAPS, "nodes", nodes - 1)
    with pytest.raises(SearchBudgetError) as info:
        hypergraph.count_perfect_matchings(sudoku)
    assert (info.value.nodes_visited, info.value.budget) == (nodes, nodes - 1)


def test_evals_cap_is_the_quadrature_budget(monkeypatch):
    def sine():
        return quadrature.adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10)

    evals = sine().evaluations
    monkeypatch.setitem(errors.CAPS, "evals", evals)
    assert sine().evaluations == evals
    monkeypatch.setitem(errors.CAPS, "evals", evals - 1)
    refusal = f"^evaluation budget {evals - 1} exhausted before tolerance 1e-10$"
    with pytest.raises(QuadratureError, match=refusal):
        sine()
