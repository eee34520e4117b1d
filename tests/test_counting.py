import gc
import hashlib
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import islice, permutations, repeat

import pytest

from queens_lab import bounds, core, counting, hypergraph
from queens_lab.core import QueensConfig, is_classical, is_toroidal
from queens_lab.counting import (
    CountResult,
    count_classical,
    count_toroidal,
    enumerate_solutions,
    oracle_count,
    oracle_counts,
)
from queens_lab.errors import InvalidConfigError, SizeLimitError

from helpers import naive_classical_valid, naive_toroidal_valid, recording_pool

# Frozen from the permutation-filter oracle, n = 1..9.
CLASSICAL = [1, 0, 0, 2, 10, 4, 40, 92, 352]
TOROIDAL = [1, 0, 0, 0, 10, 0, 28, 0, 0]


@pytest.mark.parametrize("n,expected", list(enumerate(CLASSICAL, start=1)))
def test_classical_known_counts(n, expected):
    assert count_classical(n).count == expected


@pytest.mark.parametrize("n,expected", list(enumerate(TOROIDAL, start=1)))
def test_toroidal_known_counts(n, expected):
    assert count_toroidal(n).count == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_counters_match_oracle(n):
    assert count_classical(n).count == oracle_count(n, "classical").count
    assert count_toroidal(n).count == oracle_count(n, "toroidal").count


@pytest.mark.parametrize("n", range(1, 9))
def test_one_oracle_pass_equals_per_mode_passes(n):
    assert oracle_counts(n, counting.MODES) == tuple(
        oracle_count(n, mode) for mode in counting.MODES
    )


def test_oracle_is_a_permutation_filter():
    # Spot-check the oracle against a literal filter over permutations.
    n = 6
    literal = sum(
        1
        for p in permutations(range(n))
        if len({p[y] + y for y in range(n)}) == n
        and len({p[y] - y for y in range(n)}) == n
    )
    assert oracle_count(n, "classical").count == literal == 4


def test_oracle_checks_every_permutation_once(monkeypatch):
    # perfbench/tracer.py counts boards built by wrapping __post_init__ on
    # the class, as here: every oracle board must run the checks.
    checks = QueensConfig.__post_init__
    built = []

    def counted(config):
        built.append(config.p)
        checks(config)

    monkeypatch.setattr(QueensConfig, "__post_init__", counted)
    results = oracle_counts(6, counting.MODES)
    assert built == list(permutations(range(6)))
    assert [(r.count, r.nodes_visited) for r in results] == [(4, 720), (0, 720)]


def test_oracle_hands_every_board_to_every_predicate(monkeypatch):
    checks = QueensConfig.__post_init__
    built = []
    seen = {"classical": [], "toroidal": []}

    def counted(config):
        built.append(config)
        checks(config)

    def recording(mode):
        predicate = getattr(core, f"is_{mode}")

        def record(config):
            seen[mode].append(config)
            return predicate(config)

        return record

    monkeypatch.setattr(QueensConfig, "__post_init__", counted)
    for mode in seen:
        monkeypatch.setattr(core, f"is_{mode}", recording(mode))
    results = oracle_counts(6, ("toroidal", "classical"))
    assert [c.p for c in built] == list(permutations(range(6)))
    for configs in seen.values():
        # The very boards built, one each, in permutations order.
        assert len(configs) == len(built)
        assert all(a is b for a, b in zip(configs, built))
    assert [(r.mode, r.count, r.nodes_visited) for r in results] == [
        ("toroidal", 0, 720),
        ("classical", 4, 720),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_pooled_oracle_equals_serial(monkeypatch, n):
    serial = oracle_counts(n, counting.MODES)
    sizes = []
    if n < 7:
        # In-process stand-in; n = 7 and 8 start real worker processes.
        monkeypatch.setattr(counting, "ProcessPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(counting, "usable_cpus", lambda: 2)
    pooled = oracle_counts(n, counting.MODES, threads=2)
    assert [(r.mode, r.count, r.nodes_visited) for r in pooled] == [
        (r.mode, r.count, r.nodes_visited) for r in serial
    ]
    # n = 1 is one block, the board (0,), and needs no pool.
    if n < 7:
        assert sizes == ([2] if n > 1 else [])


def test_fan_out_submits_first_and_reads_in_order(monkeypatch):
    submitted = []

    class Pool(ProcessPoolExecutor):  # real worker processes, submissions recorded
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(counting, "usable_cpus", lambda: 2)
    items = list(range(40))
    results = counting._fan_out(2, pow, (3,), items)
    # Every task is on the pool before a result is read.
    assert len(submitted) == len(items) and len(multiprocessing.active_children()) == 2
    assert list(results) == list(map(pow, repeat(3), items))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("read", [0, 1, 5])
def test_fan_out_closed_early_leaves_no_worker(monkeypatch, read):
    monkeypatch.setattr(counting, "usable_cpus", lambda: 2)
    items = list(range(200))
    results = counting._fan_out(2, pow, (3,), items)
    assert list(islice(results, read)) == [3**i for i in range(read)]
    results.close()
    assert multiprocessing.active_children() == []


def test_oracle_blocks_are_the_first_two_rows(monkeypatch):
    sizes, blocks = [], []
    block = counting._oracle_block

    def recorded(n, modes, prefix):
        blocks.append(prefix)
        return block(n, modes, prefix)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(counting, "usable_cpus", lambda: 64)
    monkeypatch.setattr(counting, "_oracle_block", recorded)
    assert oracle_count(5, "toroidal", threads=64).count == 10
    assert blocks == [(a, b) for a in range(5) for b in range(5) if a != b]
    assert sizes == [20]


@pytest.mark.parametrize("threads", [2.0, 1.5, 0, -2, True])
@pytest.mark.parametrize("call", [oracle_counts, oracle_count])
def test_oracle_threads_must_be_a_positive_int(monkeypatch, call, threads):
    sizes = []

    def refuse(config):
        raise AssertionError("board built")

    monkeypatch.setattr(counting, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(QueensConfig, "__post_init__", refuse)
    modes = counting.MODES if call is oracle_counts else "classical"
    with pytest.raises(InvalidConfigError, match="threads must be an integer >= 1"):
        call(6, modes, threads=threads)
    assert sizes == []


def test_count_result_fields():
    result = count_classical(6)
    assert isinstance(result, CountResult)
    assert result.mode == "classical"
    assert result.count <= math.factorial(result.n)
    assert result.nodes_visited > 0


def test_toroidal_at_most_classical():
    for n in range(1, 11):
        assert count_toroidal(n).count <= count_classical(n).count


def test_polya_zero_pattern():
    for n in range(1, 11):
        zero = count_toroidal(n).count == 0
        assert zero == (math.gcd(n, 6) > 1)


def test_thread_count_does_not_change_result():
    seq = count_classical(8, threads=1)
    par = count_classical(8, threads=4)
    assert (seq.count, seq.nodes_visited) == (par.count, par.nodes_visited)
    seq_t = count_toroidal(7, threads=1)
    par_t = count_toroidal(7, threads=4)
    assert (seq_t.count, seq_t.nodes_visited) == (par_t.count, par_t.nodes_visited)


def test_size_caps():
    with pytest.raises(SizeLimitError):
        count_classical(17)
    with pytest.raises(InvalidConfigError):
        count_classical(0)
    with pytest.raises(SizeLimitError):
        oracle_count(11, "classical")


@pytest.mark.parametrize(
    "call,args",
    [
        (count_classical, (True,)),
        (count_classical, (2.0,)),
        (enumerate_solutions, (3.0, "classical")),
        (oracle_counts, (3.5, ("classical", "toroidal"))),
    ],
    ids=["count-bool", "count-float", "enumerate-float", "oracle-float"],
)
def test_non_int_board_size_is_refused(call, args):
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize("threads", [2.0, 1.5, 0, -2, True])
@pytest.mark.parametrize("count", [count_classical, count_toroidal])
def test_threads_must_be_a_positive_int(monkeypatch, count, threads):
    sizes = []

    def refuse(*args):
        raise AssertionError("task list built")

    monkeypatch.setattr(counting, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(counting, "_tasks", refuse)
    with pytest.raises(InvalidConfigError, match="threads must be an integer >= 1"):
        count(6, threads=threads)
    assert sizes == []


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("QUEENS_LAB_CAP", "6")
    with pytest.raises(SizeLimitError):
        count_classical(7)
    assert count_classical(6).count == 4


def test_bad_mode_rejected():
    with pytest.raises(InvalidConfigError):
        oracle_count(5, "diagonal")
    with pytest.raises(InvalidConfigError):
        oracle_counts(5, ("classical", "diagonal"))
    with pytest.raises(InvalidConfigError):
        enumerate_solutions(5, "diagonal")


def test_enumerate_toroidal_five():
    solutions = enumerate_solutions(5, "toroidal")
    assert len(solutions) == 10
    for config in solutions:
        assert is_toroidal(config)
    boards = [s.p for s in solutions]
    assert boards == sorted(boards)


def test_enumerate_empty_when_no_solutions():
    assert enumerate_solutions(6, "toroidal") == []


def test_enumerate_classical_eight():
    full = enumerate_solutions(8, "classical")
    assert len(full) == 92
    for config in full:
        assert is_classical(config)


def test_enumerate_matches_count():
    for n in range(1, 8):
        assert len(enumerate_solutions(n, "classical")) == count_classical(n).count
        assert len(enumerate_solutions(n, "toroidal")) == count_toroidal(n).count


def test_enumeration_frees_its_working_set_before_the_boards():
    # The peak traced while enumerating is barely above what the returned
    # boards hold: the searched list and the image set are gone by then.
    # A fresh interpreter, so that the measurement sees only this call.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import queens_lab

    script = (
        "import tracemalloc\n"
        "from queens_lab.counting import enumerate_solutions\n"
        "tracemalloc.start()\n"
        "solutions = enumerate_solutions(12, 'classical')\n"
        "held, peak = tracemalloc.get_traced_memory()\n"
        "print(len(solutions), held, peak)\n"
    )
    src = str(Path(queens_lab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    count, held, peak = map(int, done.stdout.split())
    assert count == 14200
    assert peak <= 1.10 * held


# Search-tree sizes of the row-by-row DFS, n = 1..13: every legal
# placement tried, the first row included.
CLASSICAL_NODES = [
    1, 2, 5, 16, 53, 152, 551, 2056, 8393, 35538, 166925, 856188, 4674889
]
TOROIDAL_NODES = [1, 2, 3, 8, 45, 72, 259, 800, 2349, 9240, 27291, 139248, 469651]


@pytest.mark.parametrize("n", range(1, 14))
def test_nodes_visited_pinned(n):
    assert count_classical(n).nodes_visited == CLASSICAL_NODES[n - 1]
    assert count_toroidal(n).nodes_visited == TOROIDAL_NODES[n - 1]


@pytest.mark.parametrize(
    "count, expected, nodes",
    [(count_classical, 73712, CLASSICAL_NODES), (count_toroidal, 4524, TOROIDAL_NODES)],
)
def test_two_workers_give_the_pinned_count_and_nodes_at_13(count, expected, nodes):
    result = count(13, threads=2)
    assert (result.count, result.nodes_visited) == (expected, nodes[12])


@pytest.mark.parametrize("mode", ["classical", "toroidal"])
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_matches_permutation_filter(n, mode):
    valid = naive_toroidal_valid if mode == "toroidal" else naive_classical_valid
    expected = [p for p in permutations(range(n)) if valid(p)]
    assert [config.p for config in enumerate_solutions(n, mode)] == expected


def test_enumerate_torus_thirteen():
    assert len(enumerate_solutions(13, "toroidal")) == 4524


def _second_rows(n, toroidal, x0):
    """Second-row columns that the first-row queen at x0 does not attack."""
    if toroidal:
        return [x1 for x1 in range(n) if (x1 - x0) % n not in (0, 1, n - 1)]
    return [x1 for x1 in range(n) if abs(x1 - x0) > 1]


@pytest.mark.parametrize("n", range(2, 14))
def test_one_task_per_orbit_weighted_by_its_size(n):
    classical = [
        ((x0, x1), 2)
        for x0 in range(n)
        for x1 in _second_rows(n, False, x0)
        if (x0, x1) < (n - 1 - x0, n - 1 - x1)
    ]
    toroidal = [
        ((0, a), n if 2 * a == n else 2 * n) for a in _second_rows(n, True, 0) if 2 * a <= n
    ]
    assert counting._tasks(n, False) == classical
    assert counting._tasks(n, True) == toroidal
    for tasks, toroidal_board in ((classical, False), (toroidal, True)):
        legal = sum(len(_second_rows(n, toroidal_board, x0)) for x0 in range(n))
        assert sum(w for _, w in tasks) == legal


def test_one_row_board_is_its_own_task():
    assert counting._tasks(1, False) == counting._tasks(1, True) == [((0,), 1)]


@pytest.mark.parametrize("mode", ["classical", "toroidal"])
@pytest.mark.parametrize("n", range(1, 14))
def test_symmetric_subtrees_match_the_unreduced_search(n, mode):
    toroidal = mode == "toroidal"
    # The unreduced reference: every first-row column searched.
    per_x0 = [counting._subtree(n, toroidal, (x0,)) for x0 in range(n)]
    result = counting._count(n, mode, 1)
    assert (result.count, result.nodes_visited) == (
        sum(c for c, _ in per_x0),
        n + sum(m for _, m in per_x0),
    )
    per_prefix = {
        (x0, x1): counting._subtree(n, toroidal, (x0, x1))
        for x0 in range(n)
        for x1 in _second_rows(n, toroidal, x0)
    }
    for (x0, x1), found in per_prefix.items():
        if toroidal:
            for c in range(n):
                assert per_prefix[(x0 + c) % n, (x1 + c) % n] == found
                assert per_prefix[(c - x0) % n, (c - x1) % n] == found
        else:
            assert per_prefix[n - 1 - x0, n - 1 - x1] == found
    if n > 1:
        for x0 in range(n):
            split = [per_prefix[x0, x1] for x1 in _second_rows(n, toroidal, x0)]
            assert per_x0[x0] == (sum(c for c, _ in split), sum(m for _, m in split))


@pytest.mark.parametrize("count, n", [(count_toroidal, 13), (count_classical, 11)])
def test_two_workers_give_the_serial_count_and_nodes(count, n):
    serial = count(n, threads=1)
    pooled = count(n, threads=2)
    assert (pooled.count, pooled.nodes_visited) == (serial.count, serial.nodes_visited)


def test_enumerate_odd_board_distinct_and_sorted():
    full = [config.p for config in enumerate_solutions(9, "classical")]
    assert len(set(full)) == 352 and full == sorted(full)


def test_pool_size_is_clamped_to_tasks_and_cpus(monkeypatch):
    sizes = []
    monkeypatch.setattr(counting, "ProcessPoolExecutor", recording_pool(sizes))
    serial = count_classical(8)
    monkeypatch.setattr(counting, "usable_cpus", lambda: 3)
    pooled = count_classical(8, threads=64)
    assert sizes == [3]
    assert (pooled.count, pooled.nodes_visited) == (serial.count, serial.nodes_visited)
    monkeypatch.setattr(counting, "usable_cpus", lambda: 64)
    # n = 4 has the three prefixes (0, 2), (0, 3) and (1, 3), n = 3 only (0, 2).
    assert count_classical(4, threads=64).count == 2
    assert count_classical(3, threads=64).count == 0
    assert sizes == [3, 3]
    monkeypatch.setattr(counting, "usable_cpus", lambda: 1)
    assert count_toroidal(7, threads=64).count == 28
    assert sizes == [3, 3]


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_classical(10),
        lambda: enumerate_solutions(10, "classical"),
        lambda: hypergraph.count_perfect_matchings(hypergraph.build_torus_queens_hg(7)),
        bounds.classical_alpha_enclosure,
    ],
    ids=["count", "enumerate", "matchings", "alpha"],
)
def test_recursive_searches_leave_no_reference_cycles(call):
    # A nested recursive function holds itself through its closure; left
    # alone, each call would keep its search state until the cyclic
    # collector runs.
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of repr([config.p for config in enumerate_solutions(n, mode)]),
# taken from the search before it read its moves from a table.
ENUMERATION_DIGESTS = {
    ("classical", 9): "66cae8a45faaee5e349535f7d31728cd58cd868bd129155a830ba15394fbf3a5",
    ("classical", 10): "964a968b7f5fa12c0f1aa6cecca14301d84c78f11259016bc935f6a38628fab9",
    ("classical", 11): "2a7b27f1cd6029d933424926d666cda5426b5b99fb32bd26ea1e1a9c1830a4a6",
    ("classical", 12): "491c1d106ffe3fbc9fe6e2e2ccd3f62056c4995021c34003d6e0f9418e8e7b59",
    ("toroidal", 11): "e6d89c797f283548f809d214b46342d1d4d8ea21422752b82d0c8dd2dc8596ba",
    ("toroidal", 13): "2456ecc8d4531f9d2d01b9d774b38d36c45219f459ac11fd429c1431d992f14a",
}


@pytest.mark.parametrize("mode, n", list(ENUMERATION_DIGESTS))
def test_enumeration_digest_pinned(mode, n):
    boards = [config.p for config in enumerate_solutions(n, mode)]
    digest = hashlib.sha256(repr(boards).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[mode, n]


@pytest.mark.parametrize("toroidal", [False, True], ids=["classical", "toroidal"])
@pytest.mark.parametrize("n", range(1, 11))
def test_move_table_matches_the_attacks(n, toroidal):
    table = counting._moves(n, toroidal)
    assert len(table) == 1 << n
    full = (1 << n) - 1
    for mask, moves in enumerate(table):
        assert [x for x, *_ in moves] == [x for x in range(n) if mask >> x & 1]
        for x, bit, keep, up, down in moves:
            cols, next_up, next_down = counting._attacks(n, toroidal, (x,))
            assert (bit, up, down) == (cols, next_up, next_down)
            assert keep == full & ~(cols | next_up | next_down)
    assert counting._moves.cache_info().currsize == 1
