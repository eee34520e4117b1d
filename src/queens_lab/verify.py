"""Self-verification suite: every cross-module invariant, one place.

``quick`` keeps board sizes at n <= 7 and flip parameters at k <= 2;
``full`` raises them to n <= 9 / k <= 3 and adds the order-4 Sudoku
matching count.  The report contains only exact values and booleans
(no timings), so repeated runs are byte-identical.  The suite runs in
one process except for one pass: ``full``'s permutation oracle at n = 9,
362 880 of the oracle's 409 113 boards, fans its blocks out over one
process pool with a worker per usable CPU.  That pass starts first, so
the pool forks from a small process, and its blocks run while every
other section runs in this one; its verdicts are collected last, and
the rows keep their order.  The pool is shut down before the suite
returns or raises.  Every other count is small, and a pool for it would
cost more to start than it saves, so ``quick`` starts no pool.  The
counts do not depend on the worker count.  Each fixture (fast count,
base board, flip list, hypergraph) is built once and released with the
section that reads it.
"""

from __future__ import annotations

import math
import random
from contextlib import closing

from . import bounds, core, counting, flips, hypergraph
from .construction import BaseParams, build_base_config, check_units
from .errors import InvalidConfigError, usable_cpus
from .quadrature import enclose

LEVELS = ("quick", "full")
PANELS = 1000  # equal panels of each enclosed integral

# Each claim: its name, the hypergraph it is about, and the claimed
# [vertices, edges, d, k, max codegree], or a prefix of that list.
_CLAIMS = (
    ("torus-5", "torus-5", [20, 25, 4, 5, 1]),
    ("transversal-3", "transversal-3", [9, 9, 3, 3, 1]),
    ("steiner-7-3-2", "steiner-7-3-2", [21, 35, 3, 5, 1]),
    ("flip-1", "flip-1", [5, 5, 4, 4, 3]),
    ("flip-2-regularity", "flip-2", [17, 68, 4, 16]),
    ("sudoku-2", "sudoku-2", [64, 64, 4, 4, 2]),
)


def _check(name: str, passed: bool, expected, actual) -> dict:
    return {"name": name, "passed": bool(passed), "expected": expected, "actual": actual}


def _agree(name: str, rows: list[tuple]) -> dict:
    """Row for (key, want, got) triples: passes when every got == want."""
    return _check(
        name,
        all(want == got for _, want, got in rows),
        [[key, want] for key, want, _ in rows],
        [[key, got] for key, _, got in rows],
    )


def _all_true(name: str, results: dict) -> dict:
    """Row for a keyed set of booleans: passes when all are True."""
    return _agree(name, [(key, True, ok) for key, ok in sorted(results.items())])


def _counting_checks(oracle: dict, fast_c: dict, fast_t: dict) -> list[dict]:
    return [
        _agree(
            "count-classical-matches-oracle",
            [(n, want, fast_c[n]) for n, want in oracle["classical"].items()],
        ),
        _agree(
            "count-toroidal-matches-oracle",
            [(n, want, fast_t[n]) for n, want in oracle["toroidal"].items()],
        ),
        _check(
            "toroidal-count-at-most-classical",
            all(fast_t[n] <= fast_c[n] for n in fast_c),
            "T(n) <= Q(n)",
            [[n, fast_t[n], fast_c[n]] for n in fast_c],
        ),
        _agree(
            "toroidal-zero-iff-shares-factor-with-six",
            [(n, math.gcd(n, 6) > 1, t == 0) for n, t in fast_t.items()],
        ),
    ]


def _board_checks(bases: dict, full: bool) -> list[dict]:
    """Base boards and their flips; one flip list per k."""
    valid, additive = {}, {}
    counts = []
    single_valid, cover_exact, intersect_ok = {}, {}, {}
    for k, base in bases.items():
        n = base.n
        valid[k] = core.is_toroidal(base)
        additive[k] = all(
            base.p[(y1 + y2) % n] == (base.p[y1] + base.p[y2]) % n
            for y1 in range(n)
            for y2 in range(n)
        )
        all_flips = flips.enumerate_flips(BaseParams(k))
        counts.append((k, n * (n - 1) // 4, len(all_flips)))
        tried = all_flips if k <= 2 else random.Random(0).sample(all_flips, 100)
        boards = [flips.apply_flips(base, flips.FlipSet(flips=(f,))) for f in tried]
        single_valid[k] = all(map(core.is_toroidal, boards))
        if k > 2:
            continue
        added = [s for f in all_flips for s in f.added]
        occupied = set(base.squares())
        cover_exact[k] = (
            len(added) == len(set(added)) == n * (n - 1)
            and not (set(added) & occupied)
        )
        bound = 4 * (n - 1)
        intersect_ok[k] = all(
            sum(1 for g in all_flips if g is not f and not f.rows.isdisjoint(g.rows))
            <= bound
            for f in all_flips
        )
        if k == 2:
            distinct = {b.p for b in boards}
            distinct_ok = len(distinct) == len(boards) and base.p not in distinct
            num_distinct = len(distinct)

    k_round = max(bases)
    base = bases[k_round]
    params = BaseParams(k_round)
    t = params.n // 16
    round_trip = True
    for seed in range(10):
        chosen = flips.greedy_disjoint_flips(params, t, seed=seed)
        rebuilt = flips.reconstruct_flips(base, flips.apply_flips(base, chosen))
        if rebuilt.canonical_ids() != chosen.canonical_ids():
            round_trip = False
            break

    units = {k: check_units(BaseParams(k)) for k in range(1, 7)}
    sizes = [17, 65] if not full else [17, 65, 257]
    lb = {n: flips.lower_bound_log_count(n) for n in sizes}
    return [
        _all_true("base-config-toroidal-valid", valid),
        _all_true("base-config-multiplier-additivity", additive),
        _all_true("shifted-multipliers-are-units", units),
        _agree("flip-count-formula", counts),
        _all_true("single-flip-boards-valid", single_valid),
        _all_true("flip-added-squares-partition-empty-squares", cover_exact),
        _check(
            "flip-intersection-bound",
            all(intersect_ok.values()),
            "each flip meets at most 4(n-1) others",
            [[k, intersect_ok[k]] for k in sorted(intersect_ok)],
        ),
        _check("single-flip-boards-distinct", distinct_ok, 68, num_distinct),
        _check(
            "flip-roundtrip-reconstruction",
            round_trip,
            f"reconstruct(apply(fs)) == fs for 10 seeded sets at k={k_round}, t={t}",
            round_trip,
        ),
        _check(
            "greedy-lower-bound-log-positive",
            all(v > 0 and math.isfinite(v) for v in lb.values()),
            "finite and positive",
            [[n, lb[n]] for n in sorted(lb)],
        ),
    ]


def _hypergraph_checks(full: bool, fast_t: dict) -> list[dict]:
    pm_sizes = range(1, 9) if full else range(1, 6)
    tori = {n: hypergraph.build_torus_queens_hg(n) for n in pm_sizes}
    pm = {n: hypergraph.count_perfect_matchings(tori[n]) for n in pm_sizes}
    hgs = {
        "torus-5": tori[5],
        "transversal-3": hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(3)),
        "steiner-7-3-2": hypergraph.build_steiner_aux_hg(7, 3, 2),
        "flip-1": hypergraph.build_flip_hg(1),
        "flip-2": hypergraph.build_flip_hg(2),
    }
    if full:
        hgs["sudoku-2"] = hypergraph.build_sudoku_hg(2)
    measured = {name: hypergraph.stats(hg) for name, hg in hgs.items()}
    profile = {
        name: [s.num_vertices, s.num_edges, s.d, s.k, s.max_codegree]
        for name, s in measured.items()
    }
    claims = [
        (claim, want, profile[name][: len(want)])
        for claim, name, want in _CLAIMS
        if name in profile
    ]
    double = [
        [name, s.num_vertices * (s.k or 0) == (s.d or 0) * s.num_edges]
        for name, s in measured.items()
        if name != "flip-1"
    ]

    count = hypergraph.count_perfect_matchings
    known = [
        ("transversal-cyclic-3", 3, count(hgs["transversal-3"])),
        ("transversal-cyclic-2", 0,
         count(hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(2)))),
        ("steiner-7-3-2", 30, count(hgs["steiner-7-3-2"])),
        ("steiner-6-3-2", 0, count(hypergraph.build_steiner_aux_hg(6, 3, 2))),
        ("flip-1", 0, count(hgs["flip-1"])),
    ]
    if full:
        known.append(("sudoku-2", 288, count(hgs["sudoku-2"])))

    hg5 = hgs["torus-5"]
    reference = pm[5]
    invariant = True
    for seed in range(10):
        mapping = list(range(hg5.num_vertices))
        random.Random(seed).shuffle(mapping)
        if count(hypergraph.relabel_vertices(hg5, mapping)) != reference:
            invariant = False
            break
    return [
        _agree(
            "torus-hypergraph-matchings-equal-toroidal-count",
            [(n, fast_t[n], pm[n]) for n in pm_sizes],
        ),
        _agree("constructor-stats-match-claims", claims),
        _check(
            "regular-constructor-double-counting",
            all(ok for _, ok in double),
            "n * k == d * |E|",
            double,
        ),
        _agree("known-matching-counts", known),
        _check("matching-count-relabeling-invariant", invariant, reference, invariant),
    ]


def _bounds_checks(full: bool) -> list[dict]:
    checks = []
    expected_matrix = [
        [4, 4, 4, 4, 4],
        [4, 6, 6, 6, 4],
        [4, 6, 8, 6, 4],
        [4, 6, 6, 6, 4],
        [4, 4, 4, 4, 4],
    ]
    actual_matrix = bounds.diagonal_exposure_matrix(5)
    checks.append(
        _check(
            "diagonal-exposure-matrix-5",
            actual_matrix == expected_matrix,
            expected_matrix,
            actual_matrix,
        )
    )

    hi = 8 if full else 7
    lemmas = [bounds.check_lemmas(n) for n in range(4, hi + 1)]
    per_n = [[r["n"], r["solutions"]] for r in lemmas]
    checks.append(
        _check(
            "profile-counts-sum-to-n-minus-1",
            all(r["profile_sums_ok"] for r in lemmas),
            "by3+by2+by1 == n-1",
            per_n,
        )
    )
    checks.append(
        _check(
            "diagonal-pair-identity",
            all(r["identity_ok"] for r in lemmas),
            "sum(2*by3 + by2) == sum of diagonal exposure over queens",
            per_n,
        )
    )
    checks.append(
        _check(
            "concentric-ring-inequality",
            all(r["inequality_ok"] for r in lemmas),
            "sum(2*by3 + by2) >= 1.25 n^2 - 6n",
            per_n,
        )
    )

    alpha = bounds.classical_alpha()
    bracket = bounds.classical_alpha_enclosure()
    checks.append(
        _check(
            "alpha-closed-form-vs-quadrature",
            1.587 < bracket.lower <= alpha <= bracket.upper < 1.588
            and bracket.upper - bracket.lower <= 1e-9,
            "closed form inside a certified bracket at most 1e-9 wide, within (1.587, 1.588)",
            [alpha, bracket.lower, bracket.upper],
        )
    )

    # 1 + (k-1) t >= k t on [0, 1], so the integral is at least
    # integral_0^1 log(k x^(d-1)) dx = log k - (d-1).
    grid = []
    for k in (5, 17, 100):
        for d in (2, 3, 4):
            lower = enclose(lambda x: math.log1p((k - 1) * x ** (d - 1)), PANELS).lower
            grid.append([k, d, lower, math.log(k) - (d - 1)])
    grid_ok = all(lower >= floor for _, _, lower, floor in grid)
    want = "enclosed lower end >= log k - (d-1)"
    checks.append(_check("matching-bound-integral-closed-form", grid_ok, want, grid))

    gaps = []
    for n in (16, 64, 256, 1024):
        upper = enclose(lambda x: math.log1p((n - 1) * x), PANELS).upper
        gaps.append([n, upper - (math.log(n - 1) - 1.0), 2.0 / math.sqrt(n)])
    gaps_ok = all(gap <= limit for _, gap, limit in gaps)
    want = "enclosed upper end - (log(n-1) - 1) <= 2 n^(-1/2)"
    checks.append(_check("log-gap-within-two-over-sqrt-n", gaps_ok, want, gaps))
    return checks


def run_verification_suite(level: str = "quick") -> dict:
    """Run every invariant check; returns a deterministic JSON-able report."""
    if level not in LEVELS:
        raise InvalidConfigError(f"level must be one of {LEVELS}, got {level!r}")
    full = level == "full"
    n_max = 9 if full else 7
    k_max = 3 if full else 2
    polya_max = 12 if full else 7

    # The largest oracle pass starts first; only full's is worth a pool,
    # and its blocks run there while every other section runs here.
    threads = usable_cpus() if full else 1
    with closing(counting._oracle_pass(n_max, counting.MODES, threads)) as last:
        sizes = range(1, polya_max + 1)
        fast_c = {n: counting.count_classical(n).count for n in sizes}
        fast_t = {n: counting.count_toroidal(n).count for n in sizes}
        oracle = {mode: {} for mode in counting.MODES}
        for n in range(1, n_max):
            for result in counting.oracle_counts(n, counting.MODES):
                oracle[result.mode][n] = result.count
        bases = {k: build_base_config(k) for k in range(1, k_max + 1)}
        board = _board_checks(bases, full)
        graphs = _hypergraph_checks(full, fast_t)
        bound = _bounds_checks(full)
        configs = [bases[1], bases[2], *counting.enumerate_solutions(5, "toroidal")]
        ok = all(core.parse(core.serialize(c)) == c for c in configs)
        for result in counting._oracle_tally(n_max, counting.MODES, last):
            oracle[result.mode][n_max] = result.count

    checks = [
        *_counting_checks(oracle, fast_c, fast_t),
        *board,
        *graphs,
        *bound,
        _check("config-serialization-roundtrip", ok, True, ok),
    ]
    return {
        "level": level,
        "passed": all(c["passed"] for c in checks),
        "num_checks": len(checks),
        "failed": [c["name"] for c in checks if not c["passed"]],
        "checks": checks,
    }
