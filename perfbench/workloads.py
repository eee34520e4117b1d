"""The benchmark's workloads: the ops each one runs, the inputs it makes
from the seed, and the checks on every answer.

An op is either a CLI call (``argv`` for ``queens_lab.cli.main``) or a
library call (``call`` = module, function, arguments).  Each op belongs to
a group; the group names the per-op timing (``op.<group>_s``).

The checks are written against the answers, not the internals: counts
(never ``nodes_visited``), the names of the ``verify`` checks, the flip
count, and for ``generate`` validity, size and the round trip through
``reconstruct_flips``.  Board validity is checked here, independently of
``queens_lab.core``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("verify-full", "search", "flips-k5")

VERIFY_CHECKS = (
    "count-classical-matches-oracle",
    "count-toroidal-matches-oracle",
    "toroidal-count-at-most-classical",
    "toroidal-zero-iff-shares-factor-with-six",
    "base-config-toroidal-valid",
    "base-config-multiplier-additivity",
    "shifted-multipliers-are-units",
    "flip-count-formula",
    "single-flip-boards-valid",
    "flip-added-squares-partition-empty-squares",
    "flip-intersection-bound",
    "single-flip-boards-distinct",
    "flip-roundtrip-reconstruction",
    "greedy-lower-bound-log-positive",
    "torus-hypergraph-matchings-equal-toroidal-count",
    "constructor-stats-match-claims",
    "regular-constructor-double-counting",
    "known-matching-counts",
    "matching-count-relabeling-invariant",
    "diagonal-exposure-matrix-5",
    "profile-counts-sum-to-n-minus-1",
    "diagonal-pair-identity",
    "concentric-ring-inequality",
    "alpha-closed-form-vs-quadrature",
    "matching-bound-integral-closed-form",
    "log-gap-within-two-over-sqrt-n",
    "config-serialization-roundtrip",
)

# Known answers: Q(n) classical, T(n) toroidal, transversals of the cyclic
# Latin square of odd order.
CLASSICAL = {6: 4, 8: 92, 12: 14200, 13: 73712}
TOROIDAL = {7: 28, 13: 4524}
CYCLIC_TRANSVERSALS = {5: 15, 11: 37851}

# Op groups in the order a pass runs them; each is reported as op.<group>_s.
GROUPS = ("verify", "count", "count_threads2", "enumerate", "hg_count_pm", "flips", "generate")


@dataclass(frozen=True)
class Op:
    group: str
    expect: Any
    check: Callable[[Any, Any], str | None]
    argv: tuple[str, ...] | None = None
    call: tuple[str, str, tuple] | None = None

    @property
    def label(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        module, name, args = self.call
        return f"{module}.{name}{args!r}"


def _sizes(smoke: bool) -> dict:
    if smoke:
        return {"level": "quick", "qn": 8, "tn": 7, "enum": (6, 7), "order": 5, "torus": 7, "k": 2, "gk": 3}
    return {"level": "full", "qn": 13, "tn": 13, "enum": (12, 13), "order": 11, "torus": 13, "k": 5, "gk": 5}


def torus_input_path(workdir: str) -> str:
    return f"{workdir}/torus.json"


def write_inputs(workload: str, seed: int, smoke: bool, workdir: str) -> None:
    """Write the seeded inputs of a workload into ``workdir``.

    ``search`` feeds ``hg --in`` the torus-n hypergraph (one vertex per
    row, column and wrap-around diagonal, one edge per square) with its
    vertex ids permuted and its edges shuffled by the seed.  Built here,
    not by the library, so the program sees only the file.
    """
    if workload != "search":
        return
    n = _sizes(smoke)["torus"]
    rng = random.Random(seed)
    mapping = list(range(4 * n))
    rng.shuffle(mapping)
    edges = [
        sorted(mapping[v] for v in (y, n + x, 2 * n + (x + y) % n, 3 * n + (x - y) % n))
        for x in range(n)
        for y in range(n)
    ]
    rng.shuffle(edges)
    with open(torus_input_path(workdir), "w", encoding="utf-8") as handle:
        json.dump({"n": 4 * n, "edges": edges}, handle)


def _is_solution(p, n: int, toroidal: bool) -> bool:
    if len(p) != n or sorted(p) != list(range(n)):
        return False
    plus = {(x + y) % n if toroidal else x + y for y, x in enumerate(p)}
    minus = {(x - y) % n if toroidal else x - y for y, x in enumerate(p)}
    return len(plus) == n and len(minus) == n


def _check_count(out: dict, expect: int) -> str | None:
    if out.get("count") != expect:
        return f"count {out.get('count')!r}, expected {expect}"
    return None


def _check_pm(out: dict, expect: int) -> str | None:
    if out.get("perfect_matchings") != expect:
        return f"perfect_matchings {out.get('perfect_matchings')!r}, expected {expect}"
    return None


def _check_verify(out: dict, expect: tuple) -> str | None:
    names = sorted(c.get("name") for c in out.get("checks", []))
    if names != sorted(expect):
        return f"verify check names differ: {sorted(set(names) ^ set(expect))}"
    if out.get("passed") is not True or out.get("failed"):
        return f"verify failed: {out.get('failed')}"
    return None


def _enumerate_check(n: int, toroidal: bool) -> Callable[[list, int], str | None]:
    def check(boards: list, expect: int) -> str | None:
        ps = [tuple(b.p) for b in boards]
        if len(ps) != expect:
            return f"{len(ps)} boards, expected {expect}"
        if any(a >= b for a, b in zip(ps, ps[1:])):
            return "boards not in strict lexicographic order"
        if not all(_is_solution(p, n, toroidal) for p in ps):
            return "a board is not a solution"
        return None

    return check


def _generate_check(k: int) -> Callable[[dict, int], str | None]:
    def check(out: dict, expect: int) -> str | None:
        from queens_lab import core, flips

        n = 4**k + 1
        p = out["config"]["p"]
        ids = [tuple(s) for s in out["flips"]]
        if not _is_solution(p, n, toroidal=True):
            return "generated board is not a toroidal solution"
        if len(ids) != expect or len(set(ids)) != expect:
            return f"{len(set(ids))} distinct flips emitted, expected {expect}"
        base = core.QueensConfig(n=n, p=tuple((2**k * y) % n for y in range(n)))
        displaced = sum(1 for a, b in zip(base.p, p) if a != b)
        if displaced != 4 * expect:
            return f"{displaced} rows displaced, expected {4 * expect}"
        rebuilt = flips.reconstruct_flips(base, core.QueensConfig(n=n, p=tuple(p)))
        if [tuple(s) for s in rebuilt.canonical_ids()] != ids:
            return "reconstruct_flips does not round-trip to the emitted flips"
        return None

    return check


def _perturb(expect: Any) -> Any:
    return expect + ("no-such-check",) if isinstance(expect, tuple) else expect + 1


def build_ops(
    workload: str, seed: int, smoke: bool, threads: int, workdir: str, wrong_expect: bool = False
) -> list[Op]:
    """The op list of ``workload``.  With ``wrong_expect`` the first op
    expects a wrong answer, which must register as a failure."""
    s = _sizes(smoke)
    if workload == "verify-full":
        ops = [Op("verify", VERIFY_CHECKS, _check_verify, argv=("verify", "--level", s["level"]))]
    elif workload == "search":
        qn, tn, order = s["qn"], s["tn"], s["order"]
        en_c, en_t = s["enum"]
        ops = [
            Op("count", CLASSICAL[qn], _check_count, argv=("count", "--n", str(qn), "--mode", "classical")),
            Op("count", TOROIDAL[tn], _check_count, argv=("count", "--n", str(tn), "--mode", "toroidal")),
            Op(
                "count_threads2",
                CLASSICAL[qn],
                _check_count,
                argv=("count", "--n", str(qn), "--mode", "classical", "--threads", str(threads)),
            ),
            Op("enumerate", CLASSICAL[en_c], _enumerate_check(en_c, False),
               call=("counting", "enumerate_solutions", (en_c, "classical"))),
            Op("enumerate", TOROIDAL[en_t], _enumerate_check(en_t, True),
               call=("counting", "enumerate_solutions", (en_t, "toroidal"))),
            Op(
                "hg_count_pm",
                CYCLIC_TRANSVERSALS[order],
                _check_pm,
                argv=("hg", "--family", "transversal", "--params", json.dumps({"order": order}), "--count-pm"),
            ),
            Op("hg_count_pm", TOROIDAL[s["torus"]], _check_pm,
               argv=("hg", "--in", torus_input_path(workdir), "--count-pm")),
        ]
    elif workload == "flips-k5":
        k, gk = s["k"], s["gk"]
        n = 4**k + 1
        t = (4**gk + 1) // 16
        ops = [
            Op("flips", n * (n - 1) // 4, _check_count, argv=("flips", "--k", str(k), "--count")),
            Op("generate", t, _generate_check(gk),
               argv=("generate", "--k", str(gk), "--t", str(t), "--seed", str(seed))),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if wrong_expect:
        first = ops[0]
        ops[0] = Op(first.group, _perturb(first.expect), first.check, first.argv, first.call)
    return ops
