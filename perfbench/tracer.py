"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of each ``queens_lab``
module in every namespace that binds it (so calls between modules, and
calls within a module through its globals, pass through a wrapper), wraps
``QueensConfig.__post_init__`` to count boards built, and substitutes a
counting subclass for ``ProcessPoolExecutor`` in the modules that fan out.
No source file of the program changes.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the spans it caused.  Self time is charged to the span's owner:
the function itself when it was called from another layer (or is one of
the flip phases), otherwise its caller's owner, so a layer's helpers
(``companion_pair`` under ``enumerate_flips``, say) count towards the
entry point that used them.  Spans are aggregated as they close (calls,
inclusive time and failures per function, self time per owner), not kept
one by one: the flip workload makes millions of them.  Work done inside
pool workers is seen only through the pool's wall time and its children's
CPU time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

LAYERS = ("cli", "verify", "counting", "core", "construction", "flips", "hypergraph", "bounds", "quadrature")
POOL_MODULES = ("counting", "hypergraph")

HG_BUILDERS = ("cyclic_latin_square", "from_json", "relabel_vertices")
FLIP_PHASES = {
    "enumerate_flips": "enumerate",
    "greedy_disjoint_flips": "select",
    "apply_flips": "apply",
    "reconstruct_flips": "reconstruct",
}


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregated spans for one traced pass.  Wrappers record only while
    ``enabled`` is set, so answer checks run untraced."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [layer, function, owner, time of child spans]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, inclusive_s, failed]
        self.self_s: Counter[tuple[str, str]] = Counter()  # (layer, owner) -> self time
        self.counts: Counter[str] = Counter()
        self._wrapped: dict[int, object] = {}

    # -- spans ---------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        inner = parent is not None and parent[0] == layer and name not in FLIP_PHASES
        frame = [layer, name, parent[2] if inner else name, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, duration: float, failed: bool) -> None:
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += duration
        self.self_s[frame[0], frame[2]] += duration - frame[3]
        stat = self.spans.setdefault((frame[0], frame[1]), [0, 0.0, 0])
        stat[0] += 1
        stat[1] += duration
        # An exception escapes a layer only where the caller is another layer.
        if failed and (not self.stack or self.stack[-1][0] != frame[0]):
            stat[2] += 1

    def _wrap(self, fn, layer: str, name: str):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        hook = self._hook(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(layer, name)
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(frame, perf_counter() - start, failed)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._wrapped[key] = self._wrapped[id(traced)] = traced
        return traced

    # -- work counts taken at layer boundaries ---------------------------

    def _hook(self, layer: str, name: str):
        counts = self.counts
        stack = self.stack

        def parent() -> tuple[str, str] | None:
            return (stack[-1][0], stack[-1][1]) if stack else None

        if (layer, name) == ("counting", "oracle_count"):
            def hook(args, kwargs, result):
                counts["counting.oracle_perms"] += math.factorial(_arg(args, kwargs, 0, "n"))
        elif layer == "counting" and name in ("count_classical", "count_toroidal"):
            def hook(args, kwargs, result):
                counts["counting.nodes"] += getattr(result, "nodes_visited", 0)
        elif layer == "hypergraph" and (name.startswith("build_") or name in HG_BUILDERS):
            def hook(args, kwargs, result):
                counts["hypergraph.edges_built"] += len(getattr(result, "edges", ()))
        elif (layer, name) == ("flips", "enumerate_flips"):
            def hook(args, kwargs, result):
                counts["flips.enumerated"] += len(result)
                if parent() == ("flips", "greedy_disjoint_flips"):
                    counts["flips.select_enumerated"] += len(result)
        elif (layer, name) == ("flips", "greedy_disjoint_flips"):
            def hook(args, kwargs, result):
                counts["flips.selected"] += len(result)
        elif layer == "quadrature":
            def hook(args, kwargs, result):
                # integrate calls adaptive_simpson: count evaluations once.
                if parent() is None or parent()[0] != "quadrature":
                    counts["quadrature.evals"] += getattr(result, "evaluations", 0)
        else:
            hook = None
        return hook

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"queens_lab.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("queens_lab")]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("queens_lab.") and layer in modules:
                    setattr(namespace, name, self._wrap(obj, layer, obj.__name__))
        config = modules["core"].QueensConfig
        config.__post_init__ = self._wrap(config.__post_init__, "core", "QueensConfig")
        pool = self._pool_class()
        for layer in POOL_MODULES:
            setattr(modules[layer], "ProcessPoolExecutor", pool)

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Counts tasks and failed tasks; its lifetime is a ``pool`` span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._frame = None
                if tracer.enabled:
                    self._frame = tracer._open("pool", "executor")
                    self._start = perf_counter()
                    self._cpu = _children_cpu()

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                if self._frame is not None:
                    tracer.counts["pool.tasks"] += 1
                    future.add_done_callback(self._task_done)
                return future

            @staticmethod
            def _task_done(future):
                if not future.cancelled() and future.exception() is not None:
                    tracer.counts["pool.task_failed"] += 1

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                if self._frame is not None:
                    wall = perf_counter() - self._start
                    tracer._close(self._frame, wall, failed=False)
                    tracer.counts["pool.worker_s"] += self._max_workers * wall
                    tracer.counts["pool.children_cpu_s"] += _children_cpu() - self._cpu
                    self._frame = None

        return TracedPool

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; every name is present even when its layer
        did no work on this workload."""
        spans, counts = self.spans, self.counts

        def total(pick, field: int, layer: str) -> float:
            return sum(v[field] for (lay, fn), v in spans.items() if lay == layer and pick(fn))

        def self_s(layer: str, pick=lambda owner: True) -> float:
            return sum(v for (lay, owner), v in self.self_s.items() if lay == layer and pick(owner))

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        count_fns = ("count_classical", "count_toroidal")
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s(layer)
            out[f"{layer}.failed"] = total(lambda fn: True, 2, layer)
        out["core.validate_calls"] = total(lambda fn: fn.startswith("validate_"), 0, "core")
        out["core.configs_built"] = total(lambda fn: fn == "QueensConfig", 0, "core")
        out["counting.oracle_perms"] = counts["counting.oracle_perms"]
        out["counting.oracle_perms_per_s"] = rate(
            counts["counting.oracle_perms"], total(lambda fn: fn == "oracle_count", 1, "counting")
        )
        out["counting.nodes"] = counts["counting.nodes"]
        out["counting.nodes_per_s"] = rate(counts["counting.nodes"], total(lambda fn: fn in count_fns, 1, "counting"))
        out["pool.tasks"] = counts["pool.tasks"]
        out["pool.wall_s"] = total(lambda fn: True, 1, "pool")
        out["pool.busy_frac"] = rate(counts["pool.children_cpu_s"], counts["pool.worker_s"])
        out["pool.failed"] = counts["pool.task_failed"]
        out["hypergraph.build_self_s"] = self_s(
            "hypergraph", lambda fn: fn.startswith("build_") or fn in HG_BUILDERS
        )
        out["hypergraph.count_pm_self_s"] = self_s("hypergraph", lambda fn: fn == "count_perfect_matchings")
        out["hypergraph.edges_built"] = counts["hypergraph.edges_built"]
        for fn, phase in FLIP_PHASES.items():
            out[f"flips.{phase}_self_s"] = self_s("flips", lambda f, fn=fn: f == fn)
        out["flips.enumerated"] = counts["flips.enumerated"]
        out["flips.per_s"] = rate(counts["flips.enumerated"], total(lambda fn: fn == "enumerate_flips", 1, "flips"))
        # Selection that enumerates nothing wasted nothing: yield 1.
        out["flips.select_yield"] = (
            counts["flips.selected"] / counts["flips.select_enumerated"]
            if counts["flips.select_enumerated"]
            else float(counts["flips.selected"] > 0)
        )
        out["construction.calls"] = total(lambda fn: True, 0, "construction")
        out["quadrature.evals"] = counts["quadrature.evals"]
        return out
