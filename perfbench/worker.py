"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``.  Set-up is the import of
the program (and, when tracing, installing the wrappers); the worker then
prints ``ready`` and cycles through the workload's ops back to back (a
closed loop with one client) until starting the next op would overrun
``--seconds`` by that op's median time.  Every op runs at least once.
Each op is timed alone, and every sample is recorded with the mean of the
host-speed calibrations (``hostspeed.py``) timed just before and just
after it, each about a twentieth of the op's time.  An op's answer is
checked afterwards, outside the timed region and with tracing off.  A
failed op is counted, never fatal.  The pass's record is written as JSON
to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import workloads
from hostspeed import calibrate, reps_for


def _cpu() -> float:
    """User + system seconds of this process and its reaped children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024.0


def _run_op(op: workloads.Op, cli, tracer):
    """Run one op; returns (wall_s, cpu_s, answer, stdout, error)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    answer = error = None
    if tracer is not None:
        tracer.enabled = True
    cpu0 = _cpu()
    start = perf_counter()
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
            if code != 0:
                error = f"exit code {code}: {err.getvalue().strip()}"
        else:
            module, name, args = op.call
            answer = getattr(importlib.import_module(f"queens_lab.{module}"), name)(*args)
    except Exception as exc:  # a failed op is counted, the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    cpu = _cpu() - cpu0
    if tracer is not None:
        tracer.enabled = False
    return wall, cpu, answer, out.getvalue(), error


def _check(op: workloads.Op, answer, stdout: str) -> str | None:
    try:
        if op.argv is not None:
            answer = json.loads(stdout)
        return op.check(answer, op.expect)
    except Exception as exc:  # malformed output is a wrong answer
        return f"check raised {type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-expect", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit once ready (set-up timing)")
    args = parser.parse_args()

    from queens_lab import cli

    src = os.path.realpath(os.path.join("src", "queens_lab"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != src:
        sys.stderr.write(f"queens_lab imported from {cli.__file__}, not from ./src\n")
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.build_ops(
        args.workload, args.seed, args.smoke, args.threads, args.workdir, args.wrong_expect
    )
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0

    samples: list[list[tuple[float, float, int]]] = [[] for _ in ops]  # per op: (wall, cpu, calibration index)
    cals = [calibrate(3)]
    stdout_sha: dict[str, str] = {}
    errors: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    i = 0
    while True:
        op = ops[i]
        wall, cpu, answer, stdout, error = _run_op(op, cli, tracer)
        cals.append(calibrate(reps_for(wall)))
        attempted += 1
        samples[i].append((wall, cpu, len(cals) - 2))
        if error is None:
            error = _check(op, answer, stdout)
        if error is None and op.argv is not None:
            sha = hashlib.sha256(stdout.encode()).hexdigest()
            if stdout_sha.setdefault(op.label, sha) != sha:
                error = "stdout differs from an earlier run of the same argv"
        if error is not None:
            failed += 1
            errors.append(f"{op.label}: {error}")
        i = (i + 1) % len(ops)
        if samples[i] and perf_counter() - start + statistics.median(w for w, _, _ in samples[i]) > args.seconds:
            break

    result = {
        "ops": [
            {
                "label": op.label,
                "group": op.group,
                "wall_s": [w for w, _, _ in s],
                "cpu_s": [c for _, c, _ in s],
                "calibration_s": [(cals[j] + cals[j + 1]) / 2 for _, _, j in s],
            }
            for op, s in zip(ops, samples)
        ],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "stdout_sha": stdout_sha,
        "peak_rss_mib": _peak_rss_mib(),
        "trace": tracer.metrics() if tracer is not None else None,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
