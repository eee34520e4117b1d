"""queens-lab benchmark runner (standard library only).

    python3 perfbench/run.py --workload <verify-full|search|flips-k5> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke] [--wrong-expect]

Run from the root of a source checkout; the program is imported from
``./src``.  Every pass of a workload runs in a fresh interpreter
(``worker.py``) that calls the public CLI, ``queens_lab.cli.main(argv)``,
in-process with stdout captured, plus public library calls.  Pools get at
most min(2, usable CPUs) workers.

Op times are scaled towards a reference host speed: the host is a share
of a busy machine whose speed drifts over minutes, so every timed op is
paired with a calibration of the host's speed at that moment and
reported as ``hostspeed.scale(seconds, calibration)`` (see
``hostspeed.py``).  Set-up is timed in other processes, before and after
the timed pass, so it is scaled by the pass's median calibration.

``--trace 0`` prints the end-to-end metrics of one untraced pass, which
repeats the workload's op list: ``wall_s`` and ``cpu_s`` (user + sys of
the worker and its pool children) are the sums over the op list of each
op's median scaled time (see ``_summarise``); ``setup_s`` is the scaled
median time from spawning a worker to its ``ready`` line over 16 spawns,
half before and half after the timed pass; ``peak_rss_mib`` is the
larger of the worker's and its children's peak RSS.

``--trace 1`` splits ``--seconds`` between an untraced pass and a traced
pass (see ``tracer.py``) and prints the per-layer metrics, the untraced
per-op-group scaled times (``op.<group>_s``), ``failed_frac``,
``trace.overhead_s`` (traced minus untraced ``wall_s``) and
``host.calibration_s`` (the untraced pass's median calibration, with
which scaled times turn back into the seconds this host took).  Each CLI
op's stdout must be byte-identical in the two passes; a mismatch is a
failed op.

The second-to-last stdout line describes the run (seed, argv, every
op's timed samples, errors); the last line is the result object.
``--smoke`` uses small sizes; ``--wrong-expect`` makes the first op of
the list expect a wrong answer (see ``selftest.py``).  Exits 2 without a
result when ``./src/queens_lab`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent

TIME_LIMIT_S = 170.0
SETUP_PROBES = 8  # before and again after the timed pass
MAX_POOL_WORKERS = 2


class WorkerError(RuntimeError):
    pass


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stop(proc: subprocess.Popen) -> None:
    """Kill a worker and its pool children, and reap the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Runner:
    def __init__(self, args, root: Path, workdir: str, threads: int):
        self.args = args
        self.root = root
        self.workdir = workdir
        self.threads = threads
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, seconds: float, trace: bool = False, probe: bool = False) -> tuple[dict | None, float]:
        """Run one worker; returns (its record, set-up seconds)."""
        a = self.args
        result_path = os.path.join(self.workdir, "result.json")
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds),
            "--threads", str(self.threads), "--workdir", self.workdir, "--result", result_path,
        ]
        cmd += ["--trace"] * trace + ["--smoke"] * a.smoke + ["--wrong-expect"] * a.wrong_expect
        cmd += ["--probe"] * probe
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(max(0.0, self.deadline - perf_counter())) and proc.stdout.readline()
            setup = perf_counter() - start
            if ready != "ready\n":
                raise WorkerError("worker failed before it was ready")
            code = proc.wait(timeout=max(0.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the time limit") from None
        finally:
            if proc.returncode is None:
                _stop(proc)
            proc.stdout.close()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        if probe:
            return None, setup
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle), setup


def _summarise(record: dict) -> dict:
    """Each op's median scaled time, summed over the op list (and per group).

    A sample is scaled by the mean of the calibrations timed just before
    and just after it (see ``hostspeed``), so most of a slow spell of the
    host, which lasts for minutes, drops out and the median steadies.
    """
    def median_scaled(op: dict, key: str) -> float:
        return statistics.median(hostspeed.scale(t, c) for t, c in zip(op[key], op["calibration_s"]))

    groups = dict.fromkeys(workloads.GROUPS, 0.0)
    for op in record["ops"]:
        groups[op["group"]] += median_scaled(op, "wall_s")
    return {
        "wall_s": sum(median_scaled(op, "wall_s") for op in record["ops"]),
        "cpu_s": sum(median_scaled(op, "cpu_s") for op in record["ops"]),
        "calibration_s": statistics.median(c for op in record["ops"] for c in op["calibration_s"]),
        "groups": groups,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner) -> tuple[dict, dict]:
    """Untraced pass: end-to-end metrics."""
    setups = [runner.spawn(0, probe=True)[1] for _ in range(SETUP_PROBES)]
    record, _ = runner.spawn(runner.args.seconds)
    setups += [runner.spawn(0, probe=True)[1] for _ in range(SETUP_PROBES)]
    summary = _summarise(record)
    metrics = {
        "wall_s": _metric(summary["wall_s"], "s"),
        "cpu_s": _metric(summary["cpu_s"], "s"),
        "setup_s": _metric(hostspeed.scale(statistics.median(setups), summary["calibration_s"]), "s"),
        "peak_rss_mib": _metric(record["peak_rss_mib"], "MiB"),
    }
    info = {
        "op_walls_s": {op["label"]: [round(w, 4) for w in op["wall_s"]] for op in record["ops"]},
        "op_cpus_s": {op["label"]: [round(w, 4) for w in op["cpu_s"]] for op in record["ops"]},
        "op_calibration_s": {op["label"]: [round(w, 5) for w in op["calibration_s"]] for op in record["ops"]},
        "setup_samples_s": setups,
        "errors": record["errors"],
    }
    return {"attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}, info


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    """An untraced and a traced pass: per-layer metrics."""
    half = runner.args.seconds / 2.0
    plain, _ = runner.spawn(half)
    traced, _ = runner.spawn(half, trace=True)
    mismatched = sorted(
        label
        for label, sha in traced["stdout_sha"].items()
        if plain["stdout_sha"].get(label, sha) != sha
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"] + len(mismatched)
    plain_sum, traced_sum = _summarise(plain), _summarise(traced)
    values = dict(traced["trace"])
    values["trace.overhead_s"] = traced_sum["wall_s"] - plain_sum["wall_s"]
    values["failed_frac"] = failed / attempted
    values["host.calibration_s"] = plain_sum["calibration_s"]
    for group, seconds in plain_sum["groups"].items():
        values[f"op.{group}_s"] = seconds
    metrics = {name: _metric(value, _unit(name)) for name, value in sorted(values.items())}
    info = {
        "samples": [sum(len(op["wall_s"]) for op in r["ops"]) for r in (plain, traced)],
        "errors": plain["errors"] + traced["errors"] + [f"{m}: stdout differs when traced" for m in mismatched],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    parser.add_argument("--wrong-expect", action="store_true", help="expect a wrong answer (self-test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "queens_lab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no ./src/queens_lab here; run from the root of a queens-lab checkout\n")
        return 2
    scratch = root / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(dir=scratch), root)
    try:
        workloads.write_inputs(args.workload, args.seed, args.smoke, workdir)
        runner = Runner(args, root, workdir, min(MAX_POOL_WORKERS, _usable_cpus()))
        result, info = (measure_traced if args.trace else measure)(runner)
    except WorkerError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "threads": runner.threads} | info
    info["argv"] = [op.label for op in workloads.build_ops(args.workload, args.seed, args.smoke, runner.threads, workdir)]
    print(json.dumps(info))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
