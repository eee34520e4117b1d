"""Self-test of the benchmark runner at small sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every workload of
``workloads.py``, ``flips-k5`` too (which ``BENCHMARK.json`` leaves
out), it checks
that a ``--smoke`` run, untraced and traced, reports every metric named in
``BENCHMARK.json`` with no failed op, and that a run with
``--wrong-expect`` (the first op of the list expects a wrong answer)
reports the failure: ``correct`` false and ``failed`` > 0.  Exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = run(workload, trace)
                if set(result["metrics"]) != names[trace]:
                    raise AssertionError(
                        f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ names[trace])}"
                    )
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    raise AssertionError(f"{workload} trace={trace}: smoke run failed: {result}")
                wrong = run(workload, trace, "--wrong-expect")
                if wrong["correct"] or wrong["failed"] < 1:
                    raise AssertionError(f"{workload} trace={trace}: wrong expectation not detected: {wrong}")
                print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                      f"wrong expectation failed {wrong['failed']} of {wrong['attempted']}")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
