"""Harness self-test at tiny size.

    python3 bench/selftest.py

Runs every workload for a fraction of a second on small inputs, end to end
and traced, and checks that each metric named in BENCHMARK.json prints
with its unit and sample count and appears in the result object.  Then it
injects a wrong expected value into the dynamics checker (routegame is
left alone) and checks that every item is counted as failed and the run
is marked incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "sweep_count": 11, "sweep_ops": 6,
    "oracle_grid": 11, "oracle_ops": 4,
    "dynamics_ops": 16,
    "cli_ops": 3,
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
            sizes=TINY,
        )
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return out.getvalue().splitlines()


def check_printed(lines: list[str], metrics: list[dict]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        raise AssertionError(f"metrics {sorted(result['metrics'])}")
    printed = {line.split()[1]: line for line in lines if line.startswith("metric ")}
    for m in metrics:
        line = printed.get(m["name"], "")
        if f" {m['unit']} (" not in line or "n=" not in line:
            raise AssertionError(f"{m['name']}: no unit or sample count in {line!r}")
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{m['name']}: unit {result['metrics'][m['name']]['unit']!r}")
    return result


def main() -> int:
    for workload in run.WORKLOAD_NAMES:
        result = check_printed(run_tiny(workload, 0), SPEC["end_to_end"])
        if not result["correct"] or result["attempted"] < 1:
            raise AssertionError(f"{workload}: {result}")
        print(f"ok {workload} end to end: {result['attempted']} items, {result['failed']} failed")
    check_printed(run_tiny("dynamics", 1), SPEC["per_layer"])
    print("ok traced run: every per-layer metric printed")

    dynamics = sys.modules["workloads"].Dynamics
    reference = dynamics.reference
    dynamics.reference = lambda self, s, pi: tuple(f + s.demand for f in reference(self, s, pi))
    try:
        lines = run_tiny("dynamics", 0)
    finally:
        dynamics.reference = reference
    result = check_printed(lines, SPEC["end_to_end"])
    rate_line = next(line for line in lines if line.startswith("metric items_per_s "))
    base = f"failed_frac = {result['attempted']}/{result['attempted']}"
    if result["correct"] or result["failed"] != result["attempted"] or base not in rate_line:
        raise AssertionError(f"injected failure not counted: {result} / {rate_line}")
    print(f"ok injected wrong expected value: {result['failed']}/{result['attempted']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
