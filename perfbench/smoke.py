#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in about half a minute.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` on a tiny slice of the inputs, with the
real checks, untraced and traced, and requires a correct result whose metric
names and units match ``BENCHMARK.json`` and whose traced span self times add
up to the traced wall time, with the layers the workload exists to measure
among them.  It then injects one wrong answer per pass and
requires that the result is marked incorrect with the wrong answers counted
in ``failed``.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from worker import MODULE_SELF  # noqa: E402

# per-layer metrics each workload must move when traced: the layers it exists to measure
EXERCISED = {
    "verify-g6": (
        "verify.run_suite.busy_s",
        "verify.checks_run",
        "oracle.is_winnable.calls",
        "tropical.tropical_rank.calls",
        "tropical.reduce_to_q0.calls",
    ),
    "oracle-rank": ("oracle.bn_rank.calls", "oracle.vertices", "oracle.subdivide_chain.busy_s"),
    "models-g9": ("tableaux.enumerate_tableaux.items", "serialize.bytes", "cli.main.stdout_bytes"),
}


def run(workload: str, trace: int, *flags: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke", *flags,
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str, errors: list) -> None:
    if not condition:
        errors.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list[str] = []
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists other workloads than run.py", errors)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: incorrect: {result}", errors)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metrics differ from BENCHMARK.json", errors)
            if trace:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                covered = sum(values[name] for name in MODULE_SELF)
                wall = values["trace.wall_s"]
                expect(abs(covered - wall) <= 0.01 * wall,
                       f"{label}: self times add up to {covered}, wall {wall}", errors)
                for name in EXERCISED[workload]:
                    expect(values[name] > 0, f"{label}: {name} is {values[name]}", errors)
        bad = run(workload, 0, "--inject-wrong")
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{workload}: injected wrong answer not counted: {bad}", errors)
        print(f"{workload}: {len(errors)} problems so far", flush=True)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
