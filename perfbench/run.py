#!/usr/bin/env python3
"""bnchains benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-g6, oracle-rank, models-g9 (see README.md).
Every pass runs in a fresh interpreter (``worker.py``), one process at a time,
with its own sub-seed drawn from ``--seed``, for about ``--seconds``: a pass
starts only if it would be half done by then, and at least one pass runs.  Set-up time is sampled
in extra set-up-only processes as well as in every pass.

With ``--trace 0`` the metrics are the end-to-end ones, as medians over the
passes.  With ``--trace 1`` each pass runs twice, untraced and then traced,
and the metrics are the per-layer ones of the traced pass with the median
wall time, plus ``trace.overhead_s``: the median over passes of the traced
minus the untraced wall time.  The spans of the last traced pass are written to
``perfbench/out/spans-<workload>.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed / attempted`` is the
fail ratio: wrong answers and exceptions per attempted item, including passes
that crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import LAYER_UNITS  # noqa: E402  (worker imports no library code at load)

WORKLOADS = ("verify-g6", "oracle-rank", "models-g9")
END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s"}
SETUP_SAMPLES = 5
RUN_CAP_S = 170.0  # the whole run ends within 180 s even if a pass hangs
SPANS_DIR = HERE / "out"


def spawn(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    """Run one worker process to completion; raise RuntimeError if it fails."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--spawned-at", repr(spawned), *flags,
            ],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass with seed {seed} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        stderr = proc.stderr.strip()[-2000:]
        raise RuntimeError(f"pass with seed {seed} exited {proc.returncode}: {stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RuntimeError(f"pass with seed {seed} printed no result") from None


def tail_index(n: int) -> int:
    """Index, in ascending order, of the tail latency among ``n`` sorted items.

    The 99th percentile when at least ten items lie beyond it, else the highest
    percentile with ten beyond it, and never below the upper median.  The
    percentiles above p99 are set by a handful of garbage-collector pauses and
    vary by a fifth from run to run.
    """
    return max(min(math.ceil(0.99 * n) - 1, n - 11), n // 2)


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bnchains benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    ap.add_argument(
        "--inject-wrong", action="store_true", help="corrupt one output per pass, for smoke.py"
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bnchains" / "__init__.py").is_file():
        print(f"error: no bnchains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_CAP_S
    flags = ["--smoke"] * args.smoke + ["--inject-wrong"] * args.inject_wrong
    print("env " + json.dumps(environment(args)), flush=True)

    setup, wall, latencies, rss, layers, overhead = [], [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []

    def record(report: dict) -> None:
        nonlocal attempted, failed
        setup.append(report["setup_s"])
        attempted += report["attempted"]
        failed += len(report["problems"])
        problems.extend(report["problems"])

    def attempt(*spawn_args) -> dict | None:
        nonlocal attempted, failed
        try:
            return spawn(*spawn_args)
        except RuntimeError as exc:
            attempted += 1
            failed += 1
            problems.append(str(exc))
            return None

    for _ in range(SETUP_SAMPLES):
        report = attempt(args.workload, args.seed, flags + ["--setup-only"], deadline)
        if report:
            setup.append(report["setup_s"])

    seeds = random.Random(args.seed)
    measure_start = time.monotonic()
    durations: list[float] = []
    while time.monotonic() < deadline:
        # start a pass only if, as long as the median pass so far, it would be
        # at least half done when the measuring time is up
        half_pass = statistics.median(durations) / 2 if durations else 0.0
        if durations and time.monotonic() + half_pass > measure_start + args.seconds:
            break
        pass_start = time.monotonic()
        sub_seed = seeds.randrange(2**31)
        report = attempt(args.workload, sub_seed, flags, deadline)
        if report:
            record(report)
            wall.append(report["wall_s"])
            latencies.extend(report["latencies"])
            rss.append(report["peak_rss_mb"])
        if args.trace and report:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}.tsv"
            report = attempt(args.workload, sub_seed, flags + ["--trace", "--spans", str(spans)], deadline)
            if report:
                record(report)
                layers.append(report["layers"])
                overhead.append(report["layers"]["trace.wall_s"] - wall[-1])
        durations.append(time.monotonic() - pass_start)
        if not report:
            break

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not wall or (args.trace and not layers):
        print(f"error: no pass of {args.workload} completed", file=sys.stderr)
        return 1

    latencies.sort()
    n = len(latencies)
    k = tail_index(n)
    end_to_end = {
        "wall_s": statistics.median(wall),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_tail_ms": 1000 * latencies[k],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    print(
        f"{args.workload}: {len(wall)} passes, {n} items, tail = p{100 * (k + 1) / n:.2f}, "
        f"{time.monotonic() - started:.1f} s in all"
    )
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<14} {failed / max(attempted, 1):12.4f} ({failed} of {attempted})")

    if args.trace:
        # all per-layer figures come from one traced pass, the one with the median
        # wall time, so that its span self times add up to its wall time
        layers.sort(key=lambda layer: layer["trace.wall_s"])
        metrics = dict(layers[(len(layers) - 1) // 2])
        metrics["trace.overhead_s"] = statistics.median(overhead)
        units = PER_LAYER_UNITS
        for name, unit in units.items():
            value = metrics[name]
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
            print(f"  {name:<42} {shown} {unit}")
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
