"""One benchmark pass in a fresh interpreter.

Run by ``run.py``, one process at a time::

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T [--setup-only]
        [--trace] [--spans FILE] [--smoke] [--inject-wrong]

It imports ``bnchains`` from the ``src`` directory of the checkout it sits in,
builds the workload's inputs, runs one timed pass, checks every output after
the timed region and prints one JSON object on stdout.  ``--spawned-at`` is
the parent's ``time.monotonic()`` just before it started this process; both
processes read the same system-wide monotonic clock, so set-up time covers
interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-layer metrics of a traced pass and their units; run.py adds trace.overhead_s.
MODULE_SELF = [f"{m}.self_s" for m in (
    "tableaux", "elliptic", "effective", "serialize", "render",
    "cli", "tropical", "oracle", "verify", "bench",
)]
LAYER_UNITS = {
    "oracle.bn_rank.calls": "count",
    "oracle.bn_rank.busy_s": "s",
    "oracle.bn_rank.self_s": "s",
    "oracle.subdivide_chain.busy_s": "s",
    "oracle.vertices": "count",
    "oracle.is_winnable.calls": "count",
    "oracle.is_winnable.busy_s": "s",
    "tropical.tropical_rank.calls": "count",
    "tropical.tropical_rank.busy_s": "s",
    "tropical.tropical_rank.self_s": "s",
    "tropical.rank_at_least.calls": "count",
    "tropical.reduce_to_q0.calls": "count",
    "tropical.divisor_from_tableau.busy_s": "s",
    "tropical.tropical_vanishing_table.busy_s": "s",
    "tableaux.enumerate_tableaux.busy_s": "s",
    "tableaux.enumerate_tableaux.items": "count",
    "elliptic.series.busy_s": "s",
    "effective.convert.busy_s": "s",
    "serialize.busy_s": "s",
    "serialize.bytes": "bytes",
    "render.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.stdout_bytes": "bytes",
    "verify.run_suite.busy_s": "s",
    "verify.checks_run": "count",
    **{name: "s" for name in MODULE_SELF},
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def import_library():
    """Import ``bnchains`` from this checkout's ``src``, never from site-packages."""
    if not (SRC / "bnchains" / "__init__.py").is_file():
        raise SystemExit(f"error: no bnchains sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bnchains

    if Path(bnchains.__file__).resolve().parent != SRC / "bnchains":
        raise SystemExit(f"error: imported bnchains from {bnchains.__file__}, not {SRC}")
    return bnchains


def layer_metrics(summary: dict, extra: dict) -> dict:
    labels = summary["labels"]
    module_busy = summary["module_busy_s"]
    module_self = summary["module_self_s"]
    values = {
        "oracle.vertices": summary["bn_rank_vertices"],
        "tableaux.enumerate_tableaux.items": summary["enumerated"],
        "elliptic.series.busy_s": module_busy.get("elliptic", 0.0),
        "effective.convert.busy_s": module_busy.get("effective", 0.0),
        "serialize.busy_s": module_busy.get("serialize", 0.0),
        "serialize.bytes": extra.get("serialize_bytes", 0),
        "render.busy_s": module_busy.get("render", 0.0),
        "cli.main.stdout_bytes": len(extra.get("cli_stdout", "").encode()),
        "verify.checks_run": extra.get("checks_run", 0),
        "trace.spans": summary["spans"],
    }
    for name in LAYER_UNITS:
        if name in values or name.startswith("trace."):
            continue
        if name in MODULE_SELF:
            values[name] = module_self.get(name.removesuffix(".self_s"), 0.0)
        else:
            label, key = name.rsplit(".", 1)
            values[name] = labels[label][key]
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args(argv)

    bnchains = import_library()
    from workloads import WORKLOADS, Pass

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.smoke)
    report = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    done = Pass(inject_wrong=args.inject_wrong)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(bnchains)
        with tracer:
            workload.run(inputs, done)
        elapsed = tracer.wall_s
    else:
        start = time.perf_counter()
        workload.run(inputs, done)
        elapsed = time.perf_counter() - start
    wall = elapsed - done.check_s
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted, problems = workload.check(inputs, done)
    report.update(
        wall_s=wall,
        latencies=done.latencies,
        peak_rss_mb=rss_kib / 1024,
        attempted=attempted,
        problems=problems,
    )
    if args.trace:
        report["layers"] = layers = layer_metrics(tracer.summary(), done.extra)
        # checks between items ran inside the root span; they are not the pass's work
        layers["bench.self_s"] -= done.check_s
        layers["trace.wall_s"] = wall
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
