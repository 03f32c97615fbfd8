#!/usr/bin/env python3
"""Benchmark of condred: one seeded workload per run, in one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cycles|circuits|cli --seed N \
        --seconds S --trace 0|1

The run sets up the workload (imports, inputs, one warm-up item) three
times, then runs whole rounds of items until ``--seconds`` of timed work
have passed, checking each round's outputs against independent references
between rounds.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
#: BLAS threads; with the main thread that is the whole process
THREADS = min(2, os.cpu_count() or 1)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["cycles", "circuits", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--small", action="store_true", help="reduced rounds, for the benchmark's own test")
    return p.parse_args(argv)


def run(args) -> dict:
    """Run one workload; return the result object."""
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import condred  # noqa: F401
    import workloads
    from spans import Tracer, layer_metrics

    import_s = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        make = workloads.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = make(args.seed, workdir, small=args.small)
            workload.warm_up()
            setup_times.append(time.perf_counter() - t0)

        tracer = Tracer()
        if args.trace:
            tracer.install()
        attempted = failed = 0
        wrong: list[str] = []
        item_times: list[float] = []
        timed = 0.0
        try:
            for r in itertools.count():
                items = workload.round(r)
                outputs = []
                tracer.active = bool(args.trace)
                round_start = time.perf_counter()
                for i, item in enumerate(items):
                    t0 = time.perf_counter()
                    try:
                        outputs.append(tracer.run_item(f"{r}:{i}", item.run))
                    except Exception as exc:  # an item that raises counts as failed
                        outputs.append(exc)
                    item_times.append(time.perf_counter() - t0)
                timed += time.perf_counter() - round_start
                tracer.active = False
                for i, (item, out) in enumerate(zip(items, outputs)):
                    attempted += 1
                    if isinstance(out, Exception):
                        failed += 1
                        print(f"round {r} item {i} ({item.label}): {type(out).__name__}: {out}", file=sys.stderr)
                        continue
                    problems = item.check(out)
                    if problems:
                        failed += 1
                        wrong.append(f"round {r} item {i} ({item.label}): {'; '.join(problems)}")
                if timed >= args.seconds:
                    break
        finally:
            tracer.uninstall()
        rounds = r + 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in wrong:
        print(line, file=sys.stderr)
    finished = attempted - failed
    if args.trace:
        metrics = layer_metrics(tracer, attempted, rounds)
        write_spans(args, tracer, attempted / timed, statistics.median(item_times))
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "items_per_s": (finished / timed, "items/s"),
            "item_s_p50": (statistics.median(item_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_spans(args, tracer, items_per_s: float, item_s_p50: float) -> None:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_items_per_s": items_per_s,
        "traced_item_s_p50": item_s_p50,
        "fields": ["name", "start", "end", "parent", "item"],
        "spans": tracer.spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "condred" / "__init__.py").is_file():
        print(f"error: condred sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)  # read once, when numpy is first imported
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
