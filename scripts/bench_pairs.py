#!/usr/bin/env python3
"""Compare this checkout with a parent checkout on one benchmark workload.

Runs ``perfbench/run.py`` in alternating pairs, one run of the parent and
one of this checkout per pair, the parent first in odd pairs (1-based), each
run in its own checkout.  Prints every end-to-end metric named in
``BENCHMARK.json`` of both runs as each pair ends, then each side's median
and quartiles of each metric and the share of pairs this checkout won on it
(ties count for neither side).  Writes the two records
``bench/BENCH_<tag>-parent_<workload>.json`` and
``bench/BENCH_<tag>_<workload>.json``; each holds the command, the machine,
the run nearest its side's median ``items_per_s`` as ``result``, every run's
result object in run order as ``runs``, and the pair summary.

Usage (from the root of a checkout; the parent is another checkout, for
example a ``git clone`` of this repository at the parent commit):

    python scripts/bench_pairs.py --parent ../parent --workload circuits \\
        --seed 1501 --pairs 10 --seconds 20 --tag pr15
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORDER = "alternating which side runs first, the parent first in odd pairs"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--workload", required=True, choices=["cycles", "circuits", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--tag", required=True, help="names the records, as in bench/BENCH_<tag>_<workload>.json")
    return p.parse_args(argv)


def run_once(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``; its result object (last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], names: list[str]) -> dict:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else values * 2
        out[name] = {"median": statistics.median(values), "quartiles": quartiles}
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    parent = args.parent.resolve()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            runs[side].append(run_once(parent if side == "parent" else ROOT, args))
        print(f"pair {i + 1}: " + "; ".join(side + " " + ", ".join(
            f"{name} {runs[side][-1]['metrics'][name]['value']:.4g}" for name in names) for side in sides),
            flush=True)

    won = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        wins = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                   for p, c in zip(runs["parent"], runs["change"]))
        won[name] = wins / args.pairs
    sums = {side: summary(runs[side], names) for side in runs}
    print(f"{'metric':14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>5}")
    for name in names:
        cells = [f"{s['median']:.4g} [{s['quartiles'][0]:.4g}, {s['quartiles'][1]:.4g}]"
                 for s in (sums["parent"][name], sums["change"][name])]
        print(f"{name:14} {cells[0]:>34} {cells[1]:>34} {won[name]:>5.0%}")

    command = f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} " \
              f"--seconds {args.seconds:g} --trace 0"
    host = machine()
    sources = {"parent": f"commit {commit(parent)}, the parent of the change", "change": "the commit that adds this file"}
    for side, suffix in (("parent", "-parent"), ("change", "")):
        median = sums[side]["items_per_s"]["median"]
        nearest = min(runs[side], key=lambda r: abs(r["metrics"]["items_per_s"]["value"] - median))
        pairs = {"count": args.pairs, "order": ORDER, "failed": sum(r["failed"] for r in runs[side]),
                 "medians": sums[side]}
        if side == "change":
            pairs["won"] = won
        doc = {"source": sources[side], "workload": args.workload, "seed": args.seed, "command": command,
               "machine": host, "result": nearest, "runs": runs[side], "pairs": pairs}
        path = ROOT / "bench" / f"BENCH_{args.tag}{suffix}_{args.workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
