#!/usr/bin/env python3
"""Time ``condred compile-circuit`` end to end on forced measured circuits.

Each circuit (built with ``condred.circuits``) puts a qubit in superposition,
measures it and copies the result onto the output qubit, then resets the
output qubit and rotates it so that the acceptance probability is pinned
at <= 0.1 or >= 0.9.  Every run is one ``python -m condred.cli
compile-circuit`` child process; the record holds its wall time, its peak
RSS (the child's own ``ru_maxrss``, from ``wait4``: ``RUSAGE_CHILDREN``
would give the largest over all children so far), the bytes of the
instance it wrote, its dimension and the decision line it printed.

One process run cannot resolve a few-percent change on a shared machine,
so each circuit runs :data:`ROUNDS` times, every round going once through
all circuits.  Beside the per-run records, the result holds each circuit's
median and quartiles of ``wall_s`` and ``peak_rss_mb``.

Usage (from the root of a checkout):

    python scripts/bench_compile.py --out bench/BENCH_compile.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from condred.circuits import (  # noqa: E402
    GeneralCircuit,
    controlled_flip_gate,
    reset_gate,
    unitary_gate,
)
from condred.serialize import circuit_to_json, save_json  # noqa: E402

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
QUBITS = (2, 3, 4)
#: runs of each circuit
ROUNDS = 10


def forced_circuit(h: int, accept: bool) -> GeneralCircuit:
    """Four gates on ``h`` >= 2 qubits; acceptance sin^2(0.3) ~ 0.087, or
    its complement when ``accept``."""
    theta = 0.6
    rot = np.array(
        [[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]],
        dtype=complex,
    )
    if accept:
        rot = rot @ X
    gates = (
        unitary_gate(HAD, (h,), h),
        controlled_flip_gate(h, 1, h),
        reset_gate(1, h),
        unitary_gate(rot, (1,), h),
    )
    return GeneralCircuit(h, gates)


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def compile_once(h: int, accept: bool, workdir: Path) -> dict:
    circuit = workdir / f"circuit_h{h}_{int(accept)}.json"
    out = workdir / f"compiled_h{h}_{int(accept)}.json"
    log = workdir / "stdout.txt"
    save_json(circuit_to_json(forced_circuit(h, accept)), circuit)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "condred.cli", "compile-circuit", str(circuit), "--out", str(out)]
    with open(log, "w") as fh:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    printed = log.read_text().strip()
    record = {
        "qubits": h,
        "accept": accept,
        "exit": child.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "output_bytes": out.stat().st_size if out.exists() else None,
        "printed": printed,
        "agree": printed.endswith("(agree)"),
    }
    if out.exists():
        with open(out) as fh:
            doc = json.load(fh)
        matrix = doc["matrices"][0]
        record["n"] = doc["params"]["n"]
        record["schema"] = matrix.get("format", "dense")
        record["stored_entries"] = len(matrix["entries"] if "entries" in matrix else matrix["data"])
    return record


def _summary(runs: list[dict]) -> dict:
    """One circuit's median and quartiles of wall time and peak RSS over its runs."""
    out = {"qubits": runs[0]["qubits"], "accept": runs[0]["accept"]}
    for name in ("wall_s", "peak_rss_mb"):
        values = [r[name] for r in runs]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")[::2]
        out[name] = {"median": statistics.median(values), "quartiles": quartiles}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    args = parser.parse_args()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-compile-") as tmp:
        for r in range(ROUNDS):
            for h in QUBITS:
                for accept in (True, False):
                    record = {"round": r, **compile_once(h, accept, Path(tmp))}
                    runs.append(record)
                    print(json.dumps(record), flush=True)
    result = {
        "command": "python scripts/bench_compile.py " + " ".join(sys.argv[1:]),
        "machine": {
            "cpu": _cpu(),
            "vcpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rounds": ROUNDS,
        "circuits": [_summary([r for r in runs if (r["qubits"], r["accept"]) == (h, accept)])
                     for h in QUBITS for accept in (True, False)],
        "runs": runs,
    }
    save_json(result, args.out)
    return 0 if all(r["exit"] == 0 and r["agree"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
