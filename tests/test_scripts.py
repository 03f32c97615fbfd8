"""The checked-in scripts still run against the package: the demo end to
end, the benchmark drivers as far as their imports and argument parsing."""

import importlib.util
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import condred

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _import(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_demo_decides_as_its_circuit_accepts():
    src = str(Path(condred.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "compile_circuit_demo.py"), "--qubits", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = re.search(r"^oracle decision: (\w+) .*; expected from the acceptance: (\w+)$", proc.stdout, re.M)
    assert found, proc.stdout
    assert found[1] == found[2] == "One"


def test_the_bench_drivers_import():
    compile_bench = _import("bench_compile")
    assert compile_bench.forced_circuit(2, accept=True).h == 2
    pairs = _import("bench_pairs")
    args = pairs.parse_args(["--parent", ".", "--workload", "cli", "--seed", "1", "--tag", "t"])
    assert (args.pairs, args.seconds) == (10, 20.0)


def test_the_pair_records_hold_every_run(tmp_path, monkeypatch, capsys):
    pairs = _import("bench_pairs")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    count = itertools.count(1)

    def run_once(checkout, args):
        k = next(count)
        return {"checkout": str(checkout), "attempted": 10 * k, "failed": k % 2,
                "metrics": {name: {"value": k + j / 10, "unit": "u"} for j, name in enumerate(names)}}

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "commit", lambda checkout: "abc1234")
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--workload", "cli", "--seed", "1",
                       "--pairs", "3", "--tag", "t"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pair ")]
    assert len(lines) == 3 and all(line.count(f" {name} ") == 2 for line in lines for name in names)
    for suffix, checkout in (("-parent", tmp_path / "parent"), ("", tmp_path)):
        record = json.loads((tmp_path / "bench" / f"BENCH_t{suffix}_cli.json").read_text())
        runs = record["runs"]
        assert len(runs) == 3 and all(r["checkout"] == str(checkout) for r in runs)
        # in run order: the parent runs first in odd pairs
        assert [r["attempted"] for r in runs] == ([10, 40, 50] if suffix else [20, 30, 60])
        assert all(set(r["metrics"]) == set(names) and {"attempted", "failed"} <= set(r) for r in runs)
        assert record["pairs"]["failed"] == sum(r["failed"] for r in runs)
