"""The checked-in scripts still run against the package: the demo end to
end, the benchmark drivers as far as their imports and argument parsing."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import condred

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
