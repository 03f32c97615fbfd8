"""The benchmark's own test: each workload at reduced size runs with no
failures, and the independent checks count a wrong answer as failed.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_run(workload, trace=0, seed=3):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace, small=True)
    return run.run(args)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", ["cycles", "circuits", "cli"])
def test_small_workload_has_no_failures(workload):
    result = small_run(workload)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload,layers",
    [
        ("cycles", ("reductions", "problems")),
        ("circuits", ("reductions", "problems", "circuits")),
        ("cli", ("reductions", "problems", "circuits", "series", "serialize", "cli")),
    ],
)
def test_traced_run_reports_every_layer_metric(workload, layers):
    first, second = (small_run(workload, trace=1, seed=seed)["metrics"] for seed in (3, 4))
    assert units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for layer in layers:
        assert any(m["value"] > 0 for name, m in first.items() if name.startswith(layer + ".")), layer
    for name in ("reductions.out_dim_max", "series.terms"):
        assert first[name] == second[name], name


def test_flipped_expected_decision_counts_as_failed(monkeypatch):
    flip = {"One": "Zero", "Zero": "One"}
    closed_form = reference.closed_form_decision
    monkeypatch.setattr(reference, "closed_form_decision", lambda inp: flip[closed_form(inp)])
    result = small_run("cycles")
    assert not result["correct"] and result["failed"] == result["attempted"]

    monkeypatch.setattr(workloads, "_answer", lambda name: flip[workloads.GEN[name][5].title()])
    result = small_run("cli")
    # reduce x3, solve x4 and chain x2 carry a decision
    assert not result["correct"] and result["failed"] == 9


def test_perturbed_acceptance_counts_as_failed(monkeypatch):
    simulate = reference.simulate
    monkeypatch.setattr(reference, "simulate", lambda circ: simulate(circ) + 1e-6)
    result = small_run("circuits")
    assert not result["correct"] and result["failed"] == result["attempted"]
    result = small_run("cli")
    assert not result["correct"] and result["failed"] == 1  # compile-circuit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycles", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
