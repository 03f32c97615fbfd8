"""JSON round-trips and the batch command line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condred.circuits import GeneralCircuit, append_cleanup, simulate_acceptance, unitary_gate
from condred.cli import main
from condred.problems import ConditionParams, Kind, gen_instance
import condred
from condred import serialize
from condred.serialize import (
    SchemaError,
    circuit_from_json,
    circuit_to_json,
    digest,
    dumps,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    save_json,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class TestRoundTrips:
    def test_matrix(self, rng):
        a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        doc = matrix_to_json(a)
        assert doc["rows"] == 3 and doc["cols"] == 5
        assert np.array_equal(matrix_from_json(doc), a)

    def test_instance_all_kinds(self):
        params = {
            Kind.DET: ConditionParams(2, 1, 3.0, 0.2),
            Kind.SUMITMATPROD: ConditionParams(2, 3, 2.0, 0.05),
            Kind.V_MATINV: ConditionParams(3, 1, 4.0, 0.05),
            Kind.SINGULAR: ConditionParams(3, 1, 1.0, 0.2),
        }
        for kind, p in params.items():
            inst = gen_instance(kind, p, seed=4)
            back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
            assert back.kind is inst.kind
            assert back.params == inst.params
            assert all(np.array_equal(a, b) for a, b in zip(back.matrices, inst.matrices))
            assert back.s == inst.s and back.t == inst.t and back.E == inst.E
            assert back.b == inst.b

    def test_complex_b_encoding(self):
        inst = gen_instance(Kind.V_MATPOW, ConditionParams(2, 3, 2.0, 0.05), seed=1, want_one=False)
        doc = instance_to_json(inst)
        if isinstance(inst.b, complex) and inst.b.imag != 0:
            assert isinstance(doc["b"], list) and len(doc["b"]) == 2
        assert instance_from_json(doc).b == inst.b

    def test_circuit_roundtrip(self):
        circ = append_cleanup(GeneralCircuit(2, (unitary_gate(HAD, (1,), 2),)))
        back = circuit_from_json(circuit_to_json(circ))
        assert back.h == circ.h
        assert abs(simulate_acceptance(back) - simulate_acceptance(circ)) < 1e-12

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=8,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_floats_roundtrip_exactly(self, values):
        # shortest-repr decimals must survive a JSON round trip bit for bit,
        # including signed zeros, subnormals and extreme magnitudes
        a = np.array(values, dtype=float).reshape(2, 4).astype(complex)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
        assert np.array_equal(back.view(float), a.view(float))

    def test_save_json_streams_the_dumps_text(self, rng, tmp_path):
        small = instance_to_json(gen_instance(Kind.MATINV, ConditionParams(3, 1, 4.0, 0.05), seed=2))
        # a document long enough that the encoder's chunks are written in
        # several batches
        big = {"a": matrix_to_json(rng.normal(size=(128, 128))), "b": [1, -0.0, 2.5e-310]}
        assert sum(1 for _ in serialize._ENCODER.iterencode(big)) > serialize._CHUNKS
        for doc in (small, big):
            path = tmp_path / "doc.json"
            assert save_json(doc, path) == digest(doc)
            assert path.read_text() == dumps(doc) + "\n"

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(SchemaError):
            instance_from_json({"type": "NOPE", "params": {}, "matrices": []})
        with pytest.raises(SchemaError):
            circuit_from_json({"qubits": 1, "gates": [{"kind": "warp", "targets": [1]}]})


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "matinv.json"
    assert run("gen", "--kind", "MATINV", "--n", 4, "--kappa", 6, "--epsilon", 0.05,
               "--seed", 7, "--decision", "one", "--out", path) == 0
    return path


class TestCli:
    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--kind", "DET+", "--n", 3, "--kappa", 4, "--epsilon", 0.2,
                       "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_infeasible_params_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run("gen", "--kind", "DET", "--n", 1, "--kappa", 1.5, "--epsilon", 3.0,
                   "--decision", "zero", "--seed", 0, "--out", out)
        assert code == 2
        assert not out.exists()

    def test_verify_pass_and_corrupted(self, inst_file, tmp_path, capsys):
        assert run("verify", inst_file) == 0
        doc = json.loads(inst_file.read_text())
        doc["params"]["kappa"] = 1.0  # sigma_min now sits below 1/kappa
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", bad) == 1
        out = capsys.readouterr().out
        assert "sigma_min >= 1/kappa" in out

    def test_verify_directory_batch(self, tmp_path, capsys):
        for seed in range(3):
            run("gen", "--kind", "MATPOW", "--n", 3, "--m", 4, "--kappa", 2,
                "--epsilon", 0.02, "--seed", seed, "--out", tmp_path / f"i{seed}.json")
        assert run("verify", tmp_path) == 0
        assert "3/3 instances pass" in capsys.readouterr().out

    def test_reduce_and_report(self, inst_file, tmp_path):
        out = tmp_path / "out.json"
        report = tmp_path / "report.json"
        code = run("reduce", inst_file, "--rule", "matinv_to_posmatinv",
                   "--out", out, "--report", report, "--measure")
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["decisions"]["source"]["value"] == doc["decisions"]["target"]["value"]
        assert doc["identity_residual"] <= 1e-9
        bounds = doc["provenance"][0]["bounds"]
        assert all(b["measured"] is not None for b in bounds)
        got = instance_from_json(json.loads(out.read_text()))
        assert got.kind is Kind.MATINV_PLUS

    def test_reduce_wrong_rule_is_usage_error(self, inst_file, tmp_path):
        assert run("reduce", inst_file, "--rule", "det_to_posdet",
                   "--out", tmp_path / "o.json") == 2
        assert run("reduce", inst_file, "--rule", "bogus",
                   "--out", tmp_path / "o.json") == 2

    def test_chain_equals_repeated_reduce(self, tmp_path):
        src = tmp_path / "pow.json"
        run("gen", "--kind", "MATPOW", "--n", 2, "--m", 3, "--kappa", 2,
            "--epsilon", 0.02, "--seed", 3, "--decision", "one", "--out", src)
        step1 = tmp_path / "s1.json"
        step2 = tmp_path / "s2.json"
        assert run("reduce", src, "--rule", "matpow_to_matinv", "--out", step1) == 0
        assert run("reduce", step1, "--rule", "matinv_to_posmatinv", "--out", step2) == 0
        chained = tmp_path / "chained.json"
        assert run("chain", src, "--rules", "matpow_to_matinv,matinv_to_posmatinv",
                   "--out", chained) == 0
        assert chained.read_bytes() == step2.read_bytes()

    def test_chain_ill_typed(self, inst_file, tmp_path):
        assert run("chain", inst_file, "--rules", "det_to_posdet",
                   "--out", tmp_path / "o.json") == 2

    def test_report_reproducible_up_to_wall_time(self, inst_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for report in (r1, r2):
            run("solve", inst_file, "--method", "oracle", "--report", report)
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    def test_compile_circuit(self, tmp_path):
        from condred.serialize import save_json

        circ_doc = {
            "qubits": 2,
            "merlin_qubits": 0,
            "gates": [{"kind": "unitary", "targets": [1],
                       "matrices": [matrix_to_json(X)]}],
        }
        path = tmp_path / "circ.json"
        save_json(circ_doc, path)
        out = tmp_path / "compiled.json"
        report = tmp_path / "report.json"
        assert run("compile-circuit", path, "--target", "matinv_plus",
                   "--out", out, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["simulated_acceptance"] == 1.0
        assert doc["decisions"]["oracle"]["value"] == "One"
        inst = instance_from_json(json.loads(out.read_text()))
        assert inst.kind is Kind.MATINV_PLUS

    def test_compile_itmatprod_target(self, tmp_path):
        from condred.serialize import save_json

        circ_doc = {"qubits": 2, "merlin_qubits": 0, "gates": []}
        path = tmp_path / "circ.json"
        save_json(circ_doc, path)
        out = tmp_path / "compiled.json"
        report = tmp_path / "report.json"
        assert run("compile-circuit", path, "--target", "itmatprod", "--out", out,
                   "--report", report) == 0
        inst = instance_from_json(json.loads(out.read_text()))
        assert inst.kind is Kind.ITMATPROD
        assert inst.params.kappa == 4.0  # 2^h contraction bound
        doc = json.loads(report.read_text())
        assert doc["simulated_acceptance"] == 0.0  # identity circuit never accepts
        assert doc["decisions"]["oracle"]["value"] == "Zero"

    def test_solve_series_vs_oracle(self, tmp_path):
        for seed in range(10):
            src = tmp_path / f"plus{seed}.json"
            decision = "one" if seed % 2 == 0 else "zero"
            run("gen", "--kind", "MATINV+", "--n", 3, "--kappa", 4, "--epsilon", 0.3,
                "--seed", seed, "--decision", decision, "--out", src)
            r_oracle = tmp_path / f"ro{seed}.json"
            r_series = tmp_path / f"rs{seed}.json"
            assert run("solve", src, "--method", "oracle", "--report", r_oracle) == 0
            assert run("solve", src, "--method", "series", "--report", r_series) == 0
            want = json.loads(r_oracle.read_text())["decisions"]["oracle"]["value"]
            got = json.loads(r_series.read_text())["decisions"]["series"]["value"]
            assert got == want

    def test_solve_series_wrong_kind(self, inst_file):
        assert run("solve", inst_file, "--method", "series") == 2

    def test_solve_singular(self, tmp_path):
        src = tmp_path / "sing.json"
        run("gen", "--kind", "SINGULAR", "--n", 4, "--epsilon", 0.2, "--seed", 2,
            "--decision", "one", "--out", src)
        report = tmp_path / "r.json"
        assert run("solve", src, "--method", "oracle", "--report", report) == 0
        assert json.loads(report.read_text())["decisions"]["oracle"]["value"] == "One"

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("verify", tmp_path / "nope.json") == 2

    def test_small_commands_stay_scipy_free(self, tmp_path):
        # the sparse kernels import SciPy only for large, nearly empty
        # matrices; gen and solve on n = 4 must not load it
        script = "\n".join(
            [
                "import sys",
                "from condred.cli import main",
                f"d = {str(tmp_path)!r}",
                "for kind in ('MATINV', 'DET+'):",
                "    out = f'{d}/{kind}.json'",
                "    assert main(['gen', '--kind', kind, '--n', '4', '--kappa', '4',",
                "                 '--epsilon', '0.05', '--seed', '3', '--out', out]) == 0",
                "    assert main(['solve', out, '--report', out + '.report']) == 0",
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ]
        )
        src = str(Path(condred.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_self_test_flag(self, capsys):
        assert run("--self-test") == 0
        out = capsys.readouterr().out
        assert "5/5 self-test groups pass" in out


def _mutated(kind, change, command):
    """argv builder: a seeded instance of ``kind``, edited by ``change``, then ``command``."""
    params = {Kind.MATINV: ConditionParams(3, 1, 4.0, 0.05), Kind.SUMITMATPROD: ConditionParams(2, 3, 2.0, 0.05)}

    def argv(tmp_path):
        doc = instance_to_json(gen_instance(kind, params[kind], seed=1))
        change(doc)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return [command, path]

    return argv


def _singular(doc):
    doc["matrices"] = [matrix_to_json(np.diag([1.0, 1.0, 0.0]))]


@pytest.mark.parametrize(
    "make_argv,code",
    [
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s=1.5), "solve"), 2, id="s=1.5"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s="1"), "solve"), 2, id="s='1'"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s=True), "solve"), 2, id="s=true"),
        pytest.param(_mutated(Kind.SUMITMATPROD, lambda d: d.update(E=[[1.5, 2]]), "solve"), 2, id="E=1.5"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(kappa=math.inf), "solve"), 2,
                     id="kappa=Infinity"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(epsilon=math.nan), "solve"), 2,
                     id="epsilon=NaN"),
        pytest.param(lambda tmp_path: ["gen", "--kind", "MATINV", "--n", 0, "--out", tmp_path / "o.json"], 2,
                     id="gen --n 0"),
        pytest.param(lambda tmp_path: ["gen", "--kind", "MATINV", "--n", 3, "--kappa", "nan",
                                       "--out", tmp_path / "o.json"], 2, id="gen --kappa nan"),
        pytest.param(_mutated(Kind.MATINV, _singular, "solve"), 1, id="singular MATINV solve"),
        pytest.param(_mutated(Kind.MATINV, _singular, "verify"), 1, id="singular MATINV verify"),
    ],
)
def test_bad_input_exits_without_traceback(make_argv, code, tmp_path, capsys):
    # malformed indices and parameters are schema or usage errors (exit 2);
    # a singular matrix is a promise violation (exit 1)
    assert run(*make_argv(tmp_path)) == code
    assert "Traceback" not in capsys.readouterr().err
