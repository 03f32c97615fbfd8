"""JSON round-trips and the batch command line front end."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from hypothesis import strategies as st

from condred.circuits import GeneralCircuit, append_cleanup, simulate_acceptance, unitary_gate
from condred import cli, matcore, problems, reductions
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


_STANDARD = json.JSONEncoder(indent=1, sort_keys=True)
_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
_plain = st.one_of(st.integers(), _floats)
_numbers = st.one_of(_plain, _floats.map(np.float64))
_scalars = st.one_of(st.none(), st.booleans(), st.text(), _numbers)
# numeric tables, ragged rows, and rows that hold other values, among them
# an np.int64 the encoders refuse
_tables = st.one_of(
    st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(_plain, min_size=k, max_size=k), min_size=1)),
    st.lists(st.lists(_numbers, max_size=4)),
    st.lists(st.lists(st.one_of(_scalars, st.lists(_numbers, max_size=2), st.integers(-9, 9).map(np.int64)),
                      max_size=4)),
)
# tables of 1 to 4 render batches, cycling through a few drawn rows
_long_tables = st.tuples(
    st.lists(st.lists(_plain, min_size=2, max_size=2), min_size=1, max_size=4),
    st.integers(1, 4 * serialize._BATCH // 2),
).map(lambda t: [list(t[0][i % len(t[0])]) for i in range(t[1])])
_documents = st.recursive(
    st.one_of(_scalars, _tables, _long_tables),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=12,
)


def _encoded(encode, doc):
    """The text, or the type of the exception the encoding raised."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _nulled(o):
    """``o`` with each non-finite float, np.float64 included, as None."""
    if isinstance(o, float):
        return o if math.isfinite(o) else None
    if isinstance(o, dict):
        return {key: _nulled(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return [_nulled(value) for value in o]
    return o


def _refuse(token):
    """A ``parse_constant`` that refuses every NaN or infinity token."""
    raise ValueError(f"not strict JSON: {token}")


def _circular():
    doc = [1, [2.5]]
    doc[1].append(doc)
    return doc


def _shared():
    """A list and a dict in several places, never inside themselves: not circular."""
    row = [1, "x"]
    cell = {"row": row}
    return {"a": [row, row], "b": row, "c": [cell, cell]}


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
        # a document long enough that its table is rendered in several
        # batches and its text written in several pieces
        big = {"a": matrix_to_json(rng.normal(size=(128, 128))), "b": [1, -0.0, 2.5e-310]}
        assert len(big["a"]["data"]) > serialize._BATCH
        assert len(dumps(big)) > 2 * serialize._WRITE
        for doc in (small, big):
            path = tmp_path / "doc.json"
            assert save_json(doc, path) == digest(doc)
            assert path.read_text() == dumps(doc) + "\n"

    @given(_documents)
    @settings(max_examples=300, deadline=None)
    def test_dumps_is_the_standard_encoding(self, doc):
        # with null for each non-finite float, which strict JSON has no text for
        assert _encoded(dumps, doc) == _encoded(_STANDARD.encode, _nulled(doc))

    @given(_documents)
    @settings(max_examples=300, deadline=None)
    def test_dumps_writes_strict_json(self, doc):
        text = _encoded(dumps, doc)
        if isinstance(text, str):
            json.loads(text, parse_constant=_refuse)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_load_json_refuses_a_token_that_is_no_json_number(self, token, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"a": [1.5, {token}]}}')
        with pytest.raises(SchemaError) as refused:
            serialize.load_json(path)
        assert str(refused.value) == f"not strict JSON: {path}: {token} is not a JSON number"

    @pytest.mark.parametrize("doc", [np.int64(3), [[1, np.int64(2)]], {"a": object()}, {(1, 2): 3},
                                     {1: 2, "a": 3}, _circular(), _shared()], ids=repr)
    def test_dumps_refuses_and_accepts_what_the_standard_encoder_does(self, doc):
        assert _encoded(dumps, doc) == _encoded(_STANDARD.encode, doc)

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

    def test_verify_and_solve_hash_the_same_input(self, tmp_path):
        # written by hand: an integer b and COO entries out of row-major
        # order, neither of which instance_to_json would write
        doc = {"type": "MATINV", "params": {"n": 2, "m": 1, "kappa": 4.0, "epsilon": 0.1},
               "matrices": [{"format": "coo", "rows": 2, "cols": 2,
                             "entries": [[1, 1, 0.5, 0], [0, 0, 1, 0]]}],
               "s": 2, "t": 2, "b": 1}
        src = tmp_path / "hand.json"
        src.write_text(json.dumps(doc))
        assert run("verify", src, "--report", tmp_path / "v.json") == 0
        assert run("solve", src, "--method", "oracle", "--report", tmp_path / "s.json") == 0
        verified = json.loads((tmp_path / "v.json").read_text())["files"][0]["input_digest"]
        solved = json.loads((tmp_path / "s.json").read_text())["input_digest"]
        assert verified == solved == digest(doc)

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
        # n = 8, m = 15 builds the intermediate MATINV (n = 128) above the
        # 1/64 cutoff, so the file between the two reduce calls is COO
        for n, m, schema in ((2, 3, "data"), (8, 15, "entries")):
            src = tmp_path / f"pow{n}.json"
            run("gen", "--kind", "MATPOW", "--n", n, "--m", m, "--kappa", 2,
                "--epsilon", 0.02, "--seed", 3, "--decision", "one", "--out", src)
            step1 = tmp_path / f"s1_{n}.json"
            step2 = tmp_path / f"s2_{n}.json"
            assert run("reduce", src, "--rule", "matpow_to_matinv", "--out", step1) == 0
            assert schema in json.loads(step1.read_text())["matrices"][0]
            assert run("reduce", step1, "--rule", "matinv_to_posmatinv", "--out", step2) == 0
            chained = tmp_path / f"chained{n}.json"
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

    @pytest.mark.parametrize("target", ["itmatprod", "matinv_plus"], ids=["itm", "plus"])
    @pytest.mark.parametrize("acceptance,verdict", [(2 / 3 - matcore.DEFAULT_TOL / 2, "One"),
                                                    (1 / 3 + matcore.DEFAULT_TOL / 2, "Zero")], ids=["one", "zero"])
    def test_compile_itmatprod_reads_the_acceptance_as_its_oracle_does(self, target, acceptance, verdict, tmp_path):
        # an acceptance tol/2 on the wrong side of 2/3 or 1/3: the expected
        # verdict reads it on the encoding's Output clause at tol, and the
        # oracle reads each end's value at the tolerance the chain carries
        # there (the MATINV+ end, which scales the value and b by 9, said
        # PromiseViolated at the unscaled tol); the report names that
        # tolerance, and solve at it gives the same verdict
        theta = 2 * math.asin(math.sqrt(acceptance))
        ry = np.array([[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]])
        path, out, report = tmp_path / "circ.json", tmp_path / "out.json", tmp_path / "report.json"
        save_json(circuit_to_json(GeneralCircuit(1, (unitary_gate(ry, (1,), 1),))), path)
        assert run("compile-circuit", path, "--target", target, "--out", out, "--report", report) == 0
        decisions = json.loads(report.read_text())["decisions"]
        assert (decisions["expected"], decisions["oracle"]["value"]) == (verdict, verdict)
        value_tol = decisions["oracle"]["value_tol"]
        assert value_tol == pytest.approx(1e-9 * (9 if target == "matinv_plus" else 1), rel=1e-6)
        assert run("--tol", value_tol, "solve", out, "--check", "gap", "--report", report) == 0
        assert json.loads(report.read_text())["decisions"]["oracle"]["value"] == verdict

    @pytest.mark.parametrize("kind", ["MATINV+", "DET+"])
    def test_solve_series_vs_oracle(self, kind, tmp_path):
        for seed in range(10):
            src = tmp_path / f"plus{seed}.json"
            decision = "one" if seed % 2 == 0 else "zero"
            run("gen", "--kind", kind, "--n", 3, "--kappa", 4, "--epsilon", 0.3,
                "--seed", seed, "--decision", decision, "--out", src)
            r_oracle = tmp_path / f"ro{seed}.json"
            r_series = tmp_path / f"rs{seed}.json"
            assert run("solve", src, "--method", "oracle", "--report", r_oracle) == 0
            assert run("solve", src, "--method", "series", "--report", r_series) == 0
            want = json.loads(r_oracle.read_text())["decisions"]["oracle"]["value"]
            got = json.loads(r_series.read_text())["decisions"]["series"]["value"]
            assert got == want

    @pytest.mark.parametrize("kind,where", [(Kind.DET_PLUS, dict(b=-1.0)), (Kind.MATINV_PLUS, dict(s=1, t=1, b=0.5))])
    def test_series_and_verify_refuse_an_indefinite_matrix(self, kind, where, tmp_path, capsys):
        # H = diag(1, -0.045) with kappa = 20 has sigma_min >= 1/kappa - tol
        # at tol = 0.01 but a negative eigenvalue: both commands refuse it
        inst = problems.ProblemInstance(kind, ConditionParams(2, 1, 20.0, 1.0), (np.diag([1.0, -0.045]),), **where)
        path = tmp_path / "indefinite.json"
        save_json(instance_to_json(inst), path)
        assert run("--tol", 0.01, "verify", path) == 1
        assert "H positive definite" in capsys.readouterr().out
        assert run("--tol", 0.01, "solve", path, "--method", "series") == 1
        assert capsys.readouterr().err.startswith("promise violation: H positive definite fails")

    def test_solve_check_applies_to_the_oracle_only(self, tmp_path, capsys):
        # H = diag(0.5, -0.5) is not positive definite; --check none lets the
        # oracle decide it, while the series checks the spectral clauses its
        # certificate needs under every --check
        inst = problems.ProblemInstance(Kind.MATINV_PLUS, ConditionParams(2, 1, 2.0, 0.5), (np.diag([0.5, -0.5]),),
                                        s=1, t=1, b=1.5)
        path = tmp_path / "indefinite.json"
        save_json(instance_to_json(inst), path)
        assert run("solve", path, "--method", "oracle", "--check", "none") == 0
        assert capsys.readouterr().out.startswith("oracle: One")
        for check in ("full", "gap", "none"):
            assert run("solve", path, "--method", "series", "--check", check) == 1
            assert capsys.readouterr().err.startswith("promise violation: H positive definite fails")

    @pytest.mark.parametrize("kind,epsilon,where", [
        # |H^-1[1,1]| = 2 and the series gives 1.984375 +- 0.125, inside (1.7, 2.2)
        (Kind.MATINV_PLUS, 0.5, dict(s=1, t=1, b=2.2)),
        # ln det H = -0.693 and the series gives -0.691 - [0, 0.3], inside (-1.0, -0.4)
        (Kind.DET_PLUS, 0.6, dict(b=-0.4)),
        # b outside its range (DET+ b <= 0, MATINV+ b >= 0), read exactly by
        # the series too; it used to decide these Zero and One with exit 0
        (Kind.DET_PLUS, 0.6, dict(b=0.1)),
        (Kind.MATINV_PLUS, 0.5, dict(s=1, t=1, b=-0.1)),
    ])
    def test_series_certified_inside_the_gap_is_promise_violated(self, kind, epsilon, where, tmp_path, capsys):
        inst = problems.ProblemInstance(kind, ConditionParams(2, 1, 2.0, epsilon), (np.diag([0.5, 1.0]),), **where)
        path, report = tmp_path / "gap.json", tmp_path / "report.json"
        save_json(instance_to_json(inst), path)
        for method in ("oracle", "series"):
            assert run("solve", path, "--method", method, "--report", report) == 1
            assert json.loads(report.read_text())["decisions"][method]["value"] == "PromiseViolated"
        assert capsys.readouterr().out.splitlines()[-1].startswith("series: PromiseViolated")
        assert run("verify", path) == 1

    def test_vmatinv_b_beyond_kappa_breaks_the_gap_check(self, tmp_path, capsys):
        # kappa = 2 and b = 2.5: verify saw |b| <= kappa fail, while the gap
        # check of chain and solve decided Zero with exit 0
        inst = problems.ProblemInstance(Kind.V_MATINV, ConditionParams(2, 1, 2.0, 0.5), (np.diag([0.5, 1.0]),),
                                        s=1, t=1, b=2.5)
        path = tmp_path / "v.json"
        save_json(instance_to_json(inst), path)
        assert run("verify", path) == 1
        assert "VIOLATED: |b| <= kappa" in capsys.readouterr().out
        assert run("chain", path, "--rules", ",", "--out", tmp_path / "out.json") == 1
        assert capsys.readouterr().out.endswith("decisions PromiseViolated/PromiseViolated agree\n")
        assert run("solve", path, "--check", "gap") == 1

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
        # the sparse kernels and builds import SciPy only for matrices stored
        # sparse; gen, solve, reduce and verify on n = 4 must not load it, nor
        # a chain whose outputs are all stored dense, nor solve on a nearly
        # empty n = 80 matrix written in the dense schema
        big = instance_to_json(problems.ProblemInstance(
            Kind.MATINV, ConditionParams(80, 1, 4.0, 0.05), (np.diag(np.linspace(0.5, 1.0, 80)),),
            s=1, t=1, b=1.0))
        assert "format" not in big["matrices"][0]  # the dense schema
        (tmp_path / "big.json").write_text(json.dumps(big))
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
                "assert main(['reduce', f'{d}/MATINV.json', '--rule', 'matinv_to_posmatinv',",
                "             '--out', f'{d}/plus.json']) == 0",
                "assert main(['solve', f'{d}/big.json']) == 0",
                "assert main(['verify', d]) == 0",
                "assert main(['gen', '--kind', 'ITMATPROD', '--n', '2', '--m', '2', '--kappa', '4',",
                "             '--epsilon', '0.05', '--seed', '3', '--out', f'{d}/itm.json']) == 0",
                "assert main(['chain', f'{d}/itm.json', '--rules',",
                "             'itmatprod_to_matpow,matpow_to_matinv,matinv_to_posmatinv', '--out', f'{d}/end.json']) == 0",
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

    def test_each_decision_quantity_is_computed_once(self, inst_file, tmp_path, monkeypatch):
        calls = []
        entry = problems.inverse_entry
        monkeypatch.setattr(problems, "inverse_entry", lambda *args: calls.append(args) or entry(*args))
        assert run("solve", inst_file) == 0
        assert len(calls) == 1
        calls.clear()
        assert run("reduce", inst_file, "--rule", "matinv_to_posmatinv", "--out", tmp_path / "o.json") == 0
        # one per instance: the identity residual, the promise checks and the
        # decisions share the quantity kept on each instance
        assert len(calls) == 2
        calls.clear()
        # gen places b against the quantity, then checks the promise with it
        assert run("gen", "--kind", "MATINV", "--n", 4, "--out", tmp_path / "g.json") == 0
        assert len(calls) == 1

    def test_each_matrix_is_decomposed_once(self, inst_file, tmp_path, monkeypatch):
        # every sigma and lambda of an instance comes from its spectral
        # record: one SVD, or one eigvalsh when the matrix is exactly
        # Hermitian, shared by the promise check, the oracle, the measured
        # bounds and the series solvers
        decomps = []
        svd, eigvalsh = matcore.svd_values, np.linalg.eigvalsh
        monkeypatch.setattr(matcore, "svd_values", lambda a: decomps.append(("svd", a.shape[0])) or svd(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: decomps.append(("eigvalsh", a.shape[0])) or eigvalsh(a))

        def counted(*argv):
            decomps.clear()
            assert run(*argv) == 0
            return sorted(decomps)

        pow_file = tmp_path / "pow.json"
        assert run("gen", "--kind", "MATPOW", "--n", 3, "--m", 2, "--kappa", 2, "--out", pow_file) == 0
        # the MATPOW source's promise is a sweep of partial products, not the record
        assert counted("reduce", pow_file, "--rule", "matpow_to_matinv", "--measure",
                       "--out", tmp_path / "inv.json") == [("svd", 9)]
        assert counted("reduce", inst_file, "--rule", "matinv_to_posmatinv", "--measure",
                       "--out", tmp_path / "plus.json") == [("eigvalsh", 8), ("svd", 4)]
        sing_file = tmp_path / "sing.json"
        assert run("gen", "--kind", "SINGULAR", "--n", 4, "--epsilon", 0.2, "--out", sing_file) == 0
        assert counted("solve", sing_file) == [("eigvalsh", 4)]
        for kind in ("DET+", "MATINV+"):
            path = tmp_path / f"{kind}.json"
            assert run("gen", "--kind", kind, "--n", 5, "--kappa", 4, "--epsilon", 0.3, "--out", path) == 0
            for method in ("oracle", "series"):
                assert counted("solve", path, "--method", method) == [("eigvalsh", 5)]
            assert counted("verify", path) == [("eigvalsh", 5)]

    def test_each_sigma1_sweep_is_measured_once(self, tmp_path, monkeypatch):
        # the partial-products bound of --measure and the target's full
        # promise check share one sweep of m(m+1)/2 SVDs, kept on the target
        src = tmp_path / "detplus.json"
        assert run("gen", "--kind", "DET+", "--n", 2, "--kappa", 2, "--epsilon", 0.3,
                   "--seed", 1, "--out", src) == 0
        svds = []
        svd = problems.svd_values
        monkeypatch.setattr(problems, "svd_values", lambda a: svds.append(a.shape[0]) or svd(a))
        report = tmp_path / "r.json"
        assert run("reduce", src, "--rule", "posdet_to_sumitmatprod", "--measure",
                   "--out", tmp_path / "sum.json", "--report", report) == 0
        out = json.loads(report.read_text())["provenance"][0]["output_params"]
        assert out["n"] > 2
        assert svds.count(out["n"]) == out["m"] * (out["m"] + 1) // 2

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, monkeypatch):
        # main builds its parser once per process; calls that follow one
        # another in one process give what each gives in a process of its own
        argvs = [
            ["gen", "--kind", "MATINV+", "--n", "4", "--kappa", "4", "--epsilon", "0.05",
             "--seed", "3", "--out", "inst.json", "--report", "gen.json"],
            ["verify", "inst.json", "--report", "verify.json"],
            ["reduce", "inst.json", "--rule", "posmatinv_to_sumitmatprod", "--out", "sum.json",
             "--report", "reduce.json"],
            ["solve", "inst.json", "--method", "series", "--report", "solve.json"],
            ["chain", "inst.json", "--rules", "det_to_posdet", "--out", "x.json"],
        ]
        apart, here = tmp_path / "apart", tmp_path / "here"
        apart.mkdir()
        here.mkdir()
        src = str(Path(condred.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        codes_apart = [
            subprocess.run([sys.executable, "-m", "condred.cli", *argv], cwd=apart, env=env,
                           capture_output=True, timeout=120).returncode
            for argv in argvs
        ]
        monkeypatch.chdir(here)
        codes_here = [main(argv) for argv in argvs]
        assert codes_here == codes_apart == [0, 0, 0, 0, 2]
        files = sorted(p.name for p in apart.iterdir())
        assert files == sorted(p.name for p in here.iterdir())
        for name in files:
            a, b = json.loads((apart / name).read_text()), json.loads((here / name).read_text())
            a.pop("wall_time_s", None)
            b.pop("wall_time_s", None)
            assert a == b, name

    def test_a_replaced_command_is_the_one_that_runs(self, inst_file, monkeypatch):
        # the parser is built by the first call; a cmd_* replaced after that
        # (as a tracer replaces it) is still the one main reaches
        assert run("solve", inst_file) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.path) or 7)
        assert run("solve", inst_file) == 7
        assert seen == [str(inst_file)]

    @pytest.mark.parametrize("argv", [["solve"], ["bogus"], ["gen", "--kind", "NOPE", "--n", "2", "--out", "x"],
                                      ["verify", "a.json", "--check", "gap"]])
    def test_usage_errors_exit_2_on_a_built_parser(self, argv, inst_file, capsys):
        assert run("verify", inst_file) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: condred")
        assert main([]) == 2  # no command: the help, and the usage status
        assert run("verify", inst_file) == 0


def _mutated(kind, change, command, *options):
    """argv builder: a seeded instance of ``kind``, edited by ``change``, then
    ``command`` with ``options`` (where "{tmp}" stands for the test's directory)."""
    small = ConditionParams(3, 1, 4.0, 0.05)
    params = {Kind.MATINV: small, Kind.MATINV_PLUS: small, Kind.V_MATINV: small,
              Kind.SUMITMATPROD: ConditionParams(2, 3, 2.0, 0.05)}

    def argv(tmp_path):
        doc = instance_to_json(gen_instance(kind, params[kind], seed=1))
        change(doc)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return [command, path, *(o.format(tmp=tmp_path) for o in options)]

    return argv


def _singular(doc):
    doc["matrices"] = [matrix_to_json(np.diag([1.0, 1.0, 0.0]))]


def _coo(change):
    """Write the instance's 3 x 3 matrix as COO, then ``change`` that object."""

    def edit(doc):
        doc["matrices"] = [matrix_to_json(sparse.csc_array(matrix_from_json(doc["matrices"][0])))]
        change(doc["matrices"][0])

    return edit


def _entry(k, value):
    """Item ``k`` of the first COO entry set to ``value``, and the other
    entries dropped, so that no other entry can sit where it points."""

    def edit(m):
        m["entries"][0][k] = value
        del m["entries"][1:]

    return edit


def _b_just_above_entry(doc):
    """b placed 5e-10 above |entry|, within the tolerance of the One side."""
    doc["b"] = abs(instance_from_json(doc).quantity) + 5e-10


def _without(name):
    """Drop the instance field ``name``."""
    return lambda doc: doc.pop(name)


def _with_tol(tol, make_argv):
    """``make_argv`` with ``--tol tol`` before its command."""
    return lambda tmp_path: ["--tol", tol, *make_argv(tmp_path)]


_REDUCE = ("--rule", "matinv_to_posmatinv", "--out", "{tmp}/out.json")


@pytest.mark.parametrize(
    "make_argv,code",
    [
        *(pytest.param(_mutated(Kind.SUMITMATPROD, _without("E"), command), 2, id=f"SUMITMATPROD no E {command}")
          for command in ("solve", "verify")),
        *(pytest.param(_mutated(Kind.MATINV, _without(name), command, *options), 2,
                       id=f"MATINV no {name} {command}")
          for name in "stb" for command, options in (("solve", ()), ("verify", ()), ("reduce", _REDUCE))),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s=1.5), "solve"), 2, id="s=1.5"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s="1"), "solve"), 2, id="s='1'"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(s=True), "solve"), 2, id="s=true"),
        pytest.param(_mutated(Kind.SUMITMATPROD, lambda d: d.update(E=[[1.5, 2]]), "solve"), 2, id="E=1.5"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(kappa=math.inf), "solve"), 2,
                     id="kappa=Infinity"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(epsilon=math.nan), "solve"), 2,
                     id="epsilon=NaN"),
        *(pytest.param(_mutated(Kind.SUMITMATPROD, lambda d: d.update(E=[]), command), 2, id=f"E=[] {command}")
          for command in ("solve", "verify")),
        # kappa, epsilon and b are finite JSON numbers: not strings, bools, NaN or infinities
        *(pytest.param(_mutated(Kind.MATINV, lambda d, b=b: d.update(b=b), command), 2, id=f"b={label} {command}")
          for b, label in ((math.inf, "Infinity"), (math.nan, "NaN"), ("0.5", "'0.5'"), (True, "true"),
                           (10**400, "10**400"))
          for command in ("solve", "verify")),
        pytest.param(_mutated(Kind.V_MATINV, lambda d: d.update(b=[0.5, math.inf]), "verify"), 2,
                     id="b=[0.5, inf] verify"),
        # b is real for every kind but the v-kinds, and finite also after a rule scales it
        *(pytest.param(_mutated(Kind.MATINV, lambda d: d.update(b=[0.9, 5.0]), command, *options), 2,
                       id=f"MATINV b=[0.9, 5] {command}")
          for command, options in (("solve", ()), ("verify", ()), ("reduce", _REDUCE))),
        pytest.param(_mutated(Kind.MATINV, lambda d: d.update(b=1e308), "reduce", *_REDUCE), 2,
                     id="MATINV b=1e308 reduce to 3b=inf"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(kappa="4"), "solve"), 2, id="kappa='4'"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(epsilon=True), "solve"), 2,
                     id="epsilon=true"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(kappa=4), "verify"), 0, id="kappa=4 verify"),
        pytest.param(lambda tmp_path: ["gen", "--kind", "MATINV", "--n", 0, "--out", tmp_path / "o.json"], 2,
                     id="gen --n 0"),
        pytest.param(lambda tmp_path: ["gen", "--kind", "MATINV", "--n", 3, "--kappa", "nan",
                                       "--out", tmp_path / "o.json"], 2, id="gen --kappa nan"),
        # a tolerance that is not a finite number >= 0 is a usage error
        pytest.param(_with_tol("nan", _mutated(Kind.MATINV, lambda d: None, "verify")), 2, id="--tol nan verify"),
        pytest.param(_with_tol("-1", lambda tmp_path: ["gen", "--kind", "MATINV", "--n", 3,
                                                       "--out", tmp_path / "o.json"]), 2, id="--tol -1 gen"),
        pytest.param(_with_tol("-1", _mutated(Kind.MATINV_PLUS, lambda d: None, "solve", "--method", "series")), 2,
                     id="--tol -1 solve --method series"),
        pytest.param(_with_tol("inf", _mutated(Kind.MATINV, lambda d: None, "solve")), 2, id="--tol inf solve"),
        # the promise check and the oracle apply one tolerance to the Output
        # clause; a solve exit 0 is One here, since Zero needs |entry| <= b - eps
        *(pytest.param(_mutated(Kind.MATINV, _b_just_above_entry, command), 0,
                       id=f"b = |entry| + tol/2 {command}")
          for command in ("verify", "solve")),
        pytest.param(_mutated(Kind.MATINV, _singular, "solve"), 1, id="singular MATINV solve"),
        pytest.param(_mutated(Kind.MATINV, _singular, "verify"), 1, id="singular MATINV verify"),
        pytest.param(_mutated(Kind.MATINV, _singular, "reduce", "--rule", "matinv_to_posmatinv",
                              "--out", "{tmp}/out.json"), 1, id="singular MATINV reduce"),
        pytest.param(_mutated(Kind.MATINV, _singular, "reduce", "--rule", "matinv_to_posmatinv", "--measure",
                              "--out", "{tmp}/out.json"), 1, id="singular MATINV reduce --measure"),
        pytest.param(_mutated(Kind.V_MATINV, _singular, "reduce", "--rule", "vmatinv_to_singular",
                              "--out", "{tmp}/out.json"), 1, id="singular vMATINV reduce"),
        pytest.param(_mutated(Kind.MATINV_PLUS, _singular, "reduce", "--rule", "posmatinv_to_sumitmatprod",
                              "--measure", "--out", "{tmp}/out.json"), 1, id="singular MATINV+ reduce --measure"),
        pytest.param(_mutated(Kind.V_MATINV, lambda d: d.update(b=9.0), "reduce", "--rule", "vmatinv_to_singular",
                              "--out", "{tmp}/out.json"), 1, id="vMATINV |b| > kappa reduce"),
        pytest.param(_mutated(Kind.V_MATINV, lambda d: d.update(b=9.0), "chain", "--rules", "vmatinv_to_singular",
                              "--out", "{tmp}/out.json"), 1, id="vMATINV |b| > kappa chain"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(n=3.7), "solve"), 2, id="n=3.7"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(n=3.0), "solve"), 2, id="n=3.0"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(m=True), "solve"), 2, id="m=true"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["params"].update(m="1"), "solve"), 2, id="m='1'"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: None), "solve"), 0, id="COO unchanged reads back"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(0, 1.5)), "solve"), 2, id="COO index 1.5"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(1, True)), "solve"), 2, id="COO index true"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(1, "0")), "solve"), 2, id="COO index '0'"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(0, 3)), "solve"), 2, id="COO index n"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(1, -1)), "solve"), 2, id="COO index -1"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m["entries"].append(list(m["entries"][1]))), "solve"), 2,
                     id="COO repeated position"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m["entries"][0].pop()), "solve"), 2, id="COO entry of 3"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m["entries"][0].append(0.0)), "solve"), 2,
                     id="COO entry of 5"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(2, math.nan)), "solve"), 2, id="COO NaN"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(3, -math.inf)), "solve"), 2, id="COO -Infinity"),
        pytest.param(_mutated(Kind.MATINV, _coo(_entry(2, "1")), "solve"), 2, id="COO value '1'"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m.update(format="csr")), "solve"), 2, id="format csr"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m.update(rows=4, cols=4)), "solve"), 2, id="COO 4x4, n=3"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m.update(rows=2**40, cols=2**40)), "solve"), 2,
                     id="COO 2^40 x 2^40, n=3"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m.update(rows=3.0)), "solve"), 2, id="COO rows 3.0"),
        pytest.param(_mutated(Kind.MATINV, _coo(lambda m: m.update(entries={})), "solve"), 2, id="COO entries {}"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["matrices"][0].update(rows=1.5), "solve"), 2,
                     id="dense rows 1.5"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["matrices"][0]["data"].__setitem__(0, [1]), "solve"), 2,
                     id="dense entry [1]"),
        pytest.param(_mutated(Kind.MATINV, lambda d: d["matrices"][0]["data"].__setitem__(0, [10**400, 0]),
                              "solve"), 2, id="dense entry 1e400"),
    ],
)
def test_bad_input_exits_without_traceback(make_argv, code, tmp_path, capsys):
    # malformed indices and parameters are schema or usage errors (exit 2);
    # a singular matrix is a promise violation (exit 1)
    try:
        status = run(*make_argv(tmp_path))
    except SystemExit as exc:  # argparse refuses an option value
        status = exc.code
    assert status == code
    assert "Traceback" not in capsys.readouterr().err


def _matrix(**fields):
    """X in the dense schema, with ``fields`` replaced."""
    return {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [1, 0], [0, 0]], **fields}


def _circuit(qubits=1, **gate):
    """A one-gate circuit document: X on qubit 1, with ``gate``'s fields."""
    return {"qubits": qubits, "merlin_qubits": 0,
            "gates": [{"kind": "unitary", "targets": [1], "matrices": [_matrix()], **gate}]}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(_circuit(matrices=[_matrix(data=[[0, 0], [1], [1, 0], [0, 0]])]), id="entry [1]"),
        pytest.param(_circuit(matrices=[_matrix(data=[[0, 0], [math.nan, 0], [1, 0], [0, 0]])]), id="NaN entry"),
        pytest.param(_circuit(targets=[5]), id="target 5, h=1"),
        pytest.param(_circuit(targets=[0]), id="target 0"),
        pytest.param(_circuit(targets=[1.5]), id="target 1.5"),
        pytest.param(_circuit(targets=[True]), id="target true"),
        pytest.param(_circuit(qubits=0), id="qubits 0"),
        pytest.param(_circuit(qubits="1"), id="qubits '1'"),
        pytest.param(_circuit(matrices=[_matrix(rows=2.5)]), id="rows 2.5"),
        pytest.param(_circuit(kind="kraus", matrices=[_matrix(data=[[0.5, 0], [0, 0], [0, 0], [0.5, 0]])]),
                     id="not trace preserving"),
        pytest.param(_circuit(matrices=[{"format": "coo", "rows": 2, "cols": 2,
                                         "entries": [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0]]}]), id="COO gate matrix"),
    ],
)
def test_bad_circuit_exits_without_traceback(doc, tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    assert run("compile-circuit", path, "--out", tmp_path / "out.json") == 2
    assert capsys.readouterr().err.startswith("schema error: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("qubits", [30, 10**30])
def test_a_circuit_past_29_qubits_is_refused_at_once(qubits, tmp_path, capsys):
    # 10**30 qubits, written out, used to run compile-circuit out of memory
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"qubits": qubits, "gates": []}))
    started = time.perf_counter()
    assert run("compile-circuit", path, "--out", tmp_path / "out.json") == 2
    assert time.perf_counter() - started < 10.0  # a hang, not scheduler noise
    out, err = capsys.readouterr()
    assert out == "" and err == f"schema error: qubits = {qubits}; a circuit has at most 29 qubits\n"
    assert not (tmp_path / "out.json").exists()


def test_a_circuit_with_a_proof_register_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({**_circuit(qubits=2), "merlin_qubits": 1}))
    assert run("compile-circuit", path, "--out", tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: merlin_qubits=1: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("role", ["input", "--out", "--report"])
def test_a_path_that_names_a_directory_is_a_usage_error(role, inst_file, tmp_path, capsys):
    argv = {"input": ["solve", tmp_path],
            "--out": ["gen", "--kind", "DET", "--n", 2, "--out", tmp_path],
            "--report": ["verify", inst_file, "--report", tmp_path]}[role]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


@pytest.mark.parametrize("seed", range(6))
def test_an_itmatprod_at_b_zero_agrees_through_itmatprod_to_nonneg(seed, tmp_path, capsys):
    # b = 0 carries the tolerance 0 through |q|^2; the end's realness clause,
    # |Im q_hat| ~ 1e-19 from rounding, is still read at --tol
    inst = gen_instance(Kind.ITMATPROD, ConditionParams(3, 3, 2.0, 0.02), seed)
    zero_b = problems.ProblemInstance(inst.kind, inst.params, inst.forms, inst.s, inst.t, b=0.0)
    save_json(instance_to_json(zero_b), tmp_path / "src.json")
    for command, flag in (("reduce", "--rule"), ("chain", "--rules")):
        assert run(command, tmp_path / "src.json", flag, "itmatprod_to_nonneg", "--out", tmp_path / "o.json") == 0
        assert capsys.readouterr().out.endswith("decisions One/One agree\n")


def test_a_full_check_reads_the_ends_conditioning_clauses_at_tol(inst_file, tmp_path, monkeypatch, capsys):
    # a rule whose end breaks sigma1 <= 1 by 2*tol (H and b scaled alike, so
    # the end stays a One-instance): at --tol 0.01 the MATINV+ end's value is
    # read at the carried 3*tol, its conditioning still at tol
    tol, rule = 0.01, reductions.RULES["matinv_to_posmatinv"]

    def apply(inst):
        out, rec = rule.apply(inst)
        scale = (1 + 2 * tol) / out.spectrum.sigma[0]
        return problems.ProblemInstance(out.kind, out.params, (out.matrix * scale,), out.s, out.t,
                                        b=out.b / scale), rec

    monkeypatch.setitem(reductions.RULES, rule.name, dataclasses.replace(rule, apply=apply))
    report = tmp_path / "r.json"
    assert run("--tol", tol, "chain", inst_file, "--rules", rule.name, "--check", "full",
               "--out", tmp_path / "o.json", "--report", report) == 1
    assert "decisions One/PromiseViolated DISAGREE" in capsys.readouterr().out
    target = json.loads(report.read_text())["decisions"]["target"]
    assert target["value_tol"] == pytest.approx(3 * tol)
    assert run("--tol", tol, "verify", tmp_path / "o.json") == 1
    assert "sigma1 <= 1" in capsys.readouterr().out


def test_a_report_path_that_names_a_directory_is_refused_before_any_work(inst_file, tmp_path, capsys):
    out, _ = tmp_path / "o.json", capsys.readouterr()
    assert run("reduce", inst_file, "--rule", "matinv_to_posmatinv", "--out", out, "--report", tmp_path) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_singular_reduce_reports_promise_violated(tmp_path, capsys):
    argv = _mutated(Kind.MATINV, _singular, "reduce", "--rule", "matinv_to_posmatinv",
                    "--out", "{tmp}/out.json", "--report", "{tmp}/r.json")(tmp_path)
    assert run(*argv) == 1
    assert "identity residual undefined" in capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["identity_residual"] is None
    assert report["decisions"]["source"] == {"value": "PromiseViolated", "witness_value": None}


@pytest.mark.parametrize("command", ["reduce", "chain"])
def test_builder_refusal_is_a_promise_violation(command, tmp_path, capsys):
    flag = "--rule" if command == "reduce" else "--rules"
    argv = _mutated(Kind.V_MATINV, lambda d: d.update(b=9.0), command, flag, "vmatinv_to_singular",
                    "--out", "{tmp}/out.json")(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("promise violation: |b| = 9 exceeds kappa")
    # and solve reports the same file the same way
    assert run("solve", argv[1]) == 1


@pytest.mark.parametrize(
    "gen,command,rules",
    [
        # (3 kappa)^2, kappa^2 and (2 + m kappa)^3 overflow a float where Python's ** raises
        (("--kind", "MATINV", "--n", 3, "--kappa", 1e200), "reduce", "matinv_to_posmatinv"),
        (("--kind", "DET", "--n", 2, "--kappa", 1e200), "reduce", "det_to_posdet"),
        (("--kind", "ITMATPROD", "--n", 2, "--m", 2, "--kappa", 1e120), "chain", "itmatprod_to_nonneg,nonneg_to_det"),
    ],
    ids=["matinv_to_posmatinv", "det_to_posdet", "nonneg_to_det"],
)
def test_a_parameter_map_that_overflows_is_a_usage_error(gen, command, rules, tmp_path, capsys):
    src, out = tmp_path / "src.json", tmp_path / "out.json"
    assert run("gen", *gen, "--epsilon", 0.1, "--seed", 3, "--out", src) == 0
    capsys.readouterr()
    flag = "--rule" if command == "reduce" else "--rules"
    assert run(command, src, flag, rules, "--out", out) == 2
    assert capsys.readouterr().err == f"error: rule {rules.split(',')[-1]}: output parameters overflow\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["reduce", "chain"])
def test_unknown_rule_message_has_no_repr_quotes(command, inst_file, tmp_path, capsys):
    flag = "--rule" if command == "reduce" else "--rules"
    assert run(command, inst_file, flag, "nope", "--out", tmp_path / "o.json") == 2
    assert capsys.readouterr().err.startswith("error: unknown rule 'nope'")


def test_internal_error_exits_3_in_one_line(inst_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken\noracle")

    monkeypatch.setattr(cli, "oracle_decide", broken)
    assert run("solve", inst_file) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: broken oracle\n"


@pytest.mark.parametrize("command", ["verify", "solve", "compile-circuit"])
def test_a_file_that_is_not_utf8_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(json.dumps(_circuit()).encode()[:-1] + b', "note": "\xff"}')
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    writes = ["--out", out] if command == "compile-circuit" else []
    assert run(command, path, *writes, "--report", report) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("schema error: not UTF-8 text: ") and err.count("\n") == 1
    assert not out.exists() and not report.exists()


def test_an_array_nested_too_deeply_to_decode_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run("verify", path) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err == f"schema error: nested too deeply: {path}\n"


@pytest.mark.parametrize("report", [False, True], ids=["no report", "report"])
def test_a_circuit_too_deep_to_digest_is_refused_before_any_output(report, tmp_path, capsys):
    # json reads a 600-deep list, but writing it back for the input digest
    # recurses past the interpreter's limit; the unknown key is ignored otherwise
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({**_circuit(), "note": json.loads("[" * 600 + "]" * 600)}))
    out, rep = tmp_path / "out.json", tmp_path / "report.json"
    assert run("compile-circuit", path, "--out", out, *(["--report", rep] if report else [])) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err == f"schema error: nested too deeply: {path}\n"
    assert not out.exists() and not rep.exists()


@pytest.mark.parametrize("bad", [b'{"type": "\xff"}', b'{"type": "MATINV"}'], ids=["not UTF-8", "no params"])
def test_verify_refuses_a_directory_with_a_malformed_file_before_any_output(bad, tmp_path, capsys):
    # a.json is valid and sorts first; b.json is refused at load, so no verdict is printed
    folder = tmp_path / "batch"
    folder.mkdir()
    assert run("gen", "--kind", "MATINV", "--n", 3, "--kappa", 4, "--epsilon", 0.05,
               "--seed", 1, "--out", folder / "a.json") == 0
    (folder / "b.json").write_bytes(bad)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run("verify", folder, "--report", report) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("schema error: ") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_verify_refuses_a_directory_with_a_non_json_number_before_any_output(token, tmp_path, capsys):
    # b.json is a valid instance but for the token in a field the schema
    # ignores; it is refused at load, so no verdict is printed for a.json or c.json
    folder = tmp_path / "batch"
    folder.mkdir()
    for name in "ac":
        assert run("gen", "--kind", "MATINV", "--n", 3, "--kappa", 4, "--epsilon", 0.05,
                   "--seed", 1, "--out", folder / f"{name}.json") == 0
    bad = folder / "b.json"
    bad.write_text(f'{{"note": {token},' + (folder / "a.json").read_text()[1:])
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run("verify", folder, "--report", report) == 2
    printed, err = capsys.readouterr()
    assert printed == "" and err == f"schema error: not strict JSON: {bad}: {token} is not a JSON number\n"
    assert not report.exists()


def _first_entry_of(*mats):
    """Entry (1, 1) of the dense-schema matrices ``mats`` set to 1e200."""
    return lambda doc: [doc["matrices"][k]["data"].__setitem__(0, [1e200, 0.0]) for k in mats]


#: (gen options, an edit that makes a product overflow, command): the inputs that overflow
_OVERFLOWS = [
    *(pytest.param(("MATPOW", "--m", 4, "--kappa", 2, "--epsilon", 0.02, "--seed", 1), _first_entry_of(0),
                   (command,), id=f"MATPOW {command}") for command in ("verify", "solve")),
    pytest.param(("ITMATPROD", "--m", 3, "--kappa", 2, "--epsilon", 0.02, "--seed", 1), _first_entry_of(0, 1),
                 ("verify",), id="ITMATPROD verify"),
    pytest.param(("DET+", "--kappa", 2, "--epsilon", 0.3, "--seed", 3),
                 lambda doc: doc["matrices"][0]["data"][4].__setitem__(1, 1e308),
                 ("reduce", "--rule", "posdet_to_sumitmatprod", "--out", "{tmp}/out.json"),
                 id="DET+ reduce posdet_to_sumitmatprod"),
]


def _run_overflowing(gen, edit, command, tmp_path, *options) -> int:
    """Generate ``gen``, apply ``edit`` to its document, and run ``command`` on it with ``options``."""
    path = tmp_path / "inst.json"
    assert run("gen", "--kind", gen[0], "--n", 3, *gen[1:], "--out", path) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return run(command[0], path, *(o.format(tmp=tmp_path) for o in command[1:]), *options)


@pytest.mark.parametrize("gen,edit,command", _OVERFLOWS)
def test_a_product_that_overflows_fails_its_sigma1_clause(gen, edit, command, tmp_path, capsys):
    # once a partial product or power overflows its sigma1 reads +inf, so the
    # sweep's clause fails: exit 1, not an internal error, and no NumPy
    # warning (an error under the test settings) reaches stderr
    assert _run_overflowing(gen, edit, command, tmp_path) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err and "Warning" not in err


@pytest.mark.parametrize("gen,edit,command", _OVERFLOWS)
def test_the_report_of_an_overflowing_input_is_strict_json(gen, edit, command, tmp_path):
    # each of these reports holds a NaN or an infinity, which is written as null
    report = tmp_path / "report.json"
    assert _run_overflowing(gen, edit, command, tmp_path, "--report", report) == 1
    text = report.read_text()
    json.loads(text, parse_constant=_refuse)
    assert "null" in text
