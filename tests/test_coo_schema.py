"""The COO schema: sparse instance matrices survive a file round trip as
the same CSC, and a malformed COO document is a schema error."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from condred.circuits import append_cleanup, circuit_to_itmatprod
from condred.matcore import as_form, dense_form
from condred.problems import ConditionParams, Kind, ProblemInstance, oracle_decide
from condred.reductions import DET_PLUS_CYCLE, MATINV_PLUS_CYCLE, RULES
from condred.serialize import SchemaError, dumps, instance_from_json, instance_to_json
from test_acceptance import _det_plus_cycle_instance, _matinv_plus_cycle_instance
from test_circuits import forced_circuit

WALKS = {
    "MATINV+ cycle": lambda: (_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE),
    "DET+ cycle": lambda: (_det_plus_cycle_instance(0, True), DET_PLUS_CYCLE),
    "compiled h=2 circuit": lambda: (
        circuit_to_itmatprod(append_cleanup(forced_circuit(2, 2, 3, True))),
        ("itmatprod_to_matpow", "matpow_to_matinv", "matinv_to_posmatinv"),
    ),
}


def _sparse_outputs(inst, path):
    """Each rule output along ``path`` that keeps a CSC form."""
    found = []
    for name in path:
        inst, _ = RULES[name].apply(inst)
        if any(sparse.issparse(a) for a in inst.forms):
            found.append((name, inst))
    return found


def _dense_digest(a) -> str:
    # one dense copy at a time: the cycle ends are 199 MB each when dense
    return hashlib.sha256(dense_form(a)).hexdigest()


def _round_trip(inst):
    text = dumps(instance_to_json(inst))
    return text, instance_from_json(json.loads(text))


@pytest.mark.parametrize("walk", list(WALKS))
def test_csc_outputs_round_trip_through_coo(walk):
    outputs = _sparse_outputs(*WALKS[walk]())
    assert outputs, "the walk made no CSC output"
    for rule, out in outputs:
        text, back = _round_trip(out)
        for a, b in zip(out.forms, back.forms):
            assert type(b) is type(a), rule
            if sparse.issparse(a):
                assert b.format == "csc", rule
                for part in ("data", "indices", "indptr"):
                    x, y = getattr(a, part), getattr(b, part)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (rule, part)
            assert _dense_digest(a) == _dense_digest(b), rule
        assert dumps(instance_to_json(back)) == text, rule
        assert dumps(instance_to_json(out)) == text, rule  # the same bytes on every write
    # the last CSC output, the end of each walk, decides the same from its file
    assert oracle_decide(back, check="gap") == oracle_decide(out, check="gap")


def test_coo_entries_are_zero_based_and_row_major():
    a = sparse.csc_array(np.array([[0, 2j], [3, 4]], dtype=complex))
    doc = instance_to_json(ProblemInstance(Kind.DET, ConditionParams(2), (a,), b=-1.0))
    assert doc["matrices"] == [
        {"format": "coo", "rows": 2, "cols": 2, "entries": [[0, 1, 0.0, 2.0], [1, 0, 3.0, 0.0], [1, 1, 4.0, 0.0]]}
    ]


def test_coo_entries_are_read_in_any_order():
    end = _sparse_outputs(*WALKS["compiled h=2 circuit"]())[-1][1]
    doc = instance_to_json(end)
    doc["matrices"][0]["entries"].reverse()
    back = instance_from_json(doc).forms[0]
    for part in ("data", "indices", "indptr"):
        assert getattr(back, part).tobytes() == getattr(end.forms[0], part).tobytes(), part


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _coo_matrices(draw):
    n = draw(st.integers(1, 5))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # real parts nonzero, so that an entry with a signed-zero imaginary part
    # is stored rather than eliminated as an explicit zero
    values = st.tuples(_floats.filter(bool), st.one_of(st.just(-0.0), st.just(0.0), _floats))
    entries = draw(st.dictionaries(cells, values, max_size=n * n))
    rows = [i for i, _ in entries]
    cols = [j for _, j in entries]
    vals = np.zeros(len(entries), dtype=np.complex128)
    vals.real = [re for re, _ in entries.values()]
    vals.imag = [im for _, im in entries.values()]
    return n, sparse.coo_array((vals, (rows, cols)), shape=(n, n))


@given(_coo_matrices())
@settings(max_examples=200, deadline=None)
def test_coo_floats_roundtrip_exactly(drawn):
    n, a = drawn
    want = as_form(a)
    back = _round_trip(ProblemInstance(Kind.DET, ConditionParams(n), (a,), b=-1.0))[1].forms[0]
    assert back.data.view(float).tobytes() == want.data.view(float).tobytes()
    assert np.array_equal(back.indices, want.indices) and np.array_equal(back.indptr, want.indptr)


def test_coo_shape_is_checked_before_anything_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a sparse matrix of the named shape")

    monkeypatch.setattr(sparse, "coo_array", no_build)
    huge = 2**40
    doc = {
        "type": "DET",
        "params": {"n": 3, "m": 1, "kappa": 2.0, "epsilon": 0.1},
        "matrices": [{"format": "coo", "rows": huge, "cols": huge, "entries": [[0, 0, 1.0, 0.0]]}],
        "b": -1.0,
    }
    with pytest.raises(SchemaError, match="params.n = 3"):
        instance_from_json(doc)
