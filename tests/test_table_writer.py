"""The numeric table writer: an instance document rendered from its matrices'
column arrays gives the standard encoder's text of the listed document, and
writing one builds no Python object per entry."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from condred import serialize
from condred.problems import ConditionParams, Kind, ProblemInstance
from condred.serialize import Table, dumps, instance_doc, instance_to_json, save_json

_STANDARD = json.JSONEncoder(indent=1, sort_keys=True)
# signed zeros and a subnormal among a few repeated values
_REAL = [-0.0, 0.0, 5e-324, 1.5, -0.25, 1 / 3]
_IMAG = [1.0, -2.0, 5e-324, 0.125]  # never zero: a stored sparse entry stays nonzero


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i*im, keeping re's signed zeros (re + 1j*im would not)."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _instance(forms, n: int) -> ProblemInstance:
    return ProblemInstance(Kind.MATINV, ConditionParams(n, 1, 4.0, 0.05), forms, s=1, t=n, b=0.5)


def _dense(n: int) -> ProblemInstance:
    rng = np.random.default_rng(n)
    return _instance((_complex(rng.choice(_REAL, (n, n)), rng.choice(_REAL, (n, n))),), n)


def _dense_distinct(n: int) -> ProblemInstance:
    rng = np.random.default_rng(n)
    return _instance((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),), n)


def _csc(n: int, entries: int) -> ProblemInstance:
    rng = np.random.default_rng(entries)
    i, j = rng.integers(0, n, entries), rng.integers(0, n, entries)
    values = _complex(rng.choice(_REAL, entries), rng.choice(_IMAG, entries))
    return _instance((sparse.csc_array((values, (i, j)), shape=(n, n)),), n)


def _table(inst) -> Table:
    (matrix,) = instance_doc(inst)["matrices"]
    return matrix["entries" if "format" in matrix else "data"]


CASES = {
    "dense, repetitive columns": lambda: _dense(20),
    "dense, longer than a batch": lambda: _dense(40),
    "dense, under the small-column cutoff": lambda: _dense(3),
    "dense, distinct values": lambda: _dense_distinct(20),
    "CSC, repetitive columns": lambda: _csc(500, 900),
    "CSC, under the small-column cutoff": lambda: _csc(50, 20),
    "all-zero CSC": lambda: _instance((sparse.csc_array((7, 7), dtype=complex),), 7),
}


@pytest.mark.parametrize("case", list(CASES))
def test_an_instance_document_is_written_as_its_listed_form(case):
    inst = CASES[case]()
    listed = instance_to_json(inst)
    text = _STANDARD.encode(listed)
    assert dumps(instance_doc(inst)) == text
    assert dumps(listed) == text  # the same table, read back from lists
    (matrix,) = listed["matrices"]
    for row in matrix.get("entries", matrix.get("data")):
        assert [type(x) for x in row] == [int, int, float, float][-len(row):]


def test_the_cases_reach_every_table_shape():
    lengths = {case: len(_table(make())) for case, make in CASES.items()}
    assert lengths["dense, longer than a batch"] > serialize._BATCH
    assert lengths["dense, under the small-column cutoff"] < serialize._UNIQUE_MIN
    assert lengths["CSC, under the small-column cutoff"] < serialize._UNIQUE_MIN
    assert lengths["all-zero CSC"] == 0
    distinct = _table(CASES["dense, distinct values"]()).columns[0]
    assert len(np.unique(distinct)) == len(distinct) >= serialize._UNIQUE_MIN
    assert instance_to_json(CASES["all-zero CSC"]())["matrices"][0]["entries"] == []
    for case in ("dense, repetitive columns", "CSC, repetitive columns"):
        re = _table(CASES[case]()).columns[-2]
        assert len(re) >= serialize._UNIQUE_MIN and {0.0, 5e-324} <= set(re.tolist())
        assert np.signbit(re[re == 0]).any() and not np.signbit(re[re == 0]).all()


def test_writing_a_large_csc_instance_builds_no_object_per_entry(tmp_path):
    # a CSC MATINV+ of n = 40,000 with about 2e5 stored entries of a few
    # distinct values, as the reductions make
    n, rng = 40_000, np.random.default_rng(23)
    i, j = rng.integers(0, n, 200_000), rng.integers(0, n, 200_000)
    a = sparse.csc_array((rng.choice([0.5, -0.25, 1 / 3], 200_000) + 0j, (i, j)), shape=(n, n))
    inst = ProblemInstance(Kind.MATINV_PLUS, ConditionParams(n, 1, 4.0, 0.05), (a,), s=1, t=n, b=0.5)
    entries = inst.forms[0].nnz
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_json(instance_doc(inst), tmp_path / "big.json")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 200 * entries, f"{peak / entries:.0f} B per entry"
