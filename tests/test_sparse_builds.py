"""The block builders assemble sparse, and instances keep what they built.

``matpow_to_matinv``, ``nonneg_to_det`` and ``matinv_to_posmatinv`` place
their blocks with one helper: in CSC when the output is nearly empty, as a
dense array otherwise.  ``det_to_posdet`` keeps the sparse Gram product of a
sparse source.  The output instance stores that form and densifies it only
when its ``matrices`` are read.  Here every output's dense view is compared
with the dense textbook formula, on the ends of both reduction cycles, on a
compiled h = 2 circuit and on instances on each side of the cutoff; the
stored CSC is checked against a fresh scan of the view; and the decision at
a cycle end is shown to read the stored CSC and never densify.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from condred import matcore
from condred.circuits import append_cleanup, circuit_to_itmatprod
from condred.matcore import sparse_form
from condred.problems import ConditionParams, DecisionValue, Kind, ProblemInstance, oracle_decide
from condred.reductions import DET_PLUS_CYCLE, MATINV_PLUS_CYCLE, RULES, _log_count, _superdiag_blocks, chain
from test_acceptance import _det_plus_cycle_instance, _matinv_plus_cycle_instance
from test_circuits import forced_circuit

BUILDERS = ("matpow_to_matinv", "nonneg_to_det", "matinv_to_posmatinv", "det_to_posdet")


def _textbook_gram(a, left):
    """A^dag A or A A^dag as the kernel computes it: a sparse product when at
    most 1/64 of ``a`` is nonzero, else a dense one; averaged with its adjoint."""
    if np.count_nonzero(a) > a.size / 64:
        g = a.conj().T @ a if left else a @ a.conj().T
        return (g + g.conj().T) / 2.0
    sp = sparse.csc_array(a)
    g = sp.conj().T @ sp if left else sp @ sp.conj().T
    return ((g + g.conj().T) / 2.0).toarray(order="C")


def _matpow_to_matinv(inst):
    n, m = inst.params.n, inst.params.m
    big = _superdiag_blocks([inst.matrix] * m, n)
    return (np.eye(n * (m + 1), dtype=np.complex128) - big) / math.ceil(1.0 + inst.params.kappa)


def _nonneg_to_det(inst):
    n, m = inst.params.n, inst.params.m
    c_mat = np.eye(n * (m + 1), dtype=np.complex128) - _superdiag_blocks(inst.matrices, n)
    c_mat[n * m + inst.t - 1, inst.s - 1] += 1.0
    return math.exp(-_log_count(2.0 + inst.params.kappa)) * c_mat


def _matinv_to_posmatinv(inst):
    n, a = inst.params.n, inst.matrix
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[:n, :n] = _textbook_gram(a, left=True)
    h[:n, n:] = -a.conj().T
    h[n:, :n] = -a
    h[n:, n:] = 2.0 * np.eye(n)
    h /= 3.0
    return h


TEXTBOOK = {
    "matpow_to_matinv": _matpow_to_matinv,
    "nonneg_to_det": _nonneg_to_det,
    "matinv_to_posmatinv": _matinv_to_posmatinv,
    "det_to_posdet": lambda inst: _textbook_gram(inst.matrix, left=False),
}


def _applications(inst, path):
    """(rule, source) for each step of ``path`` that is one of the builders."""
    found = []
    for name in path:
        if name in BUILDERS:
            found.append((name, inst))
        inst, _ = RULES[name].apply(inst)
    return found


def _diagonal(kind, n, rng, **fields):
    """Diagonal source mixing complex, real and imaginary entries, so that
    the signs of zero parts matter; n nonzeros."""
    d = rng.uniform(0.3, 0.9, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    d[::3] = d[::3].real
    d[1::3] = 1j * d[1::3].imag
    return ProblemInstance(kind, ConditionParams(n, 1, 4.0, 0.1), (np.diag(d),), **fields)


def _cutoff_pair(rule, rng):
    """Sources just below and just above the size from which ``rule``
    builds sparse: 48 for the block builders on a diagonal n x n source
    (2n + n nonzeros in a 2n x 2n output), 64 for the Gram product."""
    kind = RULES[rule].input_kind
    fields = {"DET": {"b": -1.0}, "MATINV": {"s": 1, "t": 2, "b": 0.5},
              "MATPOW": {"s": 1, "t": 2, "b": 0.5}, "ITMATPROD>=0": {"s": 1, "t": 2, "b": 0.5}}[kind.value]
    low = 63 if rule == "det_to_posdet" else 47
    return [_diagonal(kind, n, rng, **fields) for n in (low, low + 1)]


CASES = {
    "MATINV+ cycle": lambda rng: _applications(_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE),
    "DET+ cycle": lambda rng: _applications(_det_plus_cycle_instance(0, True), DET_PLUS_CYCLE),
    "compiled h=2 circuit": lambda rng: _applications(
        circuit_to_itmatprod(append_cleanup(forced_circuit(2, 2, 3, True))),
        ("itmatprod_to_matpow", "matpow_to_matinv", "matinv_to_posmatinv"),
    ),
    "cutoff": lambda rng: [(rule, src) for rule in BUILDERS for src in _cutoff_pair(rule, rng)],
}


@pytest.mark.parametrize("case", list(CASES))
def test_builds_equal_the_textbook_formulas(case, rng):
    for rule, src in CASES[case](rng):
        out, _ = RULES[rule].apply(src)
        want = TEXTBOOK[rule](src)
        got = out.matrix
        assert got.flags.c_contiguous
        assert np.array_equal(got, want), rule
        if rule == "matinv_to_posmatinv":
            # its blocks are placed as 0 - x: equal bytes once the textbook's
            # negative zeros are made positive
            assert got.tobytes() == (want + 0.0).tobytes(), rule
        else:
            assert got.tobytes() == want.tobytes(), rule


def test_cutoff_decides_the_path(rng):
    for rule in BUILDERS:
        below, above = _cutoff_pair(rule, rng)
        assert isinstance(RULES[rule].apply(below)[0].forms[0], np.ndarray), rule
        stored = RULES[rule].apply(above)[0].forms[0]
        assert sparse.issparse(stored) and stored.format == "csc", rule


@pytest.fixture(scope="module")
def cycle_ends():
    matinv_end, _ = RULES["matinv_to_posmatinv"].apply(
        _applications(_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE)[-1][1]
    )
    det_end, _ = RULES["det_to_posdet"].apply(
        _applications(_det_plus_cycle_instance(0, True), DET_PLUS_CYCLE)[-1][1]
    )
    return {"MATINV+": matinv_end, "DET+": det_end}


@pytest.mark.parametrize("end", ["MATINV+", "DET+"])
def test_sparse_form_returns_the_kept_csc_without_a_scan(cycle_ends, end, monkeypatch):
    inst = dataclasses.replace(cycle_ends[end])  # a fresh instance: no dense view yet

    def no_scan(*args):
        raise AssertionError("scanned a dense array")

    monkeypatch.setattr(matcore, "_scanned", no_scan)
    stored = inst.forms[0]
    assert sparse_form(stored) is stored
    assert oracle_decide(inst, check="gap").value is DecisionValue.ONE
    assert "matrices" not in vars(inst), "the dense view was materialised"


@pytest.mark.parametrize("end", ["MATINV+", "DET+"])
def test_copies_and_views_are_scanned(cycle_ends, end):
    inst = cycle_ends[end]
    stored, a = inst.forms[0], inst.matrix
    for other in (a, a.copy(), a[:, :]):
        scanned = sparse_form(other)
        assert scanned is not stored
        # byte for byte: canonical order, no explicit zeros
        for part in ("data", "indices", "indptr"):
            assert getattr(scanned, part).tobytes() == getattr(stored, part).tobytes(), part


@pytest.mark.parametrize("end", ["MATINV+", "DET+"])
def test_the_dense_view_and_the_csc_parts_are_read_only(cycle_ends, end):
    inst = cycle_ends[end]
    a = inst.matrix
    assert inst.matrices[0] is a  # densified once, then kept
    assert a.flags.c_contiguous
    for part in (a, inst.forms[0].data, inst.forms[0].indices, inst.forms[0].indptr):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part.flat[0] = part.flat[0]


def test_a_det_plus_cycle_decides_without_a_dense_copy():
    # one dense 3528 x 3528 complex array is 199 MB
    src = _det_plus_cycle_instance(5, True)
    tracemalloc.start()
    try:
        end, _ = chain(src, DET_PLUS_CYCLE)
        decision = oracle_decide(end, check="gap")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end.params.n == 3528
    assert decision.value is DecisionValue.ONE
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
