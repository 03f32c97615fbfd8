"""The matcore kernels on the reductions' nearly empty matrices.

``inverse_entry``, ``log_abs_det`` and ``gram`` take a dense array or a
SciPy sparse matrix and follow its form: a sparse matrix is computed on
sparse, whatever its density, and a dense one on dense LAPACK.  Here they
are checked against dense LAPACK on the largest matrices the package builds,
both as the instance stores them and as dense arrays: the ends of both
reduction cycles and a compiled h = 2 circuit; on the MATINV inside the
MATINV+ cycle, whose pattern is not symmetric; on stored CSC matrices above
the builders' cutoff, which must be decided without a dense copy; and on
either form of nearly empty and denser matrices.
"""

import numpy as np
import pytest
from scipy import sparse

from condred.circuits import append_cleanup, eliminate_measurements
from condred import matcore
from condred.matcore import as_form, gram, inverse_entry, log_abs_det
from condred.problems import ConditionParams, DecisionValue, Kind, ProblemInstance, gen_instance, oracle_decide
from condred.reductions import DET_PLUS_CYCLE, MATINV_PLUS_CYCLE, SPARSE_DENSITY, chain
from conftest import random_complex
from test_acceptance import _det_plus_cycle_instance, _matinv_plus_cycle_instance
from test_circuits import forced_circuit

ENTRY_RTOL = 1e-10
LOGDET_RTOL = 1e-9


def _dense_inverse_entry(a, s, t):
    rhs = np.zeros(a.shape[0], dtype=complex)
    rhs[t - 1] = 1.0
    return complex(np.linalg.solve(a, rhs)[s - 1])


def _matinv_plus_cycle_end():
    out, _ = chain(_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE)
    assert out.params.n == 2450
    return out


def _det_plus_cycle_end():
    out, _ = chain(_det_plus_cycle_instance(0, True), DET_PLUS_CYCLE)
    assert out.params.n == 350
    return out


def _compiled_circuit():
    out, _ = eliminate_measurements(append_cleanup(forced_circuit(2, 2, 3, True)))
    assert out.params.n >= 1152
    return out


ENDS = {
    "MATINV+ cycle end": _matinv_plus_cycle_end,
    "DET+ cycle end": _det_plus_cycle_end,
    "compiled h=2 circuit": _compiled_circuit,
}


@pytest.fixture(scope="module", params=list(ENDS))
def end_instance(request):
    return ENDS[request.param]()


def test_end_matrices_take_the_sparse_path(end_instance):
    sp = end_instance.forms[0]
    assert sparse.issparse(sp)
    assert sp.nnz == np.count_nonzero(end_instance.matrix)
    assert np.array_equal(sp.toarray(), end_instance.matrix)


def test_inverse_entry_matches_dense(end_instance):
    a = end_instance.matrix
    n = a.shape[0]
    # the designated entry where there is one, and diagonal entries, which
    # are nonzero here (most off-diagonal ones are zero by block structure)
    pairs = [(1, 1), (n // 2, n // 2), (n, n)]
    if end_instance.s is not None:
        pairs.append((end_instance.s, end_instance.t))
    for s, t in pairs:
        want = _dense_inverse_entry(a, s, t)
        assert want != 0
        for form in (a, end_instance.forms[0]):
            got = inverse_entry(form, s, t)
            assert abs(got - want) <= ENTRY_RTOL * abs(want), (s, t, got, want)


def test_log_abs_det_matches_dense(end_instance):
    a = end_instance.matrix
    want = float(np.linalg.slogdet(a)[1])
    for form in (a, end_instance.forms[0]):
        got = log_abs_det(form)
        assert abs(got - want) <= LOGDET_RTOL * abs(want), (got, want)


def _matinv_inside_the_matinv_plus_cycle():
    out, _ = chain(_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE[:-1])
    assert out.kind is Kind.MATINV and out.params.n == 1225
    return out


def test_kernels_pivot_on_a_csc_whose_pattern_is_not_symmetric():
    # SuperLU orders columns by minimum degree on A^T+A; the LU must still
    # pivot by rows.  The rows of the second copy are reversed and its
    # diagonal, zero but for the middle entry, is set to 1e-12: only an LU
    # that passes over those pivots factors it accurately
    inst = _matinv_inside_the_matinv_plus_cycle()
    a = inst.forms[0]
    pattern = abs(sparse.csc_array((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape))
    assert sparse.issparse(a) and (pattern != pattern.T).nnz > 0
    n = a.shape[0]
    assert np.count_nonzero(a[::-1].diagonal()) == 1
    reversed_rows = as_form(a[::-1] + 1e-12 * sparse.eye_array(n))
    for m, flipped in ((a, False), (reversed_rows, True)):
        dense = m.toarray()
        for s, t in ((1, 1), (n // 2, n // 2), (n, n), (inst.s, inst.t)):
            t = n + 1 - t if flipped else t  # (PA)^-1 = A^-1 P^T: A^-1's columns reversed
            want = _dense_inverse_entry(dense, s, t)
            assert want != 0
            got = inverse_entry(m, s, t)
            assert abs(got - want) <= ENTRY_RTOL * abs(want), (s, t, got, want)
        want = float(np.linalg.slogdet(dense)[1])
        assert abs(log_abs_det(m) - want) <= LOGDET_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize("left", [True, False])
def test_gram_matches_dense_and_is_hermitian(end_instance, left):
    a = end_instance.matrix
    want = a.conj().T @ a if left else a @ a.conj().T
    got = gram(a, left=left)
    assert isinstance(got, np.ndarray) and got.flags.c_contiguous
    kept = gram(end_instance.forms[0], left=left)
    assert sparse.issparse(kept)
    for g in (got, kept.toarray()):
        assert np.max(np.abs(g - want)) <= 1e-13
        assert np.array_equal(g, g.conj().T)


def _canonical_parts(g):
    """The CSR arrays of ``g`` with sorted indices, as bytes."""
    g = sparse.csr_array(g, copy=True)
    g.sort_indices()
    return tuple(part.tobytes() for part in (g.data, g.indices, g.indptr))


def _random_csc(rng, n, density):
    a = sparse.random_array((n, n), density=density, rng=rng) + 1j * sparse.random_array((n, n), density=density, rng=rng)
    return as_form(a)


@pytest.mark.parametrize("left", [True, False])
def test_sparse_gram_has_the_bits_of_the_textbook_average(end_instance, rng, left):
    for a in (end_instance.forms[0], *(_random_csc(rng, n, d) for n, d in ((7, 0.3), (40, 0.05), (120, 0.02)))):
        g = a.conj().T @ a if left else a @ a.conj().T
        want = (g + g.conj().T) / 2.0
        got = gram(a, left=left)
        assert isinstance(got, sparse.csc_array) and as_form(got) is got and got.nnz == want.nnz
        assert _canonical_parts(got) == _canonical_parts(want)


def _matpow_matinv():
    """A MATPOW with n = 8, m = 15 reduces to a MATINV of n = 128 that is
    stored as CSC although 6.6% of it is nonzero."""
    out, _ = chain(gen_instance(Kind.MATPOW, ConditionParams(8, 15, 2.0, 0.02), 1), ["matpow_to_matinv"])
    assert out.params.n == 128
    return out


def _itmatprod_matinv_plus():
    """ITMATPROD (n = 4, m = 6) to MATINV+ (n = 392, 2.3% nonzero), through a
    MATINV of n = 196 at 2.0% whose Gram block the last rule builds."""
    src = gen_instance(Kind.ITMATPROD, ConditionParams(4, 6, 2.0, 0.02), 0, want_one=True)
    out, _ = chain(src, ["itmatprod_to_matpow", "matpow_to_matinv", "matinv_to_posmatinv"])
    assert out.params.n == 392
    return out


def _no_dense_copy(*args, **kwargs):
    raise AssertionError("a stored CSC was densified")


@pytest.mark.parametrize("make, value", [(_matpow_matinv, DecisionValue.ZERO),
                                         (_itmatprod_matinv_plus, DecisionValue.ONE)])
def test_a_stored_csc_above_the_cutoff_is_decided_without_a_dense_copy(make, value, monkeypatch):
    monkeypatch.setattr(sparse.csc_array, "toarray", _no_dense_copy)
    inst = make()  # the last rule's Gram block, too, is built sparse
    a = inst.forms[0]
    assert sparse.issparse(a) and a.nnz > SPARSE_DENSITY * a.shape[0] * a.shape[1]
    assert oracle_decide(inst, check="gap").value is value
    assert "matrices" not in vars(inst), "the dense view was materialised"
    monkeypatch.undo()
    want = _dense_inverse_entry(a.toarray(), inst.s, inst.t)
    assert abs(inst.quantity - want) <= ENTRY_RTOL * abs(want), (inst.quantity, want)


N = 80


def _nearly_empty(rng):
    """The diagonal and at most 20 more entries: at most N^2/64 nonzeros."""
    a = np.diag(1.0 + rng.uniform(size=N)).astype(complex)
    rows, cols = rng.integers(0, N, size=(2, 20))
    a[rows, cols] += 0.3 * random_complex(rng, 1, 20)[0]
    return a


def _denser(rng):
    """About a third of the entries nonzero."""
    return np.eye(N) + random_complex(rng, N, N) * (rng.uniform(size=(N, N)) < 0.3) / N


@pytest.mark.parametrize("make", [_nearly_empty, _denser])
@pytest.mark.parametrize("form", ["dense", "csc"])
def test_kernels_take_either_form_on_either_side_of_the_cutoff(rng, make, form):
    a = make(rng)
    m = a if form == "dense" else sparse.csc_array(a)
    for s, t in ((1, 1), (3, 70), (N, 2)):
        want = _dense_inverse_entry(a, s, t)
        assert abs(inverse_entry(m, s, t) - want) <= 1e-10 * max(1.0, abs(want)), (s, t)
    want = float(np.linalg.slogdet(a)[1])
    assert abs(log_abs_det(m) - want) <= 1e-10 * max(1.0, abs(want))
    for left in (True, False):
        g = gram(m, left=left)
        if form == "dense":
            assert isinstance(g, np.ndarray) and g.flags.c_contiguous
        else:
            assert sparse.issparse(g)
            g = g.toarray()
        assert np.max(np.abs(g - (a.conj().T @ a if left else a @ a.conj().T))) <= 1e-10
        assert np.array_equal(g, g.conj().T)


def _fails(*args, **kwargs):
    raise AssertionError("the kernel left the path of its input's form")


def test_kernels_follow_the_form_they_are_given(rng, monkeypatch):
    # a nearly empty dense matrix stays on LAPACK, its CSC copy on SuperLU
    a = _nearly_empty(rng)
    csc = sparse.csc_array(a)
    want = (inverse_entry(a, 3, 70), log_abs_det(a))
    with monkeypatch.context() as patch:
        patch.setattr(matcore, "_splu", _fails)
        assert (inverse_entry(a, 3, 70), log_abs_det(a)) == want
        assert all(isinstance(gram(a, left=left), np.ndarray) for left in (True, False))
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", _fails)
        patch.setattr(np.linalg, "slogdet", _fails)
        got = (inverse_entry(csc, 3, 70), log_abs_det(csc))
        assert all(sparse.issparse(gram(csc, left=left)) for left in (True, False))
    assert abs(got[0] - want[0]) <= 1e-10 * abs(want[0])
    assert abs(got[1] - want[1]) <= 1e-10 * max(1.0, abs(want[1]))


def test_an_instance_keeps_a_sparse_matrix_in_canonical_csc():
    # a duplicate at (0, 0), an explicit zero at (2, 1), real entries
    coo = sparse.coo_array(([1.0, 0.5, 2.0, 3.0, 0.0], ([0, 0, 1, 2, 2], [0, 0, 1, 2, 1])), shape=(3, 3))
    inst = ProblemInstance(Kind.DET, ConditionParams(3, 1, 4.0, 0.1), (coo,), b=-1.0)
    stored = inst.forms[0]
    assert stored.format == "csc" and stored.dtype == np.complex128 and stored.nnz == 3
    assert not any(p.flags.writeable for p in (stored.data, stored.indices, stored.indptr))
    assert np.array_equal(inst.matrix, coo.toarray())
    assert inst.matrix.flags.c_contiguous and not inst.matrix.flags.writeable


def _frozen(a):
    for part in (a.data, a.indices, a.indptr):
        part.flags.writeable = False
    return a


def test_as_form_adopts_only_a_frozen_canonical_csc():
    dense = np.array([[0.5, 0, 0], [0, 0.75, 0], [0.25, 0, 1.0]], dtype=complex)
    frozen = as_form(sparse.coo_array(dense))
    assert as_form(frozen) is frozen

    def csc(data, rows, indptr):
        return sparse.csc_array((np.array(data, dtype=complex), np.array(rows, dtype=np.int32),
                                 np.array(indptr, dtype=np.int32)), shape=(3, 3))

    writeable = csc([0.5, 0.25, 0.75, 1.0], [0, 2, 1, 2], [0, 2, 3, 4])
    zero = _frozen(csc([0.5, 0.0, 0.25, 0.75, 1.0], [0, 1, 2, 1, 2], [0, 3, 4, 5]))
    unsorted = _frozen(csc([0.25, 0.5, 0.75, 1.0], [2, 0, 1, 2], [0, 2, 3, 4]))
    for a in (writeable, zero, unsorted):
        assert np.array_equal(a.toarray(), dense)
        got = as_form(a)
        assert got is not a and _canonical_parts(got) == _canonical_parts(frozen)
        assert not any(p.flags.writeable for p in (got.data, got.indices, got.indptr))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_a_sparse_matrix_with_a_non_finite_entry_is_refused(bad):
    a = sparse.csc_array(np.diag(np.linspace(0.5, 1.0, N)).astype(complex))
    a.data[7] = bad
    with pytest.raises(ValueError, match="finite"):
        ProblemInstance(Kind.DET, ConditionParams(N, 1, 4.0, 0.1), (a,), b=-1.0)


def test_a_non_square_sparse_matrix_is_refused():
    a = sparse.csc_array(np.eye(N, N + 1, dtype=complex))
    with pytest.raises(ValueError, match="square"):
        ProblemInstance(Kind.DET, ConditionParams(N, 1, 4.0, 0.1), (a,), b=-1.0)


def _singular_variants(a):
    """Exactly singular copies of ``a``: a zero row, a zero column, and a
    repeated row."""
    zero_row = a.copy()
    zero_row[3, :] = 0.0
    zero_col = a.copy()
    zero_col[:, 5] = 0.0
    repeated = a.copy()
    repeated[7, :] = repeated[2, :]
    return {"zero row": zero_row, "zero column": zero_col, "repeated row": repeated}


@pytest.mark.parametrize("size", [8, 128, 350])
def test_singular_matrices_behave_as_on_the_dense_path(size):
    # dense (LAPACK) and CSC (SuperLU) copies of each
    if size == 8:
        a = np.eye(8, dtype=complex) + np.diag(np.full(7, 0.5), 1)
    elif size == 128:
        a = _matpow_matinv().matrix
    else:
        a = _det_plus_cycle_end().matrix
    for label, m in _singular_variants(a).items():
        with pytest.raises(np.linalg.LinAlgError):
            _dense_inverse_entry(m, 1, 1)
        assert np.linalg.slogdet(m)[1] == -np.inf, label
        for form in (m, sparse.csc_array(m)):
            with pytest.raises(np.linalg.LinAlgError):
                inverse_entry(form, 1, 1)
            assert log_abs_det(form) == -np.inf, label
