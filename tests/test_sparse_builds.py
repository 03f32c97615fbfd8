"""The block builders assemble sparse, and instances keep what they built.

Every rule that builds a block matrix out of its input's matrices,
identities and scalars places its blocks with one helper: in CSC when the
output is nearly empty, as a dense array otherwise.  ``det_to_posdet`` keeps
its source's form: a sparse source gives a sparse Gram product.  The output
instance stores that form and densifies it only when its ``matrices`` are
read.  Here every output's dense view is compared with the dense textbook
formula, kept below as a reference, on both reduction cycles, on a compiled
h = 2 circuit and on instances on each side of the cutoff; no nearly empty
output along the cycles is stored dense; and the decision at a cycle end is
shown to read the stored CSC and never densify.
"""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import sparse

from condred import reductions
from condred.circuits import append_cleanup, circuit_to_itmatprod
from condred.matcore import as_form, nonzeros
from condred.problems import ConditionParams, DecisionValue, Kind, ProblemInstance, oracle_decide
from condred.reductions import (
    DET_PLUS_CYCLE, MATINV_PLUS_CYCLE, RULES, SPARSE_DENSITY, _block_matrix, _log_count, chain,
)
from condred.series import logdet_terms, neumann_terms
from test_acceptance import _det_plus_cycle_instance, _matinv_plus_cycle_instance
from test_circuits import forced_circuit

#: the builders whose choice of dense or CSC depends on their source's density
BUILDERS = ("matpow_to_matinv", "nonneg_to_det", "matinv_to_posmatinv", "det_to_posdet")


def _superdiag_blocks(mats, n):
    """Block matrix with A_1..A_m immediately above the diagonal blocks."""
    m = len(mats)
    big = np.zeros((n * (m + 1), n * (m + 1)), dtype=np.complex128)
    for r, a in enumerate(mats):
        big[r * n : (r + 1) * n, (r + 1) * n : (r + 2) * n] = a
    return big


def _swap_perm(n, a, b):
    """The permutation matrix T_{a,b} exchanging basis vectors a and b (1-based)."""
    perm = np.eye(n, dtype=np.complex128)
    if a != b:
        perm[[a - 1, b - 1]] = perm[[b - 1, a - 1]]
    return perm


def _textbook_gram(inst, left):
    """A^dag A or A A^dag of the instance's matrix as the kernel computes it:
    a sparse product when the instance stores it sparse, else a dense one;
    averaged with its adjoint."""
    a = inst.matrix if isinstance(inst.forms[0], np.ndarray) else sparse.csc_array(inst.matrix)
    g = a.conj().T @ a if left else a @ a.conj().T
    g = (g + g.conj().T) / 2.0
    return g if isinstance(g, np.ndarray) else g.toarray(order="C")


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
    h[:n, :n] = _textbook_gram(inst, left=True)
    h[:n, n:] = -a.conj().T
    h[n:, :n] = -a
    h[n:, n:] = 2.0 * np.eye(n)
    h /= 3.0
    return h


def _itmatprod_to_matpow(inst):
    return _superdiag_blocks(inst.matrices, inst.params.n)


def _posdet_to_sumitmatprod(inst):
    p = inst.params
    n, l_hat, m_hat = p.n, _log_count(p.kappa), logdet_terms(p.n, p.kappa, p.epsilon)
    x = np.eye(n, dtype=np.complex128) - inst.matrix
    dim = n * (l_hat + m_hat)
    mats = []
    for k in range(1, m_hat + 1):
        # identity on the first l_hat + (k-1) diagonal blocks, then I - H; the
        # first factor carries -(I-H)/(j+1) instead
        out = np.eye(dim, dtype=np.complex128)
        for j in range(m_hat):
            lo = n * (l_hat + j)
            if k == 1:
                out[lo : lo + n, lo : lo + n] = -x / (j + 1)
            elif j >= k - 1:
                out[lo : lo + n, lo : lo + n] = x
        mats.append(out)
    return tuple(mats)


def _posmatinv_to_sumitmatprod(inst):
    n, m_hat = inst.params.n, neumann_terms(inst.params.kappa, inst.params.epsilon)
    x = np.eye(n, dtype=np.complex128) - inst.matrix
    mats = []
    for j in range(1, m_hat + 1):
        out = np.eye(n * (m_hat + 1), dtype=np.complex128)
        for blockpos in range(j, m_hat + 1):
            out[n * blockpos : n * (blockpos + 1), n * blockpos : n * (blockpos + 1)] = x
        mats.append(out)
    return tuple(mats)


def _itmatprod_to_nonneg(inst):
    n = inst.params.n
    mid = np.zeros((n, n), dtype=np.complex128)
    mid[inst.t - 1, inst.t - 1] = 1.0
    return inst.matrices + (mid,) + tuple(a.conj().T for a in reversed(inst.matrices))


def _sumitmatprod_to_itmatprod(inst):
    n, m, n_e = inst.params.n, inst.params.m, len(inst.E)
    routed = []
    for j in range(1, m + 1):
        out = np.zeros((n * n_e, n * n_e), dtype=np.complex128)
        for i, (s, t) in enumerate(inst.E):
            g = inst.matrices[j - 1]
            if j == 1:
                g = _swap_perm(n, 1, s) @ g
            if j == m:
                g = g @ _swap_perm(n, 1, t)
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = g
        routed.append(out)
    r = np.eye(n_e, dtype=np.complex128)
    r[0, :] = 1.0
    fan = np.kron(r, np.eye(n, dtype=np.complex128))
    return (fan, *routed, fan.conj().T)


#: the dense textbook formula of each block-building rule: its output's
#: matrices, or its one matrix
TEXTBOOK = {
    "matpow_to_matinv": _matpow_to_matinv,
    "nonneg_to_det": _nonneg_to_det,
    "matinv_to_posmatinv": _matinv_to_posmatinv,
    "det_to_posdet": lambda inst: _textbook_gram(inst, left=False),
    "itmatprod_to_matpow": _itmatprod_to_matpow,
    "posdet_to_sumitmatprod": _posdet_to_sumitmatprod,
    "posmatinv_to_sumitmatprod": _posmatinv_to_sumitmatprod,
    "itmatprod_to_nonneg": _itmatprod_to_nonneg,
    "sumitmatprod_to_itmatprod": _sumitmatprod_to_itmatprod,
}


def _applications(inst, path):
    """(rule, source) for each step of ``path`` that has a textbook formula."""
    found = []
    for name in path:
        if name in TEXTBOOK:
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
    (2n + n nonzeros in a 2n x 2n output); for the Gram product, which
    keeps its source's form, a dense n = 63 source and a CSC n = 64 one."""
    kind = RULES[rule].input_kind
    fields = {"DET": {"b": -1.0}, "MATINV": {"s": 1, "t": 2, "b": 0.5},
              "MATPOW": {"s": 1, "t": 2, "b": 0.5}, "ITMATPROD>=0": {"s": 1, "t": 2, "b": 0.5}}[kind.value]
    if rule != "det_to_posdet":
        return [_diagonal(kind, n, rng, **fields) for n in (47, 48)]
    below, above = _diagonal(kind, 63, rng, **fields), _diagonal(kind, 64, rng, **fields)
    return [below, dataclasses.replace(above, forms=(sparse.csc_array(above.matrix),))]


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
        if rule in BUILDERS:
            got = out.matrix
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), rule
            if rule == "matinv_to_posmatinv":
                # its blocks are placed as 0 - x: equal bytes once the
                # textbook's negative zeros are made positive
                assert got.tobytes() == (want + 0.0).tobytes(), rule
            else:
                assert got.tobytes() == want.tobytes(), rule
            continue
        want = want if isinstance(want, tuple) else (want,)
        assert len(out.matrices) == len(want), rule
        for got, ref in zip(out.matrices, want):
            assert np.array_equal(got, ref), rule
            # a layout places 0 + x, the textbook x or a product that may
            # give -0.0: equal bytes once negative zeros are made positive
            assert (got + 0.0).tobytes() == (ref + 0.0).tobytes(), rule


def test_nearly_empty_outputs_are_stored_sparse():
    # the criterion-3 cycle instances: outputs up to n = 2450 and n = 3528
    dense = []
    for src, path in ((_matinv_plus_cycle_instance(0, True), MATINV_PLUS_CYCLE),
                      (_det_plus_cycle_instance(0, True), DET_PLUS_CYCLE),
                      (_det_plus_cycle_instance(5, True), DET_PLUS_CYCLE)):
        for name in path:
            src, _ = RULES[name].apply(src)
            dense += [(name, a.shape[0]) for a in src.forms
                      if isinstance(a, np.ndarray) and a.shape[0] >= 64
                      and np.count_nonzero(a) <= a.size / 64]
    assert dense == []


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
def test_sparse_form_returns_the_kept_csc_without_a_scan(cycle_ends, end):
    inst = dataclasses.replace(cycle_ends[end])  # a fresh instance: no dense view yet
    assert oracle_decide(inst, check="gap").value is DecisionValue.ONE
    assert "matrices" not in vars(inst), "the dense view was materialised"


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


def _csc_parts(a):
    return tuple(part.tobytes() for part in (a.data, a.indices, a.indptr))


@pytest.mark.parametrize("form,n,nnz", [("dense", 5, 25), ("dense", 20, 10), ("csc", 20, 10), ("csr", 20, 10)])
def test_a_source_placed_k_times_equals_k_distinct_copies(rng, form, n, nnz):
    # the matpow_to_matinv layout: I on the diagonal, -A above it, all / 3
    k = 4
    a = np.zeros(n * n, dtype=np.complex128)
    a[rng.choice(n * n, size=nnz, replace=False)] = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    a = a.reshape(n, n)
    a = a if form == "dense" else getattr(sparse, f"{form}_array")(a)

    def layout(*blocks):
        return [(r, r, 1, 1.0) for r in range(k + 1)] + [(r, r + 1, -1, b) for r, b in enumerate(blocks)]

    once = _block_matrix(n, k + 1, (a,) * k, layout, scale=(np.divide, 3.0))
    copies = _block_matrix(n, k + 1, tuple(a.copy() for _ in range(k)), layout, scale=(np.divide, 3.0))
    assert type(once) is type(copies)
    if isinstance(once, np.ndarray):
        assert n == 5 and once.tobytes() == copies.tobytes()
    else:
        assert once.format == "csc" and once.has_canonical_format and once.data.all()
        assert not any(p.flags.writeable for p in (once.data, once.indices, once.indptr))
        assert _csc_parts(once) == _csc_parts(copies)


# _block_matrix against a dense reference written with plain slices, on drawn
# layouts: c*I, dense, CSC, CSR and non-canonical CSC blocks (repeated
# positions, explicit zeros, unsorted rows), -0.0 parts, both signs, both
# scales (one small enough to underflow), blocks placed several times and
# block rows listed out of order

_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25, 1e-30, -7e3]) | st.floats(-10, 10)


@st.composite
def _block(draw, n, most):
    """One block with at most ``most`` stored entries, in a drawn form."""
    form = draw(st.sampled_from(["scalar", "dense", "csc", "csr", "raw"]))
    if form == "scalar":
        return draw(st.sampled_from([1.0, 2.0, -1.0, 0.0, -0.0]))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=most))
    vals = [complex(draw(_PARTS), draw(_PARTS)) for _ in cells]
    if form == "raw":
        # each position at most twice, so a sum of duplicates has one order;
        # grouped by column, with the rows of a column in drawn order
        kept = sorted((k for k, c in enumerate(cells) if cells[:k].count(c) < 2), key=lambda k: cells[k][1])
        indptr = np.searchsorted([cells[k][1] for k in kept], np.arange(n + 1))
        data = np.array([vals[k] for k in kept], dtype=np.complex128)
        rows = np.array([cells[k][0] for k in kept], dtype=np.int64)
        return sparse.csc_array((data, rows, indptr), shape=(n, n))
    a = np.zeros((n, n), dtype=np.complex128)
    for (r, c), v in zip(cells, vals):
        a[r, c] = v
    return a if form == "dense" else getattr(sparse, f"{form}_array")(a)


@st.composite
def _layouts(draw, big):
    """(n, k, sources, layout, scale): ``big`` draws outputs within the 1/64
    share, the rest above it."""
    n, k = (draw(st.integers(6, 8)), 16) if big else (draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    pool = draw(st.lists(_block(n, n if big else n * n), min_size=1, max_size=4))
    spots = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=12,
                          unique=True))
    placed = [(i, j, draw(st.sampled_from([1, -1])), draw(st.integers(0, len(pool) - 1))) for i, j in spots]
    scale = draw(st.sampled_from([None, (np.divide, 3.0), (np.divide, 1e300), (np.multiply, 0.5),
                                  (np.multiply, 1e-300)]))
    # a block the layout makes itself (as a Gram block is) is not a source:
    # the storage rule does not count it, and it is read only once placed
    sources = tuple(p for p in pool if not np.isscalar(p) and draw(st.booleans()))

    def layout(*srcs):
        assert len(srcs) == len(sources) and all(a is b for a, b in zip(srcs, sources))
        return [(i, j, sign, pool[b]) for i, j, sign, b in placed]

    return n, k, sources, layout, scale


def _reference(n, k, blocks, scale):
    """B from plain slices: each block densified, added to or subtracted from
    zero, then scaled."""
    ref = np.zeros((n * k, n * k), dtype=np.complex128)
    for i, j, sign, block in blocks:
        if np.isscalar(block):
            b = np.diag(np.full(n, block, dtype=np.complex128))
        else:
            b = block.toarray() if sparse.issparse(block) else np.array(block, dtype=np.complex128)
        b = np.subtract(0.0, b) if sign < 0 else np.add(0.0, b)
        ref[i * n : (i + 1) * n, j * n : (j + 1) * n] = b if scale is None else scale[0](b, scale[1])
    return ref


@pytest.mark.parametrize("big", [False, True], ids=["dense", "csc"])
@seed(1717)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_block_matrix_equals_a_dense_reference(big, data):
    n, k, sources, layout, scale = data.draw(_layouts(big))
    dim = n * k
    handed = []  # what the assembly hands to as_form: (canonical, adopted, stores a zero)

    def as_form_spy(a, **kwargs):
        form = as_form(a, **kwargs)
        handed.append((type(a) is sparse.csc_array and a.has_canonical_format, form is a, not a.data.all()))
        return form

    with mock.patch.object(reductions, "as_form", as_form_spy):
        built = _block_matrix(n, k, sources, layout, scale=scale)
    ref = _reference(n, k, layout(*sources), scale)
    # the storage rule: CSC when the sources, each counted once, and the diagonal fill at most 1/64
    stored_dense = bool(dim + sum(nonzeros(a) for a in sources) > SPARSE_DENSITY * dim * dim)
    assert isinstance(built, np.ndarray) == stored_dense == (not big)
    if stored_dense:
        assert built.dtype == np.complex128 and built.tobytes() == ref.tobytes()
    else:
        want = sparse.csc_array(ref)
        # one CSC, sorted and free of repeated positions; adopted unless an
        # explicit zero or an underflow left a stored zero for as_form to drop
        ((canonical, adopted, zero),) = handed
        assert canonical and adopted is not zero
        assert type(built) is sparse.csc_array and built.has_canonical_format
        assert built.data.tobytes() == want.data.tobytes()
        assert np.array_equal(built.indices, want.indices) and np.array_equal(built.indptr, want.indptr)
        assert built.indices.dtype == built.indptr.dtype == np.int64
        assert not any(p.flags.writeable for p in (built.data, built.indices, built.indptr))
        inst = ProblemInstance(Kind.MATINV, ConditionParams(dim), (built,), s=1, t=1, b=0.0)
        assert inst.forms[0] is built
