"""Dense complex linear algebra used throughout the package.

Most of it operates on plain ``numpy`` complex arrays.  The one convention
that the rest of the package depends on is the vectorization order: matrices
are stacked row-major, so ``vec(A)[r*d + c] == A[r, c]`` and
``vec(A @ rho @ B) == kron(A, B.T) @ vec(rho)``.  The superoperator helpers
(:func:`natural_representation`, :func:`vec_index`) and the circuit encoder
all use this order and break if it is changed in only one place.

The reductions produce matrices that are almost all zeros.  Density is
decided once, when a matrix is stored: the builders assemble a block matrix
straight into that form (:func:`condred.reductions._block_matrix`), a
canonical read-only CSC made in one column-ordered pass when it is nearly
empty and a dense array filled through slices otherwise.  An instance keeps
that form (:func:`as_form`), adopting a builder's CSC without a copy, and
only :func:`dense_form` densifies it.  The kernels :func:`inverse_entry`,
:func:`log_abs_det`, :func:`gram` and :func:`identity_minus` (I - A, formed
nowhere else) compute on the form they are given: a dense array goes to
LAPACK and a dense product, a sparse matrix to SuperLU and the sparse
product (exactly Hermitian as :func:`gram` makes it), whatever its density.
SciPy is imported only on the sparse path.  Every iterated product sweeps a
dense block of rows through the stored factors (:func:`running_products`);
the circuit compiler builds its cleanup suffix once per qubit count
(:func:`condred.circuits.cleanup_gates`).

Every singular value and eigenvalue of a matrix comes from its one
:class:`Spectrum`: one SVD, or one ``eigvalsh`` when it is exactly Hermitian.

SuperLU is set for the reductions' block-banded outputs (:func:`_splu`).
A known limit: density alone does not predict its fill.  One inverse entry
of a random CSC with n = 1152 and 5% of its entries nonzero takes 0.63 s
(0.32 s under SciPy's defaults) against 0.06 s by LAPACK (2-vCPU Xeon VM).
"""

from __future__ import annotations

import sys
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-9


class NonConvergenceError(RuntimeError):
    """A dense decomposition failed to converge (never silently ignored)."""


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def svd_values(a) -> np.ndarray:
    """Singular values in descending order; sigma_min is the last element."""
    a = as_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge: {exc}") from exc
    return s


def is_sparse(a) -> bool:
    """Whether ``a`` is a SciPy sparse matrix; never imports SciPy."""
    sparse = sys.modules.get("scipy.sparse")  # not loaded: ``a`` cannot be sparse
    return sparse is not None and sparse.issparse(a)


def as_form(a, *, square: bool = False):
    """:func:`as_matrix` for a dense matrix; a SciPy sparse one becomes its
    canonical CSC form.

    Canonical means complex128 with duplicates summed, no explicit zeros and
    read-only parts.  A ``csc_array`` that is so already (as a reduction's
    is) is adopted, anything else copied.  Shape and finiteness are checked
    on the stored entries, without densifying.
    """
    if not is_sparse(a):
        return as_matrix(a, square=square)
    from scipy import sparse

    if not (isinstance(a, sparse.csc_array) and a.dtype == np.complex128 and a.has_canonical_format
            and not any(p.flags.writeable for p in (a.data, a.indices, a.indptr)) and a.data.all()):
        a = sparse.csc_array(a, dtype=np.complex128, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        _frozen(a)
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a.data).all():
        raise ValueError("matrix entries must be finite")
    return a


def dense_form(a) -> np.ndarray:
    """``a`` itself when it is a dense array; else its entries in a new
    read-only C-ordered array."""
    if isinstance(a, np.ndarray):
        return a
    out = a.toarray(order="C")
    out.flags.writeable = False
    return out


def identity_minus(a):
    """I - A in ``a``'s form, with the bits of ``np.eye(n) - a``; a canonical read-only CSC for a sparse ``a``."""
    if not is_sparse(a):
        return np.eye(a.shape[0], dtype=np.complex128) - a
    from scipy import sparse

    return as_form(sparse.eye_array(a.shape[0], dtype=np.complex128, format="csc") - a)


def nonzeros(a) -> int:
    """Number of nonzero entries of a dense or SciPy sparse matrix; SciPy sums
    duplicates in place to count, so a non-canonical one is counted on a copy."""
    if isinstance(a, np.ndarray):
        return np.count_nonzero(a)
    return (a if getattr(a, "has_canonical_format", True) else a.copy()).count_nonzero()


def _splu(sp):
    """Sparse LU with partial pivoting, columns ordered by minimum degree on
    A^T+A and factored one at a time: a block-banded L+U holds 1.0-2.2x
    nnz(A), too little fill for SciPy's supernodes and 12-column panels to
    pay.  An exactly singular matrix raises ``LinAlgError`` as on LAPACK."""
    from scipy.sparse.linalg import splu

    try:
        return splu(sp, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise np.linalg.LinAlgError(f"Singular matrix: {exc}") from exc


def inverse_entry(a, s: int, t: int) -> complex:
    """Entry (s, t) of a^-1, 1-based, from one column solve; ``a`` is dense
    or SciPy sparse.

    Raises ``np.linalg.LinAlgError`` when ``a`` is exactly singular.
    """
    rhs = np.zeros(a.shape[0], dtype=np.complex128)
    rhs[t - 1] = 1.0
    col = np.linalg.solve(a, rhs) if isinstance(a, np.ndarray) else _splu(a.tocsc()).solve(rhs)
    return complex(col[s - 1])


def log_abs_det(a) -> float:
    """ln|det a| by triangular factorization; -inf when ``a`` is singular.
    ``a`` is dense or SciPy sparse."""
    if isinstance(a, np.ndarray):
        return float(np.linalg.slogdet(a)[1])
    try:
        lu = _splu(a.tocsc())
    except np.linalg.LinAlgError:
        return -np.inf
    # L has a unit diagonal and the permutations have |det| = 1
    return float(np.sum(np.log(np.abs(lu.U.diagonal()))))


def _frozen(a):
    """``a``, a sparse matrix only its maker holds, with read-only parts."""
    for part in (a.data, a.indices, a.indptr):
        part.flags.writeable = False
    return a


def adjoint(a):
    """A^dag: a view of a dense ``a``; for a sparse one, a canonical
    read-only CSC (:func:`as_form`) on new copies of A's rows."""
    if not is_sparse(a):
        return a.conj().T
    adj = a.tocsr(copy=True).T  # A^T in CSC, on new arrays
    np.conjugate(adj.data, out=adj.data)
    return as_form(_frozen(adj))


def gram(a, *, left: bool, adj=None):
    """A^dag A when ``left`` (the adjoint on the left), else A A^dag, in
    ``a``'s form: a C-ordered array for a dense ``a``, a canonical read-only
    CSC for a sparse one; ``adj`` is :func:`adjoint`'s A^dag if the caller
    holds it.  The result is exactly Hermitian.  A dense product is averaged
    with its own adjoint.  A sparse one is already exactly Hermitian: entry
    (i, j) and entry (j, i) of the product of two CSCs, one the adjoint of the
    other, are sums of the same conjugate products, taken in the same order.
    """
    adj = adjoint(a) if adj is None else adj
    g = adj @ a if left else a @ adj
    if not is_sparse(g):
        return (g + g.conj().T) / 2.0
    g.sort_indices()
    return as_form(_frozen(g))


def running_products(start: np.ndarray, factors):
    """Yield start @ F1, start @ F1 @ F2, ... for a dense block of rows
    ``start`` and dense or SciPy sparse factors; each product is dense."""
    for f in factors:
        start = start @ f
        yield start


class Spectrum:
    """The spectral record of a square complex array A, each part computed
    on first read and kept: its Hermitian defect max |A - A^dag|, and its
    singular values ``sigma`` and eigenvalues ``lam`` (``eigvalsh`` of its
    lower triangle), descending and read-only.  An exactly Hermitian A
    (defect 0) takes one ``eigvalsh`` for both, its sigma being the sorted
    |lambda|; any other A takes one SVD, and an eigensolve only if ``lam``
    is read, after the reader has tested ``defect`` against its tolerance.
    """

    def __init__(self, a: np.ndarray):
        self.a = a

    @cached_property
    def defect(self) -> float:
        return float(np.max(np.abs(self.a - self.a.conj().T)))

    @cached_property
    def lam(self) -> np.ndarray:
        try:
            w = np.linalg.eigvalsh(self.a)[::-1]
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
        w.flags.writeable = False
        return w

    @cached_property
    def sigma(self) -> np.ndarray:
        sv = np.sort(np.abs(self.lam))[::-1] if self.defect == 0.0 else svd_values(self.a)
        sv.flags.writeable = False
        return sv


def hermitian_eigs(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (within :data:`DEFAULT_TOL`), descending."""
    spec = Spectrum(as_matrix(a, square=True))
    if spec.defect > DEFAULT_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return spec.lam


def vec(a) -> np.ndarray:
    """Row-major vectorization: vec(A)[r*d + c] = A[r, c]."""
    return as_matrix(a).reshape(-1)


def vec_index(row_state: int, col_state: int, d: int) -> int:
    """Position of the matrix unit |row><col| under row-major vectorization."""
    if not (0 <= row_state < d and 0 <= col_state < d):
        raise ValueError(f"states ({row_state}, {col_state}) out of range for d={d}")
    return row_state * d + col_state


def check_kraus_complete(operators) -> None:
    """ValueError unless sum_k K_k^dag K_k is the identity to within :data:`DEFAULT_TOL` (max-abs)."""
    ops = [as_matrix(k, square=True) for k in operators]
    if not ops:
        raise ValueError("empty Kraus set")
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in ops:
        if k.shape != (d, d):
            raise ValueError("Kraus operators must share one dimension")
        acc += k.conj().T @ k
    defect = float(np.max(np.abs(acc - np.eye(d))))
    if defect > DEFAULT_TOL:
        raise ValueError(f"Kraus set is not trace preserving: completeness defect {defect:.3e}")


def natural_representation(operators) -> np.ndarray:
    """d^2 x d^2 matrix K of the channel, with vec(Phi(A)) = K vec(A).

    Under row-major vec the channel rho -> sum_k K_k rho K_k^dag has
    K = sum_k K_k (x) conj(K_k).
    """
    ops = [as_matrix(k, square=True) for k in operators]
    check_kraus_complete(ops)
    return kraus_superoperator(ops)


def kraus_superoperator(ops) -> np.ndarray:
    """sum_k K_k (x) conj(K_k), the products np.kron forms, for a checked Kraus set."""
    d = ops[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ops:
        out += np.multiply.outer(k, k.conj()).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return out


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the draw is deterministic in the rng stream
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q


def random_kraus_set(d: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random channel: slices of a random isometry, exactly trace preserving."""
    g = rng.normal(size=(n_ops * d, d)) + 1j * rng.normal(size=(n_ops * d, d))
    q, _ = np.linalg.qr(g)
    return [np.ascontiguousarray(q[i * d : (i + 1) * d, :]) for i in range(n_ops)]
