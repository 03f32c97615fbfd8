"""Dense complex linear algebra used throughout the package.

Everything operates on plain ``numpy`` complex arrays.  The one convention
that the rest of the package depends on is the vectorization order: matrices
are stacked row-major, so ``vec(A)[r*d + c] == A[r, c]`` and
``vec(A @ rho @ B) == kron(A, B.T) @ vec(rho)``.  The superoperator helpers
(:func:`natural_representation`, :func:`vec_index`) and the circuit encoder
all use this order and break if it is changed in only one place.

Storage is always dense, but the reductions produce matrices that are almost
all zeros.  The kernels :func:`inverse_entry`, :func:`log_abs_det` and
:func:`gram` therefore compute on a sparse copy (:func:`sparse_form`)
whenever the input is sparse enough, and on the dense array otherwise.
SciPy is imported only on the sparse path.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

#: the kernels go sparse when at most this share of the entries is nonzero
SPARSE_DENSITY = 1 / 64


class NonConvergenceError(RuntimeError):
    """A dense decomposition failed to converge (never silently ignored)."""


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def multiply(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal assembly of square blocks."""
    blocks = [as_matrix(b, square=True) for b in blocks]
    if not blocks:
        return np.zeros((0, 0), dtype=np.complex128)
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def svd_values(a) -> np.ndarray:
    """Singular values in descending order; sigma_min is the last element."""
    a = as_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge: {exc}") from exc
    return s


def sparse_form(a: np.ndarray):
    """CSC copy of ``a`` when at most 1/64 of its entries are nonzero, else None.

    An invertible n x n matrix has at least n nonzeros, so it qualifies only
    from n = 64 on; small instances never load SciPy.
    """
    nonzero = a != 0
    if np.count_nonzero(nonzero) > SPARSE_DENSITY * a.size:
        return None
    from scipy import sparse

    rows, cols = np.nonzero(nonzero)
    return sparse.csc_array((a[rows, cols], (rows, cols)), shape=a.shape)


def _splu(sp):
    """Sparse LU; an exactly singular matrix raises ``LinAlgError`` as the
    dense LAPACK path does."""
    from scipy.sparse.linalg import splu

    try:
        return splu(sp)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise np.linalg.LinAlgError(f"Singular matrix: {exc}") from exc


def inverse_entry(a: np.ndarray, s: int, t: int) -> complex:
    """Entry (s, t) of a^-1, 1-based, from one column solve.

    Raises ``np.linalg.LinAlgError`` when ``a`` is exactly singular.
    """
    rhs = np.zeros(a.shape[0], dtype=np.complex128)
    rhs[t - 1] = 1.0
    sp = sparse_form(a)
    col = np.linalg.solve(a, rhs) if sp is None else _splu(sp).solve(rhs)
    return complex(col[s - 1])


def log_abs_det(a: np.ndarray) -> float:
    """ln|det a| by triangular factorization; -inf when ``a`` is singular."""
    sp = sparse_form(a)
    if sp is None:
        return float(np.linalg.slogdet(a)[1])
    try:
        lu = _splu(sp)
    except np.linalg.LinAlgError:
        return -np.inf
    # L has a unit diagonal and the permutations have |det| = 1
    return float(np.sum(np.log(np.abs(lu.U.diagonal()))))


def gram(a: np.ndarray, *, left: bool) -> np.ndarray:
    """A^dag A when ``left`` (the adjoint on the left), else A A^dag.

    The result is exactly Hermitian: it is averaged with its own adjoint
    before it is returned (on the sparse path, before it is densified).
    """
    sp = sparse_form(a)
    m = a if sp is None else sp
    g = m.conj().T @ m if left else m @ m.conj().T
    g = (g + g.conj().T) / 2.0
    return g if sp is None else g.toarray(order="C")


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_matrix(a, square=True)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol) if a.size else True


def hermitian_eigs(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    a = as_matrix(a, square=True)
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return w[::-1]


def vec(a) -> np.ndarray:
    """Row-major vectorization: vec(A)[r*d + c] = A[r, c]."""
    return as_matrix(a).reshape(-1)


def unvec(v, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.size != d * d:
        raise ValueError(f"cannot reshape length-{v.size} vector to {d}x{d}")
    return v.reshape(d, d)


def vec_index(row_state: int, col_state: int, d: int) -> int:
    """Position of the matrix unit |row><col| under row-major vectorization."""
    if not (0 <= row_state < d and 0 <= col_state < d):
        raise ValueError(f"states ({row_state}, {col_state}) out of range for d={d}")
    return row_state * d + col_state


def kraus_defect(operators) -> float:
    """Max-abs deviation of sum_k K_k^dag K_k from the identity."""
    ops = [as_matrix(k, square=True) for k in operators]
    if not ops:
        raise ValueError("empty Kraus set")
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in ops:
        if k.shape != (d, d):
            raise ValueError("Kraus operators must share one dimension")
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - np.eye(d))))


def check_kraus_complete(operators, tol: float = DEFAULT_TOL) -> None:
    defect = kraus_defect(operators)
    if defect > tol:
        raise ValueError(f"Kraus set is not trace preserving: completeness defect {defect:.3e}")


def natural_representation(operators, tol: float = DEFAULT_TOL) -> np.ndarray:
    """d^2 x d^2 matrix K of the channel, with vec(Phi(A)) = K vec(A).

    Under row-major vec the channel rho -> sum_k K_k rho K_k^dag has
    K = sum_k K_k (x) conj(K_k).
    """
    ops = [as_matrix(k, square=True) for k in operators]
    check_kraus_complete(ops, tol)
    d = ops[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ops:
        out += np.kron(k, k.conj())
    return out


def adjoint_apply(operators, x) -> np.ndarray:
    """Heisenberg-picture action sum_k K_k^dag X K_k."""
    x = as_matrix(x, square=True)
    out = np.zeros_like(x)
    for k in operators:
        k = as_matrix(k, square=True)
        out += k.conj().T @ x @ k
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
