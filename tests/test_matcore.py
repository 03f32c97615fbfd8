"""Core linear algebra against independent brute-force oracles."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy import sparse

import condred
from condred.matcore import (
    Spectrum,
    as_matrix,
    hermitian_eigs,
    identity_minus,
    kraus_superoperator,
    natural_representation,
    nonzeros,
    random_kraus_set,
    random_unitary,
    svd_values,
    vec,
    vec_index,
)
from conftest import random_complex

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def test_as_matrix_rejects_nonfinite_and_rectangular():
    with pytest.raises(ValueError, match="finite"):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.ones((2, 3)), square=True)


class TestSvdValues:
    def test_identity(self):
        assert np.allclose(svd_values(np.eye(3)), [1, 1, 1])

    def test_diag(self):
        assert np.allclose(svd_values(np.diag([2.0, 0.5])), [2.0, 0.5])

    def test_squares_are_gram_eigs(self, rng):
        a = random_complex(rng, 6, 6)
        s = svd_values(a)
        lam = hermitian_eigs(a.conj().T @ a)
        assert np.allclose(s**2, lam, atol=1e-9)

    def test_descending(self, rng):
        s = svd_values(random_complex(rng, 5, 7))
        assert np.all(np.diff(s) <= 0)

    def test_unitary_product_all_ones(self, rng):
        u = random_unitary(4, rng) @ random_unitary(4, rng) @ random_unitary(4, rng)
        assert np.allclose(svd_values(u), np.ones(4), atol=1e-9)


class TestHermitianEigs:
    def test_identity(self):
        assert np.allclose(hermitian_eigs(I2), [1, 1])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigs(X), [1, -1])

    def test_trace_identity(self, rng):
        g = random_complex(rng, 5, 5)
        h = g + g.conj().T
        assert abs(hermitian_eigs(h).sum() - np.trace(h).real) < 1e-9

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            hermitian_eigs(random_complex(rng, 3, 3))


class TestSpectrum:
    def test_an_exactly_hermitian_matrix_takes_its_sigma_from_lambda(self, rng, monkeypatch):
        g = random_complex(rng, 5, 5)
        spec = Spectrum(g + g.conj().T)
        monkeypatch.setattr("condred.matcore.svd_values", None)  # never called
        assert spec.defect == 0.0
        assert np.array_equal(spec.sigma, np.sort(np.abs(spec.lam))[::-1])
        assert np.allclose(spec.sigma, np.linalg.svd(g + g.conj().T, compute_uv=False), rtol=0, atol=1e-12)

    def test_any_other_matrix_takes_one_svd(self, rng):
        g = random_complex(rng, 4, 4)
        spec = Spectrum(g)
        assert spec.defect == np.max(np.abs(g - g.conj().T))
        assert np.array_equal(spec.sigma, svd_values(g))

    def test_a_nearly_hermitian_matrix_keeps_its_eigensolve(self, rng):
        g = random_complex(rng, 4, 4)
        h = g + g.conj().T
        h[0, 1] += 1e-12
        spec = Spectrum(h)
        assert 0.0 < spec.defect <= 2e-12
        assert np.array_equal(spec.sigma, svd_values(h))
        assert np.array_equal(spec.lam, np.linalg.eigvalsh(h)[::-1])

    def test_values_are_read_only_and_kept(self):
        spec = Spectrum(np.diag([0.5, -2.0]).astype(complex))
        assert spec.sigma is spec.sigma and spec.lam is spec.lam
        assert list(spec.sigma) == [2.0, 0.5] and list(spec.lam) == [0.5, -2.0]
        for values in (spec.sigma, spec.lam):
            with pytest.raises(ValueError):
                values[0] = 0.0


@pytest.mark.parametrize("fmt", ["csc", "coo"])
def test_nonzeros_leaves_a_non_canonical_matrix_as_it_was(fmt):
    # entries 1 and -1 at (0, 0) and 3 at (1, 1): one nonzero once summed
    data = np.array([1.0, -1.0, 3.0], dtype=complex)
    if fmt == "csc":
        a = sparse.csc_array((data, np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
        arrays = lambda: (a.data, a.indices, a.indptr)
    else:
        a = sparse.coo_array((data, (np.array([0, 0, 1]), np.array([0, 0, 1]))), shape=(2, 2))
        arrays = lambda: (a.data, *a.coords)
    before = [np.copy(x) for x in arrays()]
    assert not a.has_canonical_format
    assert nonzeros(a) == 1
    assert all(np.array_equal(x, y) for x, y in zip(arrays(), before))
    assert not a.has_canonical_format


class TestVecIndex:
    def test_examples(self):
        assert vec_index(0, 0, 2) == 0
        assert vec_index(1, 1, 2) == 3
        assert vec_index(1, 0, 2) == 2

    def test_matches_row_major_enumeration(self):
        d = 3
        for r in range(d):
            for c in range(d):
                unit = np.zeros((d, d))
                unit[r, c] = 1.0
                assert vec(unit)[vec_index(r, c, d)] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vec_index(2, 0, 2)

    @given(st.integers(1, 6))
    def test_bijection(self, d):
        seen = {vec_index(r, c, d) for r in range(d) for c in range(d)}
        assert seen == set(range(d * d))


class TestVec:
    def test_vec_of_sandwich(self, rng):
        # the defining relation of the chosen order
        a, rho, b = (random_complex(rng, 3, 3) for _ in range(3))
        assert np.allclose(vec(a @ rho @ b), np.kron(a, b.T) @ vec(rho), atol=1e-12)


def apply_channel(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


class TestNaturalRepresentation:
    def test_identity_channel(self):
        assert np.allclose(natural_representation([I2]), np.eye(4))

    def test_unitary_x(self):
        assert np.allclose(natural_representation([X]), np.kron(X, X))

    def test_depolarizing(self):
        # rho -> tr(rho) I/2 realized by the four normalized Paulis
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        ops = [0.5 * I2, 0.5 * X, 0.5 * y, 0.5 * z]
        k = natural_representation(ops)
        want = 0.5 * np.outer(vec(I2), vec(I2))
        assert np.allclose(k, want, atol=1e-12)
        assert abs(svd_values(k)[0] - 1.0) < 1e-12

    def test_defining_identity_on_basis(self, rng):
        for d in (2, 4):
            ops = random_kraus_set(d, 3, rng)
            k = natural_representation(ops)
            for r in range(d):
                for c in range(d):
                    unit = np.zeros((d, d), dtype=np.complex128)
                    unit[r, c] = 1.0
                    assert np.allclose(k @ vec(unit), vec(apply_channel(ops, unit)), atol=1e-10)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            natural_representation([0.5 * I2])

    def test_largest_singular_value_bound(self):
        # channels on h qubits have superoperator norm at most 2^h
        for seed in range(100):
            rng = np.random.default_rng(seed)
            h = 1 + seed % 3
            d = 2**h
            ops = random_kraus_set(d, 1 + seed % 4, rng)
            assert svd_values(natural_representation(ops))[0] <= d + 1e-7

    def test_composition_multiplies(self, rng):
        d = 4
        k1 = random_kraus_set(d, 2, rng)
        k2 = random_kraus_set(d, 3, rng)
        composed = [b @ a for b in k2 for a in k1]
        lhs = natural_representation(k2) @ natural_representation(k1)
        assert np.allclose(lhs, natural_representation(composed), atol=1e-9)


@pytest.mark.parametrize("d,n_ops", [(2, 1), (4, 3), (8, 2)])
def test_superoperator_has_the_bits_of_the_kron_sum(d, n_ops):
    ops = random_kraus_set(d, n_ops, np.random.default_rng(d + n_ops))
    want = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in ops:
        want += np.kron(k, k.conj())
    assert kraus_superoperator(ops).tobytes() == want.tobytes()
    assert natural_representation(ops).tobytes() == want.tobytes()


@pytest.mark.parametrize("n,density", [(1, 1.0), (5, 0.3), (9, 0.1)])
def test_identity_minus_keeps_the_form_and_the_bits(rng, n, density):
    a = random_complex(rng, n, n) * (rng.uniform(size=(n, n)) < density)
    a[0, 0] = 1.0  # an entry of I - A that cancels to zero
    want = np.eye(n, dtype=np.complex128) - a
    assert identity_minus(a).tobytes() == want.tobytes()
    got = identity_minus(sparse.csc_array(a))
    assert type(got) is sparse.csc_array and got.has_canonical_format and got.data.all()
    assert not any(p.flags.writeable for p in (got.data, got.indices, got.indptr))
    assert got.toarray().tobytes() == want.tobytes()


def test_only_the_instance_views_read_the_dense_matrices():
    # library code computes on ``forms`` and densifies through dense_form; the
    # dense ``matrices`` are read only by ProblemInstance's public views
    allowed = {"matrices", "matrix", "spectrum"}
    reads = []
    for path in sorted(Path(condred.__file__).parent.glob("*.py")):
        text = path.read_text()
        views = [node for node in ast.walk(ast.parse(text)) if path.name == "problems.py"
                 and isinstance(node, ast.FunctionDef) and node.name in allowed]
        for number, line in enumerate(text.splitlines(), 1):
            if re.search(r"\.(matrix|matrices)\b", line) and not any(
                    v.lineno <= number <= v.end_lineno for v in views):
                reads.append(f"{path.name}:{number}: {line.strip()}")
    assert reads == []
