"""Per-rule identities, conditioning bounds and decision preservation.

Each rule gets its closed-form examples plus a seeded comparison against an
independent dense oracle (solve / determinant / direct product).  The bulk
100-seed sweeps required for sign-off live in test_acceptance.py; here the
counts are kept small so the suite stays fast during development.
"""

import math
import re

import numpy as np
import pytest

from condred.matcore import random_unitary, svd_values
from condred.problems import (
    VERIFICATION_KINDS,
    ConditionParams,
    DecisionValue,
    Kind,
    ProblemInstance,
    _output,
    gen_instance,
    oracle_decide,
)
from condred.reductions import (
    DET_PLUS_CYCLE,
    MATINV_PLUS_CYCLE,
    RULES,
    SPARSE_DENSITY,
    _log_count,
    carried_tol,
    chain,
    identity_residual,
    measure_record,
)
from test_sparse_builds import _superdiag_blocks

GEN_PARAMS = {
    Kind.DET: ConditionParams(3, 1, 4.0, 0.2),
    Kind.DET_PLUS: ConditionParams(3, 1, 4.0, 0.2),
    Kind.MATINV: ConditionParams(4, 1, 6.0, 0.05),
    Kind.MATINV_PLUS: ConditionParams(3, 1, 4.0, 0.3),
    Kind.MATPOW: ConditionParams(3, 4, 2.0, 0.02),
    Kind.ITMATPROD: ConditionParams(3, 4, 2.0, 0.02),
    Kind.ITMATPROD_NONNEG: ConditionParams(3, 5, 4.0, 0.01),
    Kind.SUMITMATPROD: ConditionParams(3, 3, 2.0, 0.02),
    Kind.V_MATINV: ConditionParams(4, 1, 6.0, 0.05),
    Kind.V_MATPOW: ConditionParams(3, 4, 2.0, 0.02),
    Kind.V_ITMATPROD: ConditionParams(3, 4, 2.0, 0.02),
}

SEEDS = (0, 1, 2, 3, 4)


def inverse_entry(a, s, t):
    return complex(np.linalg.solve(a, np.eye(a.shape[0])[:, t - 1])[s - 1])


def make_itmatprod(n, m, seed, kind=Kind.ITMATPROD, kappa=2.0, eps=0.02):
    return gen_instance(kind, ConditionParams(n, m, kappa, eps), seed, want_one=True)


class TestItmatprodToMatpow:
    def test_single_block(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= svd_values(a)[0]
        inst = ProblemInstance(
            Kind.ITMATPROD, ConditionParams(3, 1, 1.0, 0.1), (a,), s=2, t=3, b=0.0
        )
        out, _ = RULES["itmatprod_to_matpow"].apply(inst)
        assert abs(out.matrix[out.s - 1, out.t - 1] - a[1, 2]) < 1e-12

    def test_identity_blocks(self):
        inst = ProblemInstance(
            Kind.ITMATPROD, ConditionParams(2, 3, 1.0, 0.1), (np.eye(2),) * 3, s=1, t=1, b=1.0
        )
        out, _ = RULES["itmatprod_to_matpow"].apply(inst)
        powed = np.linalg.matrix_power(out.matrix, 3)
        assert out.s == 1 and out.t == 7
        assert abs(powed[0, 6] - 1.0) < 1e-12

    def test_seeded_entry_identity(self):
        for seed in SEEDS:
            inst = make_itmatprod(3, 4, seed)
            out, _ = RULES["itmatprod_to_matpow"].apply(inst)
            want = np.linalg.multi_dot(inst.matrices)[inst.s - 1, inst.t - 1]
            got = np.linalg.matrix_power(out.matrix, 4)[out.s - 1, out.t - 1]
            assert abs(got - want) < 1e-9

    def test_power_sigma_is_max_over_block_products(self):
        inst = make_itmatprod(2, 3, seed=7)
        out, _ = RULES["itmatprod_to_matpow"].apply(inst)
        from condred.problems import partial_products

        table = partial_products(inst.matrices)
        for j in range(1, 4):
            got = svd_values(np.linalg.matrix_power(out.matrix, j))[0]
            want = max(svd_values(table[(r, r + j - 1)])[0] for r in range(1, 4 - j + 1))
            assert abs(got - want) < 1e-9


class TestMatpowToMatinv:
    def test_zero_matrix(self):
        inst = ProblemInstance(
            Kind.MATPOW, ConditionParams(2, 1, 1.0, 0.1), (np.zeros((2, 2)),), s=1, t=2, b=0.0
        )
        out, _ = RULES["matpow_to_matinv"].apply(inst)
        assert abs(inverse_entry(out.matrix, out.s, out.t)) < 1e-12

    def test_identity_power(self):
        inst = ProblemInstance(
            Kind.MATPOW, ConditionParams(2, 2, 1.0, 0.1), (np.eye(2),), s=1, t=1, b=1.0
        )
        out, _ = RULES["matpow_to_matinv"].apply(inst)
        assert out.t == 5 and out.b == 2.0
        assert abs(inverse_entry(out.matrix, 1, 5) - 2.0) < 1e-12

    def test_seeded_identity_and_bounds(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.MATPOW, GEN_PARAMS[Kind.MATPOW], seed, want_one=True)
            out, rec = RULES["matpow_to_matinv"].apply(inst)
            c = math.ceil(1 + inst.params.kappa)
            want = c * np.linalg.matrix_power(inst.matrix, inst.params.m)[inst.s - 1, inst.t - 1]
            assert abs(inverse_entry(out.matrix, out.s, out.t) - want) < 1e-8
            m, kappa = inst.params.m, inst.params.kappa
            assert 1.0 / svd_values(out.matrix)[-1] <= (1 + m * kappa) * c + 1e-7


class TestMatinvToPosmatinv:
    def test_identity_input(self):
        inst = ProblemInstance(
            Kind.MATINV, ConditionParams(3, 1, 1.0, 0.1), (np.eye(3),), s=2, t=2, b=1.0
        )
        out, _ = RULES["matinv_to_posmatinv"].apply(inst)
        assert abs(inverse_entry(out.matrix, 2, 5) - 3.0) < 1e-10
        assert abs(inverse_entry(out.matrix, 1, 5)) < 1e-10

    def test_diagonal_input(self):
        a = np.diag([1.0, 0.5]).astype(complex)
        inst = ProblemInstance(Kind.MATINV, ConditionParams(2, 1, 2.0, 0.5), (a,), s=2, t=2, b=2.0)
        out, _ = RULES["matinv_to_posmatinv"].apply(inst)
        assert abs(inverse_entry(out.matrix, 2, 4) - 6.0) < 1e-10

    def test_seeded_identity_and_eigenfloor(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.MATINV, GEN_PARAMS[Kind.MATINV], seed, want_one=True)
            out, _ = RULES["matinv_to_posmatinv"].apply(inst)
            want = 3 * abs(inverse_entry(inst.matrix, inst.s, inst.t))
            assert abs(abs(inverse_entry(out.matrix, out.s, out.t)) - want) < 1e-8
            lam = np.linalg.eigvalsh(out.matrix)
            assert lam[0] >= (3 * inst.params.kappa) ** -2 - 1e-9
            assert lam[-1] <= 1 + 1e-9


class TestPosdetToSumitmatprod:
    def test_identity_input_is_exact(self):
        inst = ProblemInstance(Kind.DET_PLUS, ConditionParams(3, 1, 2.0, 0.4), (np.eye(3),), b=0.0)
        out, _ = RULES["posdet_to_sumitmatprod"].apply(inst)
        total = sum(
            np.linalg.multi_dot(out.matrices)[s - 1, t - 1] for (s, t) in out.E
        )
        l_hat = math.floor(1 + math.log(2))
        assert abs(total - 3 * l_hat) < 1e-12

    def test_scalar_geometric_series(self):
        inst = ProblemInstance(
            Kind.DET_PLUS, ConditionParams(1, 1, 2.0, 0.1), (0.5 * np.eye(1),), b=-0.7
        )
        out, _ = RULES["posdet_to_sumitmatprod"].apply(inst)
        assert out.params.m == 8
        total = sum(np.linalg.multi_dot(out.matrices)[s - 1, t - 1] for (s, t) in out.E).real
        l_hat = 1
        assert abs(total - (l_hat + math.log(0.5))) < 0.05

    def test_seeded_remainder_one_sided(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.DET_PLUS, GEN_PARAMS[Kind.DET_PLUS], seed, want_one=True)
            out, rec = RULES["posdet_to_sumitmatprod"].apply(inst)
            rec = measure_record(rec, inst, out)
            remainder = next(b for b in rec.declared_bounds if b.quantity == "series remainder" and b.upper)
            assert -1e-10 <= remainder.measured <= inst.params.epsilon / 2 + 1e-10


class TestItmatprodToNonneg:
    def test_real_negative_entry_squares(self):
        a = np.array([[0.1, -0.3], [0.2, 0.4]], dtype=complex)
        inst = ProblemInstance(
            Kind.ITMATPROD, ConditionParams(2, 1, 1.0, 0.01), (a,), s=1, t=2, b=0.29
        )
        out, _ = RULES["itmatprod_to_nonneg"].apply(inst)
        got = np.linalg.multi_dot(out.matrices)[out.s - 1, out.t - 1]
        assert abs(got - 0.09) < 1e-12
        assert abs(out.b - 0.29**2) < 1e-15

    def test_identity_matrices(self):
        inst = ProblemInstance(
            Kind.ITMATPROD, ConditionParams(2, 2, 1.0, 0.1), (np.eye(2),) * 2, s=1, t=1, b=1.0
        )
        out, _ = RULES["itmatprod_to_nonneg"].apply(inst)
        assert abs(np.linalg.multi_dot(out.matrices)[0, 0] - 1.0) < 1e-12

    def test_seeded_squared_magnitude(self):
        for seed in SEEDS:
            inst = make_itmatprod(3, 4, seed)
            out, _ = RULES["itmatprod_to_nonneg"].apply(inst)
            want = abs(np.linalg.multi_dot(inst.matrices)[inst.s - 1, inst.t - 1]) ** 2
            got = np.linalg.multi_dot(out.matrices)[out.s - 1, out.t - 1]
            assert abs(got - want) < 1e-9
            assert abs(got.imag) < 1e-12


class TestNonnegToDet:
    def test_zero_matrices(self):
        inst = ProblemInstance(
            Kind.ITMATPROD_NONNEG,
            ConditionParams(2, 2, 1.0, 0.1),
            (np.zeros((2, 2)),) * 2,
            s=1,
            t=1,
            b=0.0,
        )
        out, _ = RULES["nonneg_to_det"].apply(inst)
        l_hat = math.floor(1 + math.log(3))
        want = math.exp(-l_hat * 6)
        _, logdet = np.linalg.slogdet(out.matrix)
        assert abs(math.exp(logdet) - want) < 1e-12

    def test_identity_single(self):
        inst = ProblemInstance(
            Kind.ITMATPROD_NONNEG, ConditionParams(1, 1, 1.0, 0.1), (np.eye(1),), s=1, t=1, b=1.0
        )
        out, _ = RULES["nonneg_to_det"].apply(inst)
        l_hat = math.floor(1 + math.log(3))
        # det(C) = 1 + A[1,1] = 2 before the e^{-l_hat} rescale of the 2x2 C
        sign, logdet = np.linalg.slogdet(out.matrix)
        assert abs(logdet - (math.log(2.0) - 2 * l_hat)) < 1e-12

    def test_seeded_det_identity_and_conditioning(self):
        for seed in SEEDS:
            inst = gen_instance(
                Kind.ITMATPROD_NONNEG, GEN_PARAMS[Kind.ITMATPROD_NONNEG], seed, want_one=True
            )
            out, rec = RULES["nonneg_to_det"].apply(inst)
            n, m, kappa = inst.params.n, inst.params.m, inst.params.kappa
            l_hat = math.floor(1 + math.log(math.floor(2 + kappa)))
            entry = np.linalg.multi_dot(inst.matrices)[inst.s - 1, inst.t - 1].real
            _, logdet = np.linalg.slogdet(out.matrix)
            want = math.log1p(entry) - l_hat * n * (m + 1)
            assert abs(logdet - want) < 1e-8
            sv = svd_values(out.matrix)
            assert sv[0] <= 1 + 1e-9
            assert sv[-1] >= (2 + m * kappa) ** -3 - 1e-9


class TestInPlaceBuilders:
    """The builders that work in one buffer give exactly the textbook formulas."""

    def test_matpow_to_matinv_matches_formula(self):
        for rule in (RULES["matpow_to_matinv"], RULES["vmatpow_to_vmatinv"]):
            for seed in SEEDS:
                inst = gen_instance(rule.input_kind, GEN_PARAMS[rule.input_kind], seed)
                out, _ = rule.apply(inst)
                n, m = inst.params.n, inst.params.m
                c = math.ceil(1.0 + inst.params.kappa)
                big = _superdiag_blocks([inst.matrix] * m, n)
                want = (np.eye(n * (m + 1), dtype=np.complex128) - big) / c
                assert np.array_equal(out.matrix, want)
                assert out.matrix.tobytes() == want.tobytes()

    def test_nonneg_to_det_matches_formula(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.ITMATPROD_NONNEG, GEN_PARAMS[Kind.ITMATPROD_NONNEG], seed)
            out, _ = RULES["nonneg_to_det"].apply(inst)
            n, m = inst.params.n, inst.params.m
            b_mat = np.eye(n * (m + 1), dtype=np.complex128) - _superdiag_blocks(inst.matrices, n)
            c_mat = b_mat.copy()
            c_mat[n * m + inst.t - 1, inst.s - 1] += 1.0
            want = math.exp(-_log_count(2.0 + inst.params.kappa)) * c_mat
            assert np.array_equal(out.matrix, want)
            assert out.matrix.tobytes() == want.tobytes()


class TestDetToPosdet:
    def test_unitary(self, rng):
        u = random_unitary(3, rng)
        inst = ProblemInstance(Kind.DET, ConditionParams(3, 1, 1.0, 0.1), (u,), b=-0.05)
        out, _ = RULES["det_to_posdet"].apply(inst)
        sign, logdet = np.linalg.slogdet(out.matrix)
        assert sign.real > 0 and abs(logdet) < 1e-10

    def test_scalar(self):
        inst = ProblemInstance(Kind.DET, ConditionParams(1, 1, 2.0, 0.1), (0.5 * np.eye(1),), b=-0.8)
        out, _ = RULES["det_to_posdet"].apply(inst)
        assert abs(out.matrix[0, 0] - 0.25) < 1e-15
        assert out.b == -1.6

    def test_seeded_squares(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.DET, GEN_PARAMS[Kind.DET], seed, want_one=True)
            out, _ = RULES["det_to_posdet"].apply(inst)
            _, ld_in = np.linalg.slogdet(inst.matrix)
            _, ld_out = np.linalg.slogdet(out.matrix)
            assert abs(ld_out - 2 * ld_in) < 1e-8 * max(1, abs(ld_out))
            assert np.allclose(svd_values(out.matrix), svd_values(inst.matrix) ** 2, atol=1e-9)


class TestPosmatinvToSumitmatprod:
    def test_identity_input(self):
        inst = ProblemInstance(
            Kind.MATINV_PLUS, ConditionParams(2, 1, 1.0, 0.5), (np.eye(2),), s=1, t=2, b=0.0
        )
        out, _ = RULES["posmatinv_to_sumitmatprod"].apply(inst)
        total = sum(np.linalg.multi_dot(out.matrices)[s - 1, t - 1] for (s, t) in out.E)
        assert abs(total) < 1e-12  # delta_{st} with s != t

    def test_scalar_geometric(self):
        inst = ProblemInstance(
            Kind.MATINV_PLUS, ConditionParams(1, 1, 2.0, 0.2), (0.5 * np.eye(1),), s=1, t=1, b=1.9
        )
        out, _ = RULES["posmatinv_to_sumitmatprod"].apply(inst)
        total = sum(np.linalg.multi_dot(out.matrices)[s - 1, t - 1] for (s, t) in out.E).real
        assert abs(total - 2.0) < 0.05

    def test_seeded_neumann_remainder(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.MATINV_PLUS, GEN_PARAMS[Kind.MATINV_PLUS], seed, want_one=True)
            out, _ = RULES["posmatinv_to_sumitmatprod"].apply(inst)
            total = sum(np.linalg.multi_dot(out.matrices)[s - 1, t - 1] for (s, t) in out.E)
            want = inverse_entry(inst.matrix, inst.s, inst.t)
            assert abs(total - want) <= inst.params.epsilon / 4 + 1e-12


class TestSumitmatprodToItmatprod:
    def test_single_pair_identity(self):
        inst = ProblemInstance(
            Kind.SUMITMATPROD,
            ConditionParams(2, 2, 1.0, 0.1),
            (np.eye(2),) * 2,
            E=((1, 1),),
            b=1.0,
        )
        out, _ = RULES["sumitmatprod_to_itmatprod"].apply(inst)
        assert abs(np.linalg.multi_dot(out.matrices)[0, 0] - 1.0) < 1e-12

    def test_symmetric_pair(self):
        a = np.array([[0.3, 0.4], [0.4, 0.1]], dtype=complex)
        inst = ProblemInstance(
            Kind.SUMITMATPROD,
            ConditionParams(2, 1, 1.0, 0.1),
            (a,),
            E=((1, 2), (2, 1)),
            b=0.8,
        )
        out, _ = RULES["sumitmatprod_to_itmatprod"].apply(inst)
        got = np.linalg.multi_dot(out.matrices)[0, 0]
        assert abs(got - 2 * a[0, 1]) < 1e-12

    def test_seeded_sum_identity_and_fan_bound(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.SUMITMATPROD, GEN_PARAMS[Kind.SUMITMATPROD], seed, want_one=True)
            out, rec = RULES["sumitmatprod_to_itmatprod"].apply(inst)
            prod = np.linalg.multi_dot(inst.matrices)
            want = sum(prod[s - 1, t - 1] for (s, t) in inst.E)
            got = np.linalg.multi_dot(out.matrices)[0, 0]
            assert abs(got - want) < 1e-8
            assert svd_values(out.matrices[0])[0] <= math.sqrt(2 * len(inst.E)) + 1e-9

    def test_rejects_empty_e(self):
        with pytest.raises(ValueError):
            ProblemInstance(Kind.SUMITMATPROD, ConditionParams(2, 1, 1.0, 0.1), (np.eye(2),), E=(), b=1.0)


class TestVmatinvToSingular:
    def test_exact_match_is_singular(self):
        inst = ProblemInstance(
            Kind.V_MATINV, ConditionParams(2, 1, 1.0, 0.5), (np.eye(2),), s=1, t=1, b=1.0
        )
        out, _ = RULES["vmatinv_to_singular"].apply(inst)
        assert svd_values(out.matrix)[-1] <= 1e-9

    def test_mismatch_is_nonsingular(self):
        inst = ProblemInstance(
            Kind.V_MATINV, ConditionParams(2, 1, 1.0, 1.0), (np.eye(2),), s=1, t=1, b=0.0
        )
        out, _ = RULES["vmatinv_to_singular"].apply(inst)
        assert svd_values(out.matrix)[-1] > 1e-6

    def test_rejects_large_b(self):
        inst = ProblemInstance(
            Kind.V_MATINV, ConditionParams(2, 1, 1.0, 0.5), (np.eye(2),), s=1, t=1, b=5.0
        )
        with pytest.raises(ValueError):
            RULES["vmatinv_to_singular"].apply(inst)

    @pytest.mark.parametrize("m", [5, 6])
    def test_a_nearly_empty_input_gives_a_dense_dilation(self, m):
        # the chain makes a vMATINV input of n = 72 (dense) or 98 (CSC) so
        # empty that the block helper assembles H_hat as CSC; it is stored dense
        for want_one in (True, False):
            src = gen_instance(Kind.V_ITMATPROD, ConditionParams(2, m, 2.0, 0.02), seed=4, want_one=want_one)
            mid, _ = chain(src, ["vitmatprod_to_vmatpow", "vmatpow_to_vmatinv"])
            out, _ = RULES["vmatinv_to_singular"].apply(mid)
            assert isinstance(out.forms[0], np.ndarray)
            n, c = mid.params.n, math.ceil(mid.params.kappa)
            c_hat = np.zeros((n + 1, n + 1), dtype=complex)
            c_hat[:n, :n] = mid.matrix * 2 * c
            c_hat[n, n] = 1 / (1 - mid.b / (2 * c))
            c_hat[np.ix_([mid.t - 1, n], [mid.s - 1, n])] -= 1.0
            assert 2 * (n + 1) + np.count_nonzero(c_hat) <= SPARSE_DENSITY * (2 * n + 2) ** 2
            h = out.matrix * (2 * c + 1)
            assert np.allclose(h[: n + 1, n + 1 :], c_hat, rtol=0, atol=1e-12)
            assert np.allclose(h[n + 1 :, : n + 1], c_hat.conj().T, rtol=0, atol=1e-12)
            assert not h[: n + 1, : n + 1].any() and not h[n + 1 :, n + 1 :].any()
            assert identity_residual("vmatinv_to_singular", mid, out) < 1e-9
            assert oracle_decide(out).value is oracle_decide(mid).value is oracle_decide(src).value

    def test_seeded_pairs_and_det_identity(self):
        for seed in SEEDS:
            for want_one in (True, False):
                inst = gen_instance(Kind.V_MATINV, GEN_PARAMS[Kind.V_MATINV], seed, want_one=want_one)
                out, _ = RULES["vmatinv_to_singular"].apply(inst)
                sv = svd_values(out.matrix)
                assert sv[0] <= 1 + 1e-9
                if want_one:
                    assert sv[-1] <= 1e-9
                else:
                    assert sv[-1] >= out.params.epsilon - 1e-12
                # matrix determinant lemma, checked on the off-diagonal block
                c = math.ceil(inst.params.kappa)
                n = inst.params.n
                c_hat = out.matrix[: n + 1, n + 1 :] * (2 * c + 1)
                b_mat = np.zeros((n + 1, n + 1), dtype=complex)
                b_mat[:n, :n] = 2 * c * inst.matrix
                b_mat[n, n] = 1.0 / (1.0 - complex(inst.b) / (2 * c))
                entry = inverse_entry(inst.matrix, inst.s, inst.t)
                det_c = np.linalg.det(c_hat)
                det_b = np.linalg.det(b_mat)
                want = (complex(inst.b) - entry) / (2 * c) * det_b
                assert abs(det_c - want) <= 1e-7 * max(1.0, abs(det_b))


class TestVerificationMirrors:
    def test_vitmatprod_roundtrip_value(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.V_ITMATPROD, GEN_PARAMS[Kind.V_ITMATPROD], seed, want_one=True)
            out, _ = RULES["vitmatprod_to_vmatpow"].apply(inst)
            want = np.linalg.multi_dot(inst.matrices)[inst.s - 1, inst.t - 1]
            got = np.linalg.matrix_power(out.matrix, out.params.m)[out.s - 1, out.t - 1]
            assert abs(got - want) < 1e-9
            assert out.b == inst.b

    def test_vmatpow_scales_complex_b(self):
        for seed in SEEDS:
            inst = gen_instance(Kind.V_MATPOW, GEN_PARAMS[Kind.V_MATPOW], seed, want_one=False)
            out, _ = RULES["vmatpow_to_vmatinv"].apply(inst)
            c = math.ceil(1 + inst.params.kappa)
            assert out.b == c * complex(inst.b)
            want = c * np.linalg.matrix_power(inst.matrix, inst.params.m)[inst.s - 1, inst.t - 1]
            assert abs(inverse_entry(out.matrix, out.s, out.t) - want) < 1e-8


class TestBoundsAndDecisions:
    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_measured_bounds_dominated(self, rule_name):
        rule = RULES[rule_name]
        for seed in SEEDS[:3]:
            inst = gen_instance(rule.input_kind, GEN_PARAMS[rule.input_kind], seed, want_one=True)
            out, rec = rule.apply(inst)
            assert rec.rule == rule_name
            assert out.kind is rule.output_kind
            assert rec.input_params == inst.params
            assert rec.output_params == out.params
            rec = measure_record(rec, inst, out)
            for bound in rec.declared_bounds:
                assert bound.holds(1e-7), (rule_name, bound)

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_gap_preservation(self, rule_name):
        rule = RULES[rule_name]
        for seed in SEEDS[:3]:
            for want_one in (True, False):
                inst = gen_instance(rule.input_kind, GEN_PARAMS[rule.input_kind], seed, want_one=want_one)
                out, _ = rule.apply(inst)
                want = DecisionValue.ONE if want_one else DecisionValue.ZERO
                assert oracle_decide(inst).value is want, (rule_name, seed, "source")
                assert oracle_decide(out).value is want, (rule_name, seed, "target")

    def test_parameter_maps_are_exact_formulas(self):
        inst = gen_instance(Kind.MATPOW, GEN_PARAMS[Kind.MATPOW], 0, want_one=True)
        out, _ = RULES["matpow_to_matinv"].apply(inst)
        n, m, kappa, eps = (
            inst.params.n,
            inst.params.m,
            inst.params.kappa,
            inst.params.epsilon,
        )
        c = math.ceil(1 + kappa)
        assert out.params.n == n * (m + 1)
        assert out.params.kappa == (1 + m * kappa) * c
        assert out.params.epsilon == c * eps


class TestOneMap:
    """Each rule's map f on the decision quantity gives b_hat, the identity
    and the tolerance its target is read at."""

    TOL = 1e-9

    @pytest.mark.parametrize("rule_name", sorted(set(RULES) - {"vmatinv_to_singular"}))
    def test_b_identity_and_verdicts_follow_the_map(self, rule_name):
        rule = RULES[rule_name]
        for seed in SEEDS[:3]:
            for want_one in (True, False):
                src = gen_instance(rule.input_kind, GEN_PARAMS[rule.input_kind], seed, want_one=want_one)
                dst, (rec,) = chain(src, [rule_name])
                m = rec.map
                lo, hi = m.remainder
                assert dst.b == m.f(src.b) + lo
                residual = abs(dst.quantity - m.f(src.quantity))
                if m.series is None:
                    assert identity_residual(rule_name, src, dst) == residual
                else:  # the remainder bounds measure q_hat - f(q)
                    assert residual <= max(-lo, hi) + 1e-12
                    assert all(b.measured is not None for b in measure_record(rec, src, dst).declared_bounds)
                # b tol/2 either side of the value (One) or of value + eps (Zero)
                verification = rule.input_kind in VERIFICATION_KINDS
                base = src.quantity if verification else _output(src, src.quantity).value
                want = DecisionValue.ONE if want_one else DecisionValue.ZERO
                for delta in (-self.TOL / 2, self.TOL / 2):
                    moved = ProblemInstance(src.kind, src.params, src.forms, src.s, src.t, src.E,
                                            base + delta + (0.0 if want_one else src.params.epsilon))
                    end, records = chain(moved, [rule_name])
                    assert oracle_decide(moved, self.TOL, "gap").value is want, (seed, delta, "source")
                    carried = carried_tol(records, self.TOL)
                    assert oracle_decide(end, self.TOL, "gap", value_tol=carried).value is want, (seed, delta)


class TestChain:
    def test_empty_path_is_identity(self):
        inst = gen_instance(Kind.MATINV, GEN_PARAMS[Kind.MATINV], 0)
        out, records = chain(inst, [])
        assert out is inst and records == []

    def test_ill_typed_path_fails_fast(self):
        inst = gen_instance(Kind.MATINV, GEN_PARAMS[Kind.MATINV], 0)
        with pytest.raises(ValueError):
            chain(inst, ["matpow_to_matinv"])
        with pytest.raises(KeyError):
            chain(inst, ["no_such_rule"])

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_apply_refuses_another_input_kind(self, rule_name):
        rule = RULES[rule_name]
        other = Kind.MATINV if rule.input_kind is not Kind.MATINV else Kind.DET
        inst = gen_instance(other, GEN_PARAMS[other], 0)
        with pytest.raises(ValueError, match=re.escape(f"rule {rule_name} expects {rule.input_kind.value}")):
            rule.apply(inst)

    def test_matinv_plus_cycle_preserves_decision(self):
        params = ConditionParams(1, 1, 1.3, 0.75)
        for want_one in (True, False):
            inst = gen_instance(Kind.MATINV_PLUS, params, seed=5, want_one=want_one)
            out, records = chain(inst, MATINV_PLUS_CYCLE)
            assert out.kind is Kind.MATINV_PLUS
            assert len(records) == len(MATINV_PLUS_CYCLE)
            src = oracle_decide(inst).value
            dst = oracle_decide(out, check="gap").value
            assert src is dst is (DecisionValue.ONE if want_one else DecisionValue.ZERO)

    def test_det_plus_cycle_preserves_decision(self):
        params = ConditionParams(2, 1, 2.0, 0.4)
        for want_one in (True, False):
            inst = gen_instance(Kind.DET_PLUS, params, seed=8, want_one=want_one)
            out, records = chain(inst, DET_PLUS_CYCLE)
            assert out.kind is Kind.DET_PLUS
            src = oracle_decide(inst).value
            dst = oracle_decide(out, check="gap").value
            assert src is dst is (DecisionValue.ONE if want_one else DecisionValue.ZERO)
