"""Promise checking, the decision oracle and the instance generators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from condred.matcore import random_unitary, svd_values
from condred.problems import (
    DEFAULT_TOL,
    VERIFICATION_KINDS,
    ConditionParams,
    DecisionValue,
    InfeasibleParams,
    Kind,
    ProblemInstance,
    _output,
    check_promise,
    gen_instance,
    oracle_decide,
    partial_products,
    product_entry,
)

ALL_KINDS = list(Kind)

GEN_PARAMS = {
    Kind.DET: ConditionParams(3, 1, 5.0, 0.3),
    Kind.DET_PLUS: ConditionParams(3, 1, 5.0, 0.3),
    Kind.MATINV: ConditionParams(4, 1, 8.0, 0.05),
    Kind.MATINV_PLUS: ConditionParams(4, 1, 6.0, 0.2),
    Kind.MATPOW: ConditionParams(3, 5, 3.0, 0.02),
    Kind.ITMATPROD: ConditionParams(3, 5, 2.0, 0.02),
    Kind.ITMATPROD_NONNEG: ConditionParams(3, 6, 4.0, 0.01),
    Kind.SUMITMATPROD: ConditionParams(3, 4, 2.0, 0.02),
    Kind.SINGULAR: ConditionParams(4, 1, 1.0, 0.2),
    Kind.V_MATINV: ConditionParams(4, 1, 8.0, 0.05),
    Kind.V_MATPOW: ConditionParams(3, 5, 3.0, 0.02),
    Kind.V_ITMATPROD: ConditionParams(3, 5, 2.0, 0.02),
}


class TestCheckPromise:
    def test_matinv_identity_passes(self):
        inst = ProblemInstance(
            Kind.MATINV, ConditionParams(2, 1, 2.0, 0.5), (np.eye(2),), s=1, t=1, b=1.0
        )
        report = check_promise(inst)
        assert report.overall
        assert abs(oracle_decide(inst).witness_value - 1.0) < 1e-12

    def test_matpow_sigma_violation(self):
        inst = ProblemInstance(
            Kind.MATPOW, ConditionParams(2, 3, 1.0, 0.1), (2.0 * np.eye(2),), s=1, t=1, b=1.0
        )
        report = check_promise(inst)
        assert not report.overall
        assert "sigma1(A^j) <= kappa for j in [m]" in report.failing()

    def test_generated_instances_pass(self):
        for kind in ALL_KINDS:
            inst = gen_instance(kind, GEN_PARAMS[kind], seed=5)
            assert check_promise(inst).overall, kind

    def test_violations_are_data_not_faults(self):
        inst = ProblemInstance(
            Kind.MATINV, ConditionParams(2, 1, 1.0, 0.5), (0.5 * np.eye(2),), s=1, t=2, b=1.0
        )
        # sigma_min = 0.5 < 1/kappa = 1: violated, reported, no exception
        assert not check_promise(inst).overall
        assert oracle_decide(inst).value is DecisionValue.PROMISE_VIOLATED


class TestOracle:
    def test_posdet_identity(self):
        inst = ProblemInstance(Kind.DET_PLUS, ConditionParams(3, 1, 2.0, 0.5), (np.eye(3),), b=0.0)
        assert oracle_decide(inst).value is DecisionValue.ONE

    def test_matinv_diagonal(self):
        a = np.diag([1.0, 0.5]).astype(complex)
        inst = ProblemInstance(Kind.MATINV, ConditionParams(2, 1, 2.0, 0.5), (a,), s=2, t=2, b=2.0)
        dec = oracle_decide(inst)
        assert dec.value is DecisionValue.ONE
        assert abs(dec.witness_value - 2.0) < 1e-12

    def test_itmatprod_matches_direct_product(self, rng):
        inst = gen_instance(Kind.ITMATPROD, GEN_PARAMS[Kind.ITMATPROD], seed=3)
        direct = np.linalg.multi_dot(inst.matrices)[inst.s - 1, inst.t - 1]
        assert abs(oracle_decide(inst).witness_value - direct) < 1e-12

    def test_singular_decides_by_sigma_min(self):
        from condred.matcore import hermitian_eigs

        one = gen_instance(Kind.SINGULAR, GEN_PARAMS[Kind.SINGULAR], seed=1, want_one=True)
        zero = gen_instance(Kind.SINGULAR, GEN_PARAMS[Kind.SINGULAR], seed=1, want_one=False)
        assert oracle_decide(one).value is DecisionValue.ONE
        assert oracle_decide(zero).value is DecisionValue.ZERO
        # eigensolver sign test agrees: sigma_min is the smallest |eigenvalue|
        for inst in (one, zero):
            sv = oracle_decide(inst).witness_value
            lam = hermitian_eigs(inst.matrix)
            assert abs(sv - np.min(np.abs(lam))) < 1e-9

    @pytest.mark.parametrize("shift", [-0.5, 0.5], ids=["below", "above"])
    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not Kind.SINGULAR])
    def test_promise_and_oracle_agree_within_tol_of_b(self, kind, shift):
        # b placed tol/2 on either side of the value the Output clause compares
        # with it: inside the tolerance of the One side for the promise check
        # and for both oracle checks alike
        for seed in range(3):
            inst = gen_instance(kind, GEN_PARAMS[kind], seed=seed)
            q = inst.quantity
            if kind in VERIFICATION_KINDS:
                b = q + shift * DEFAULT_TOL
            elif kind in (Kind.DET, Kind.DET_PLUS, Kind.ITMATPROD_NONNEG):
                b = q.real + shift * DEFAULT_TOL
            else:
                b = abs(q) + shift * DEFAULT_TOL
            moved = replace(inst, b=b)
            holds = check_promise(moved).overall
            for check in ("full", "gap"):
                decided = oracle_decide(moved, check=check).value
                assert (decided is not DecisionValue.PROMISE_VIOLATED) is holds, (kind, seed, check)
            assert holds and oracle_decide(moved).value is DecisionValue.ONE, (kind, seed)

    @pytest.mark.parametrize("kind", [Kind.MATPOW, Kind.V_MATPOW, Kind.ITMATPROD, Kind.V_ITMATPROD])
    def test_an_e_given_to_another_kind_is_not_read(self, kind):
        # only SUMITMATPROD sums over E; any other entry kind reads (s, t)
        inst = gen_instance(kind, GEN_PARAMS[kind], seed=2)
        stray = replace(inst, E=((1, 1), (2, 3), (3, 2)))
        assert repr(stray.quantity) == repr(inst.quantity)
        assert oracle_decide(stray) == oracle_decide(inst)

    def test_gap_interior_is_promise_violated(self):
        a = np.diag([1.0, 0.5]).astype(complex)
        # entry is 2.0, strictly inside (b - eps, b) = (1.5, 2.5)
        inst = ProblemInstance(Kind.MATINV, ConditionParams(2, 1, 2.0, 1.0), (a,), s=2, t=2, b=2.5)
        assert oracle_decide(inst).value is DecisionValue.PROMISE_VIOLATED

    def test_a_certified_interval_decides_where_its_point_is_promise_violated(self):
        # a MATINV+ value of b - eps/8 lies in the gap (b - eps, b), but an
        # interval of eps/4 either side of it meets only the One side
        eps, b = 0.4, 2.0
        inst = ProblemInstance(Kind.MATINV_PLUS, ConditionParams(2, 1, 2.0, eps), (np.eye(2),), s=1, t=1, b=b)
        out = _output(inst, b - eps / 8)
        assert out.side(DEFAULT_TOL) is DecisionValue.PROMISE_VIOLATED
        assert out.side(DEFAULT_TOL, eps / 4, eps / 4) is DecisionValue.ONE
        assert out.side(DEFAULT_TOL, eps / 4, 0.0) is DecisionValue.PROMISE_VIOLATED

    def test_vmatinv_b_beyond_kappa_breaks_the_gap_check(self):
        # |b| <= kappa is a statement of vMATINV's Output clause, so the gap
        # check reads it as the full check does; the gap check said Zero
        inst = ProblemInstance(Kind.V_MATINV, ConditionParams(2, 1, 2.0, 0.5), (np.diag([0.5, 1.0]),),
                               s=1, t=1, b=2.5)
        assert check_promise(inst).failing() == ["|b| <= kappa"]
        for check in ("full", "gap"):
            assert oracle_decide(inst, check=check).value is DecisionValue.PROMISE_VIOLATED, check
        assert oracle_decide(inst, check="none").value is DecisionValue.ZERO

    def test_a_certified_interval_breaks_a_clause_only_when_it_misses_it(self):
        # MATINV+ with b = 2, eps = 0.4 and cap = kappa = 2: the clause
        # "quantity <= cap" holds on [2.1 - 0.2, 2.1 + 0.2] but not at 2.1
        inst = ProblemInstance(Kind.MATINV_PLUS, ConditionParams(2, 1, 2.0, 0.4), (np.eye(2),), s=1, t=1, b=2.0)
        out = _output(inst, 2.1)
        assert out.decide(DEFAULT_TOL) is DecisionValue.PROMISE_VIOLATED
        assert out.decide(DEFAULT_TOL, 0.2, 0.2) is DecisionValue.ONE
        assert [c.passed for c in out.checks(DEFAULT_TOL, 0.05, 0.05)] == [True, True, False]

    @pytest.mark.parametrize("entry", [-0.5, -2 * DEFAULT_TOL, -DEFAULT_TOL / 2])
    def test_nonneg_entry_below_zero(self, entry):
        # ITMATPROD>=0's Zero side is [0, b-eps]: an entry below -tol breaks
        # the promise, one within tol of 0 is still Zero
        a = np.diag([entry, 0.5]).astype(complex)
        inst = ProblemInstance(Kind.ITMATPROD_NONNEG, ConditionParams(2, 1, 2.0, 0.1), (a,), s=1, t=1, b=0.3)
        holds = entry >= -DEFAULT_TOL
        assert check_promise(inst).overall is holds
        for check in ("full", "gap"):
            decided = oracle_decide(inst, check=check).value
            assert decided is (DecisionValue.ZERO if holds else DecisionValue.PROMISE_VIOLATED), check

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k not in VERIFICATION_KINDS and k is not Kind.SINGULAR])
    def test_a_complex_b_is_refused_where_the_kind_compares_a_real_b(self, kind):
        # a MATINV with b = 0.9 + 5i used to be decided on 0.9 alone
        inst = gen_instance(kind, GEN_PARAMS[kind], seed=2)
        with pytest.raises(ValueError, match="imaginary part"):
            replace(inst, b=complex(inst.b, 5.0))
        assert replace(inst, b=complex(inst.b, 0.0)).b == inst.b
        v = gen_instance(Kind.V_MATINV, GEN_PARAMS[Kind.V_MATINV], seed=2)
        assert replace(v, b=v.b + 0.5j).b == v.b + 0.5j  # the v-kinds compare a complex b

    @pytest.mark.parametrize("kind,b", [(Kind.MATINV, math.inf), (Kind.MATINV, -math.inf), (Kind.MATINV, math.nan),
                                        (Kind.DET, -math.inf), (Kind.V_MATINV, complex(0.5, math.inf))])
    def test_a_non_finite_b_is_refused(self, kind, b):
        # a MATINV with b = inf used to pass its promise check and decide Zero
        fields = {} if kind is Kind.DET else {"s": 1, "t": 1}
        with pytest.raises(ValueError, match="not finite"):
            ProblemInstance(kind, ConditionParams(2, 1, 2.0, 0.1), (np.eye(2),), b=b, **fields)

    def test_det_log_magnitude_equals_singular_values(self):
        for seed in range(20):
            inst = gen_instance(Kind.DET, ConditionParams(4, 1, 5.0, 0.1), seed)
            q = oracle_decide(inst, check="none").witness_value
            assert abs(q - np.log(svd_values(inst.matrix)).sum()) < 1e-7

    def test_unitary_basis_change_invariance(self):
        # the inverse entry transforms consistently under conjugation
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = gen_instance(Kind.MATINV, ConditionParams(4, 1, 4.0, 0.05), seed).matrix
            u = random_unitary(4, rng)
            s, t = int(rng.integers(4)), int(rng.integers(4))
            direct = np.linalg.solve(a, np.eye(4)[:, t])[s]
            conj = u.conj().T @ np.linalg.solve(u @ a @ u.conj().T, u @ np.eye(4)[:, t])
            assert abs(direct - conj[s]) < 1e-8


class TestPartialProducts:
    def test_prefix_extension_matches_recompute(self, rng):
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(5)]
        table = partial_products(mats)
        for (j1, j2), got in table.items():
            want = np.linalg.multi_dot(mats[j1 - 1 : j2]) if j2 > j1 else mats[j1 - 1]
            assert np.allclose(got, want, atol=1e-9)

    def test_product_entry_matches_full_product(self, rng):
        mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)]
        full = np.linalg.multi_dot(mats)
        assert abs(product_entry(mats, 2, 3) - full[1, 2]) < 1e-10


class TestGenerators:
    def test_determinism(self):
        i1 = gen_instance(Kind.MATINV, GEN_PARAMS[Kind.MATINV], seed=9)
        i2 = gen_instance(Kind.MATINV, GEN_PARAMS[Kind.MATINV], seed=9)
        assert np.array_equal(i1.matrix, i2.matrix) and i1.b == i2.b

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wanted_decision_is_delivered(self, kind):
        for seed in (0, 1, 2):
            one = gen_instance(kind, GEN_PARAMS[kind], seed=seed, want_one=True)
            zero = gen_instance(kind, GEN_PARAMS[kind], seed=seed, want_one=False)
            assert oracle_decide(one).value is DecisionValue.ONE, (kind, seed)
            assert oracle_decide(zero).value is DecisionValue.ZERO, (kind, seed)

    def test_infeasible_det_gap(self):
        # a zero-instance needs eps <= n ln kappa
        with pytest.raises(InfeasibleParams):
            gen_instance(Kind.DET, ConditionParams(1, 1, 1.5, 3.0), seed=0, want_one=False)

    def test_infeasible_singular_epsilon(self):
        # SINGULAR draws its eigenvalue magnitudes from [epsilon, 1]
        with pytest.raises(InfeasibleParams, match=r"\[epsilon, 1\]"):
            gen_instance(Kind.SINGULAR, ConditionParams(2, 1, 2.0, 3.0), seed=0)


def _spectral_instances():
    """Exactly Hermitian instances: generated DET+, MATINV+ and SINGULAR ones
    with n <= 6, and the outputs of matinv_to_posmatinv and det_to_posdet on
    generated sources with n <= 3."""
    from condred.reductions import chain

    for seed in range(4):
        for n in range(1, 7):
            yield gen_instance(Kind.DET_PLUS, ConditionParams(n, 1, 5.0, 0.3), seed)
            yield gen_instance(Kind.MATINV_PLUS, ConditionParams(n, 1, 4.0, 0.05), seed)
            yield gen_instance(Kind.SINGULAR, ConditionParams(n, 1, 1.0, 0.2), seed)
        for n in range(1, 4):
            yield chain(gen_instance(Kind.MATINV, ConditionParams(n, 1, 4.0, 0.05), seed), ["matinv_to_posmatinv"])[0]
            yield chain(gen_instance(Kind.DET, ConditionParams(n, 1, 5.0, 0.3), seed), ["det_to_posdet"])[0]


def _reference_verdicts(inst, tol):
    """check_promise's (name, passed) list, from an SVD and an eigvalsh of
    the dense matrix taken here, apart from the spectral record."""
    a, p = inst.matrix, inst.params
    sv = np.linalg.svd(a, compute_uv=False)
    herm = float(np.max(np.abs(a - a.conj().T)))
    if inst.kind is Kind.SINGULAR:
        gap = sv[-1] <= tol or p.epsilon - tol <= sv[-1] <= 1 + tol
        return [("A Hermitian", herm <= tol), ("sigma1 <= 1", sv[0] <= 1 + tol),
                ("sigma_min in {0} u [eps, 1]", gap)]
    verdicts = [("sigma1 <= 1", sv[0] <= 1 + tol), ("sigma_min >= 1/kappa", sv[-1] >= 1 / p.kappa - tol),
                ("H Hermitian", herm <= tol)]
    if herm <= tol:
        verdicts.append(("H positive definite", np.linalg.eigvalsh(a)[0] > 0))
    report = check_promise(inst, tol)
    return verdicts + [(c.name, c.passed) for c in report.checks[len(verdicts):]]  # the Output clause's


def test_the_spectral_record_agrees_with_an_svd_and_eigvalsh_reference():
    for inst in _spectral_instances():
        spec = inst.spectrum
        assert spec.defect == 0.0, inst.kind  # so the record took one eigvalsh
        sv = svd_values(inst.matrix)
        assert np.max(np.abs(spec.sigma - sv)) <= 1e-12 * sv[0]
        # the instance, and copies that break sigma1 <= 1, positive
        # definiteness, or exact symmetry (which sends the record to its SVD)
        shifted = inst.matrix - (float(spec.lam[-1]) + 1e-3) * np.eye(inst.params.n)
        skewed = inst.matrix.copy()
        skewed[-1, 0] += 1e-12
        for a in (inst.matrix, 1.5 * inst.matrix, shifted, skewed):
            variant = replace(inst, forms=(a,))
            for tol in (1e-9, 1e-6, 1e-2):
                got = [(c.name, c.passed) for c in check_promise(variant, tol).checks]
                assert got == _reference_verdicts(variant, tol), (inst.kind, tol)


@pytest.mark.parametrize("kind,where", [(Kind.DET_PLUS, dict(b=-30.0)), (Kind.MATINV_PLUS, dict(s=1, t=1, b=0.5))])
def test_a_larger_tol_makes_no_spectral_clause_stricter(kind, where):
    # lambda_min = 5e-10 > 0: H is positive definite however large tol is
    # (the clause asked lambda_min > tol and so failed at every tol here)
    inst = ProblemInstance(kind, ConditionParams(2, 1, 2.5e9, 0.1), (np.diag([1.0, 5e-10]),), **where)
    for tol in (1e-9, 1e-6, 1e-3):
        assert check_promise(inst, tol).overall, tol
