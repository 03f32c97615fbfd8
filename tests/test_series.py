"""Truncated-series approximators against eigensolver / dense-solve oracles."""

import math

import numpy as np
import pytest

from condred.matcore import random_unitary
from condred.problems import (
    DEFAULT_TOL,
    ConditionParams,
    DecisionValue,
    Kind,
    ProblemInstance,
    gen_instance,
    oracle_decide,
)
from condred.reductions import chain
from condred.series import (
    PromiseViolation,
    decide,
    logdet_series,
    neumann_inverse_entry,
)


def posdef(n, lam_lo, seed, lam_hi=1.0):
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    lam = np.sort(rng.uniform(lam_lo, lam_hi, size=n))[::-1]
    if n > 1:
        lam[0], lam[-1] = lam_hi, lam_lo
    else:
        lam[0] = lam_lo
    h = u @ np.diag(lam).astype(complex) @ u.conj().T
    return (h + h.conj().T) / 2, lam


def expected_terms(kappa, x):
    return math.ceil(kappa) * math.floor(1 + math.log(math.floor(x)))


class TestLogdetSeries:
    def test_identity_is_exact(self):
        res = logdet_series(np.eye(3), kappa=1.0, epsilon=0.1)
        assert res.value == 0.0
        assert res.certified_error == 0.05

    def test_scalar_half(self):
        res = logdet_series(0.5 * np.eye(1), kappa=2.0, epsilon=0.1)
        assert res.terms_used == 8
        assert abs(res.value - math.log(0.5)) <= 0.05

    def test_seeded_against_eigensolver(self):
        for seed in range(25):
            kappa, eps = 2.0 + (seed % 7), 10.0 ** -(1 + seed % 3)
            h, lam = posdef(5, 1.0 / kappa, seed)
            res = logdet_series(h, kappa, eps)
            err = float(res.value) - float(np.log(lam).sum())
            assert 0.0 <= err <= eps / 2 + 1e-12

    def test_term_count_formula(self):
        for n, kappa, eps in ((3, 7.0, 0.05), (6, 30.0, 0.004), (2, 1.5, 0.5)):
            h, _ = posdef(n, 1.0 / kappa, seed=1)
            res = logdet_series(h, kappa, eps)
            assert res.terms_used == expected_terms(kappa, 2 * n * kappa / eps)

    def test_monotone_refinement(self):
        # doubling the term count never increases the one-sided error
        h, lam = posdef(4, 0.25, seed=9)
        exact = float(np.log(lam).sum())
        x = np.eye(4) - h
        power = np.eye(4, dtype=complex)
        total, errors = 0.0, []
        for k in range(1, 33):
            power = power @ x
            total += float(np.real(np.trace(power))) / k
            if k in (4, 8, 16, 32):
                errors.append(-total - exact)
        assert all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))
        assert all(e >= -1e-12 for e in errors)

    def test_promise_violations_raise(self):
        with pytest.raises(PromiseViolation):
            logdet_series(2.0 * np.eye(2), kappa=4.0, epsilon=0.1)  # sigma1 > 1
        with pytest.raises(PromiseViolation):
            logdet_series(0.1 * np.eye(2), kappa=4.0, epsilon=0.1)  # below 1/kappa
        with pytest.raises(PromiseViolation):
            logdet_series(np.diag([1.0, -0.5]), kappa=4.0, epsilon=0.1)  # not posdef


@pytest.mark.parametrize(
    "lam_min,kappa,tol",
    # a negative eigenvalue that every sigma clause lets through: |lambda| >=
    # 1/kappa - tol, and sigma_1(I - H) = 1 + |lambda| <= 1 - 1/kappa + sqrt(tol)
    [(-0.045, 20.0, 0.01), (-1e-5, 1e6, 1e-9)],
)
def test_an_indefinite_matrix_breaks_the_promise_of_both_solvers(lam_min, kappa, tol):
    h = np.diag([1.0, lam_min]).astype(complex)
    with pytest.raises(PromiseViolation, match="H positive definite"):
        logdet_series(h, kappa, 1.0, tol)
    with pytest.raises(PromiseViolation, match="H positive definite"):
        neumann_inverse_entry(h, 1, 1, kappa, 1.0, tol)


@pytest.mark.parametrize("kappa,epsilon", [(0.5, 0.1), (2.0, 0.0), (2.0, -1.0)])
def test_bad_parameters_are_value_errors(kappa, epsilon):
    for solve in (lambda: logdet_series(np.eye(2), kappa, epsilon),
                  lambda: neumann_inverse_entry(np.eye(2), 1, 1, kappa, epsilon)):
        with pytest.raises(ValueError):
            solve()


class TestNeumannInverseEntry:
    def test_identity_is_delta(self):
        res = neumann_inverse_entry(np.eye(3), 1, 2, kappa=1.0, epsilon=0.2)
        assert res.value == 0.0
        res = neumann_inverse_entry(np.eye(3), 2, 2, kappa=1.0, epsilon=0.2)
        assert res.value == 1.0

    def test_scalar_geometric(self):
        res = neumann_inverse_entry(0.5 * np.eye(1), 1, 1, kappa=2.0, epsilon=0.2)
        assert abs(res.value - 2.0) <= 0.05
        assert res.certified_error == 0.05

    def test_seeded_against_dense_solve(self):
        for seed in range(25):
            kappa, eps = 2.0 + (seed % 9), 10.0 ** -(1 + seed % 3)
            h, _ = posdef(5, 1.0 / kappa, seed)
            s, t = 1 + seed % 5, 1 + (seed * 3) % 5
            res = neumann_inverse_entry(h, s, t, kappa, eps)
            exact = np.linalg.inv(h)[s - 1, t - 1]
            assert abs(res.value - exact) <= eps / 4 + 1e-12

    def test_term_count_formula(self):
        h, _ = posdef(3, 0.2, seed=2)
        res = neumann_inverse_entry(h, 1, 1, kappa=5.0, epsilon=0.01)
        assert res.terms_used == expected_terms(5.0, 4 * 5.0 / 0.01)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            neumann_inverse_entry(np.eye(2), 0, 1, kappa=1.0, epsilon=0.1)


class TestDecide:
    def test_a_certified_interval_inside_the_gap_is_promise_violated(self):
        # H = diag(0.5, 1), kappa = 2: the MATINV+ series gives 1.984375 +- 0.125
        # against the gap (1.7, 2.2), the DET+ series -0.691 with ln det H in
        # [-0.991, -0.691] against the gap (-1.0, -0.4)
        h = np.diag([0.5, 1.0])
        for inst in (ProblemInstance(Kind.MATINV_PLUS, ConditionParams(2, 1, 2.0, 0.5), (h,), s=1, t=1, b=2.2),
                     ProblemInstance(Kind.DET_PLUS, ConditionParams(2, 1, 2.0, 0.6), (h,), b=-0.4)):
            assert decide(inst)[0].value is DecisionValue.PROMISE_VIOLATED, inst.kind
            assert oracle_decide(inst).value is DecisionValue.PROMISE_VIOLATED


@pytest.mark.parametrize("kind", [Kind.DET_PLUS, Kind.MATINV_PLUS])
def test_the_series_never_decides_against_the_oracle(kind):
    # b moved across the gap and out of b's range (DET+ b <= 0, MATINV+
    # b >= 0).  Where the oracle decides a side, the true value lies in it
    # and in the certified interval, so the series decides that side too; a
    # b out of its range is read exactly, so both say PromiseViolated.  A
    # value inside the gap is a broken promise that an interval meeting a
    # side cannot see, and no verdict is asked of the series there.
    eps = 0.3
    for n in (2, 3, 4):
        for seed in range(4):
            inst = gen_instance(kind, ConditionParams(n, 1, 4.0, eps), seed)
            value = inst.quantity.real if kind is Kind.DET_PLUS else abs(inst.quantity)
            shifts = (-1.5 * eps, -eps, -0.5 * eps, -DEFAULT_TOL, 0.0, DEFAULT_TOL, 0.5 * eps, eps)
            for b in [inst.b, *(value + d for d in shifts), 0.1 if kind is Kind.DET_PLUS else -0.1]:
                inst_b = ProblemInstance(kind, inst.params, inst.forms, s=inst.s, t=inst.t, b=b)
                series, oracle = decide(inst_b)[0].value, oracle_decide(inst_b).value
                in_range = b <= 0 if kind is Kind.DET_PLUS else b >= 0
                if oracle is not DecisionValue.PROMISE_VIOLATED or not in_range:
                    assert series is oracle, (n, seed, b)


def test_det_is_decided_by_the_series_on_its_det_plus_end():
    # DET's certified path: det_to_posdet, then the log series on A A^dag
    for n in (2, 3, 4):
        for kappa in (1.5, 2.0, 2.5, 3.0):
            for seed in range(5):
                for want_one in (True, False):
                    src = gen_instance(Kind.DET, ConditionParams(n, 1, kappa, 0.3), seed, want_one=want_one)
                    end, _ = chain(src, ["det_to_posdet"])
                    want = DecisionValue.ONE if want_one else DecisionValue.ZERO
                    assert oracle_decide(src).value is want, (n, kappa, seed)
                    assert decide(end)[0].value is want, (n, kappa, seed)
