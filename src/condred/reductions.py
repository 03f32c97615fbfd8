"""Instance-to-instance reductions between the promise problems.

Each rule maps an instance of one problem kind to an instance of another so
that (i) the decision is preserved, (ii) a closed-form identity ties the
output's decision quantity to the input's, and (iii) the conditioning bounds
of the output follow from those of the input by explicit formulas.  Every
rule returns the transformed instance together with a :class:`ReductionRecord`
carrying the parameter map and the declared singular-value bounds;
:func:`measure_record` fills in the measured values for verification.

A rule is its builder, which declares each bound with the function that
measures it, plus one :class:`Rule` entry in :data:`RULES`, which holds the
defining identity written against :func:`condred.problems.decision_quantity`.

All block constructions use the convention that ``s``, ``t`` and ``E`` are
1-based (see :mod:`condred.problems`).

Two printed-form corrections are applied deliberately:

* the telescoping construction of ``sumitmatprod_to_itmatprod`` conjugates
  only the first factor on the left and the last on the right (conjugating
  every factor does not telescope to the desired sum);
* the Neumann index set of ``posmatinv_to_sumitmatprod`` includes the j = 0
  diagonal block, without which the partial sums miss the identity term.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import gram, hermitian_eigs, svd_values
from .problems import (
    ConditionParams,
    Kind,
    ProblemInstance,
    decision_quantity,
    max_partial_sigma1,
    max_power_sigma1,
)
from .series import log_count as _log_count
from .series import log_series, logdet_terms, neumann_series, neumann_terms

#: measures one quantity on a (source, target) pair of one application
Measure = Callable[[ProblemInstance, ProblemInstance], float]


@dataclass(frozen=True)
class Bound:
    """One declared conditioning bound; ``upper`` tells which way it points.

    ``measure(src, dst)`` computes the bounded quantity of one application.
    """

    quantity: str
    declared: float
    upper: bool = True
    measured: float | None = None
    measure: Measure = field(kw_only=True, compare=False, repr=False)

    def holds(self, tol: float = 1e-7) -> bool:
        if self.measured is None:
            return False
        if self.upper:
            return self.measured <= self.declared + tol
        return self.measured >= self.declared - tol


@dataclass(frozen=True)
class ReductionRecord:
    rule: str
    input_params: ConditionParams
    output_params: ConditionParams
    answer_map: str
    declared_bounds: tuple[Bound, ...] = ()
    measured: bool = False


# measures and identity terms shared by several rules


def _sigma1(src: ProblemInstance, dst: ProblemInstance) -> float:
    return float(svd_values(dst.matrix)[0])


def _sigma_min(src: ProblemInstance, dst: ProblemInstance) -> float:
    return float(svd_values(dst.matrix)[-1])


def _lambda_min(src: ProblemInstance, dst: ProblemInstance) -> float:
    return float(hermitian_eigs(dst.matrix)[-1])


def _partials_sigma1(src: ProblemInstance, dst: ProblemInstance) -> float:
    return max_partial_sigma1(dst.matrices)


def _off_by(dst: ProblemInstance, want: float | complex) -> float:
    """|q - want| for the target's decision quantity q: an identity's residual."""
    return float(abs(decision_quantity(dst) - want))


def _quantity_difference(src: ProblemInstance, dst: ProblemInstance) -> float:
    return _off_by(dst, decision_quantity(src))


def _superdiag_blocks(mats, n: int) -> np.ndarray:
    """Block matrix with A_1..A_m immediately above the diagonal blocks."""
    m = len(mats)
    big = np.zeros((n * (m + 1), n * (m + 1)), dtype=np.complex128)
    for r, a in enumerate(mats):
        big[r * n : (r + 1) * n, (r + 1) * n : (r + 2) * n] = a
    return big


def _eye_minus(big: np.ndarray) -> np.ndarray:
    """I - big in place, for a ``big`` with a zero diagonal.

    ``0 - x`` rather than ``-x`` keeps the signed zeros of ``np.eye - big``.
    """
    np.subtract(0.0, big, out=big)
    np.fill_diagonal(big, 1.0)
    return big


# ---------------------------------------------------------------------------
# product / powering / inversion chain


def reduce_itmatprod_to_matpow(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind not in (Kind.ITMATPROD, Kind.V_ITMATPROD):
        raise ValueError(f"rule needs ITMATPROD input, got {inst.kind.value}")
    p = inst.params
    n, m = p.n, p.m
    big = _superdiag_blocks(inst.matrices, n)
    out_kind = Kind.MATPOW if inst.kind is Kind.ITMATPROD else Kind.V_MATPOW
    out_params = ConditionParams(n * (m + 1), m, p.kappa, p.epsilon)
    out = ProblemInstance(out_kind, out_params, (big,), s=inst.s, t=n * m + inst.t, b=inst.b)
    rec = ReductionRecord(
        rule="itmatprod_to_matpow" if inst.kind is Kind.ITMATPROD else "vitmatprod_to_vmatpow",
        input_params=p,
        output_params=out_params,
        answer_map="b_hat = b; A_hat^m[s, nm+t] = A_{1,m}[s,t]",
        declared_bounds=(
            Bound("sigma1(A_hat^j), j in [m]", p.kappa,
                  measure=lambda src, dst: max_power_sigma1(dst.matrix, dst.params.m)),
        ),
    )
    return out, rec


def reduce_matpow_to_matinv(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind not in (Kind.MATPOW, Kind.V_MATPOW):
        raise ValueError(f"rule needs MATPOW input, got {inst.kind.value}")
    p = inst.params
    n, m = p.n, p.m
    c = math.ceil(1.0 + p.kappa)
    # (I - superdiag) / c, built in the one buffer
    z = _eye_minus(_superdiag_blocks([inst.matrix] * m, n))
    z /= c
    out_kind = Kind.MATINV if inst.kind is Kind.MATPOW else Kind.V_MATINV
    out_params = ConditionParams(n * (m + 1), 1, (1.0 + m * p.kappa) * c, c * p.epsilon)
    out = ProblemInstance(out_kind, out_params, (z,), s=inst.s, t=n * m + inst.t, b=c * inst.b)
    rec = ReductionRecord(
        rule="matpow_to_matinv" if inst.kind is Kind.MATPOW else "vmatpow_to_vmatinv",
        input_params=p,
        output_params=out_params,
        answer_map=f"b_hat = ceil(1+kappa)*b = {c}*b; Z_hat^-1[s, nm+t] = {c}*A^m[s,t]",
        declared_bounds=(
            Bound("sigma1(Z_hat)", 1.0, measure=_sigma1),
            Bound("sigma1(Z_hat^-1)", (1.0 + m * p.kappa) * c,
                  measure=lambda src, dst: 1.0 / _sigma_min(src, dst)),
        ),
    )
    return out, rec


def _scaled_power_identity(src: ProblemInstance, dst: ProblemInstance) -> float:
    """Z_hat^-1[s, nm+t] = ceil(1+kappa) * A^m[s,t]."""
    return _off_by(dst, math.ceil(1 + src.params.kappa) * decision_quantity(src))


def reduce_matinv_to_posmatinv(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.MATINV:
        raise ValueError(f"rule needs MATINV input, got {inst.kind.value}")
    p = inst.params
    n = p.n
    a = inst.matrix
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[:n, :n] = gram(a, left=True)
    h[:n, n:] = -a.conj().T
    h[n:, :n] = -a
    h[n:, n:] = 2.0 * np.eye(n)
    h /= 3.0
    out_params = ConditionParams(2 * n, 1, (3.0 * p.kappa) ** 2, 3.0 * p.epsilon)
    out = ProblemInstance(
        Kind.MATINV_PLUS, out_params, (h,), s=inst.s, t=inst.t + n, b=3.0 * float(np.real(inst.b))
    )
    rec = ReductionRecord(
        rule="matinv_to_posmatinv",
        input_params=p,
        output_params=out_params,
        answer_map="b_hat = 3b; H_hat^-1[s, t+n] = 3*A^-1[s,t]",
        declared_bounds=(
            Bound("sigma1(H_hat)", 1.0, measure=_sigma1),
            Bound("lambda_min(H_hat)", (3.0 * p.kappa) ** -2, upper=False, measure=_lambda_min),
        ),
    )
    return out, rec


# ---------------------------------------------------------------------------
# determinant chain


def reduce_posdet_to_sumitmatprod(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.DET_PLUS:
        raise ValueError(f"rule needs DET+ input, got {inst.kind.value}")
    p = inst.params
    n, kappa, eps = p.n, p.kappa, p.epsilon
    l_hat = _log_count(kappa)
    m_hat = logdet_terms(n, kappa, eps)
    x = np.eye(n, dtype=np.complex128) - inst.matrix  # I - H
    dim = n * (l_hat + m_hat)

    def block(k: int) -> np.ndarray:
        # k-th factor: identity on the first l_hat + (k-1) block rows, then
        # (I-H) on the rest; the first factor additionally carries the -1/k
        # weights of the log series
        out = np.eye(dim, dtype=np.complex128)
        for j in range(m_hat):
            lo = n * (l_hat + j)
            if k == 1:
                out[lo : lo + n, lo : lo + n] = -x / (j + 1)
            elif j >= k - 1:
                out[lo : lo + n, lo : lo + n] = x
        return out

    mats = tuple(block(k) for k in range(1, m_hat + 1))
    pairs = tuple((d, d) for d in range(1, dim + 1))
    b_hat = n * l_hat + float(np.real(inst.b))
    out_params = ConditionParams(dim, m_hat, 1.0, eps / 2.0)
    out = ProblemInstance(Kind.SUMITMATPROD, out_params, mats, E=pairs, b=b_hat)
    rec = ReductionRecord(
        rule="posdet_to_sumitmatprod",
        input_params=p,
        output_params=out_params,
        answer_map=(
            f"b_hat = n*l_hat + b with l_hat={l_hat}, m_hat={m_hat}; "
            "diagonal sum = n*l_hat + ln det H + tr(remainder)"
        ),
        declared_bounds=(
            Bound("sigma1(all partial products)", 1.0, measure=_partials_sigma1),
            Bound("series remainder (one-sided)", eps / 2.0, measure=_log_remainder),
            Bound("series remainder >= 0", 0.0, upper=False, measure=_log_remainder),
        ),
    )
    return out, rec


def _log_series_identity(src: ProblemInstance, dst: ProblemInstance) -> float:
    """Diagonal sum = n*l_hat - sum_k tr((I-H)^k)/k over the target's m terms."""
    n, kappa = src.params.n, src.params.kappa
    return _off_by(dst, n * _log_count(kappa) - log_series(src.matrix, dst.params.m))


def _log_remainder(src: ProblemInstance, dst: ProblemInstance) -> float:
    """Diagonal sum minus its exact value n*l_hat + ln det H."""
    n, kappa = src.params.n, src.params.kappa
    return decision_quantity(dst).real - (n * _log_count(kappa) + decision_quantity(src))


def reduce_itmatprod_to_nonneg(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.ITMATPROD:
        raise ValueError(f"rule needs ITMATPROD input, got {inst.kind.value}")
    p = inst.params
    n, m = p.n, p.m
    mid = np.zeros((n, n), dtype=np.complex128)
    mid[inst.t - 1, inst.t - 1] = 1.0
    mats = inst.matrices + (mid,) + tuple(a.conj().T for a in reversed(inst.matrices))
    out_params = ConditionParams(n, 2 * m + 1, p.kappa**2, p.epsilon**2)
    b = float(np.real(inst.b))
    out = ProblemInstance(Kind.ITMATPROD_NONNEG, out_params, mats, s=inst.s, t=inst.s, b=b * b)
    rec = ReductionRecord(
        rule="itmatprod_to_nonneg",
        input_params=p,
        output_params=out_params,
        answer_map="b_hat = b^2; A_hat_{1,2m+1}[s,s] = |A_{1,m}[s,t]|^2",
        declared_bounds=(Bound("sigma1(all partial products)", p.kappa**2, measure=_partials_sigma1),),
    )
    return out, rec


def reduce_nonneg_itmatprod_to_det(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.ITMATPROD_NONNEG:
        raise ValueError(f"rule needs ITMATPROD>=0 input, got {inst.kind.value}")
    p = inst.params
    n, m, kappa = p.n, p.m, p.kappa
    big_n = n * (m + 1)
    c_hat = _eye_minus(_superdiag_blocks(inst.matrices, n))
    c_hat[n * m + inst.t - 1, inst.s - 1] += 1.0  # rank-one bump |nm+t><s|
    l_hat = _log_count(2.0 + kappa)
    c_hat *= math.exp(-l_hat)
    b = float(np.real(inst.b))
    b_hat = math.log1p(b) - l_hat * big_n
    if b_hat > 0:
        raise ValueError("degenerate corner: rescaled determinant threshold above 1")
    out_params = ConditionParams(big_n, 1, (2.0 + m * kappa) ** 3, p.epsilon / (2.0 + 2.0 * kappa))
    out = ProblemInstance(Kind.DET, out_params, (c_hat,), b=b_hat)
    rec = ReductionRecord(
        rule="nonneg_to_det",
        input_params=p,
        output_params=out_params,
        answer_map=(
            f"b_hat = ln(1+b) - l_hat*(nm+n) with l_hat={l_hat}; "
            "det(C) = 1 + A_{1,m}[s,t]"
        ),
        declared_bounds=(
            Bound("sigma1(C_hat)", 1.0, measure=_sigma1),
            Bound("sigma_min(C_hat)", (2.0 + m * kappa) ** -3, upper=False, measure=_sigma_min),
        ),
    )
    return out, rec


def _rank_one_identity(src: ProblemInstance, dst: ProblemInstance) -> float:
    """ln|det C_hat| = ln(1 + A_{1,m}[s,t]) - l_hat*n*(m+1)."""
    n, m, kappa = src.params.n, src.params.m, src.params.kappa
    entry = float(np.real(decision_quantity(src)))
    return _off_by(dst, math.log1p(entry) - _log_count(2.0 + kappa) * n * (m + 1))


def reduce_det_to_posdet(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.DET:
        raise ValueError(f"rule needs DET input, got {inst.kind.value}")
    p = inst.params
    h = gram(inst.matrix, left=False)
    # the declared gap parameter is eps/2 although squaring the
    # determinant doubles the realized log gap; the record carries both
    out_params = ConditionParams(p.n, 1, p.kappa**2, p.epsilon / 2.0)
    out = ProblemInstance(Kind.DET_PLUS, out_params, (h,), b=2.0 * float(np.real(inst.b)))
    rec = ReductionRecord(
        rule="det_to_posdet",
        input_params=p,
        output_params=out_params,
        answer_map="b_hat = 2b; det(H_hat) = |det A|^2 (declared gap eps/2, realized 2*eps)",
        declared_bounds=(
            Bound("sigma1(H_hat)", 1.0, measure=_sigma1),
            Bound("lambda_min(H_hat)", p.kappa**-2, upper=False, measure=_lambda_min),
        ),
    )
    return out, rec


def reduce_posmatinv_to_sumitmatprod(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.MATINV_PLUS:
        raise ValueError(f"rule needs MATINV+ input, got {inst.kind.value}")
    p = inst.params
    n, kappa, eps = p.n, p.kappa, p.epsilon
    m_hat = neumann_terms(kappa, eps)
    x = np.eye(n, dtype=np.complex128) - inst.matrix
    dim = n * (m_hat + 1)

    def factor(j: int) -> np.ndarray:
        out = np.eye(dim, dtype=np.complex128)
        for blockpos in range(j, m_hat + 1):
            lo = n * blockpos
            out[lo : lo + n, lo : lo + n] = x
        return out

    mats = tuple(factor(j) for j in range(1, m_hat + 1))
    # j = 0 included so the diagonal picks up the identity term of the series
    pairs = tuple((inst.s + j * n, inst.t + j * n) for j in range(m_hat + 1))
    b_hat = float(np.real(inst.b)) - eps / 4.0
    out_params = ConditionParams(dim, m_hat, 1.0, eps / 2.0)
    out = ProblemInstance(Kind.SUMITMATPROD, out_params, mats, E=pairs, b=b_hat)
    rec = ReductionRecord(
        rule="posmatinv_to_sumitmatprod",
        input_params=p,
        output_params=out_params,
        answer_map=(
            f"b_hat = b - eps/4 with m_hat={m_hat}; "
            "sum over E = sum_j (I-H)^j[s,t] = H^-1[s,t] + remainder"
        ),
        declared_bounds=(
            Bound("sigma1(all partial products)", 1.0, measure=_partials_sigma1),
            Bound("|Neumann remainder|", eps / 4.0, measure=_quantity_difference),
        ),
    )
    return out, rec


def _swap_perm(n: int, a: int, b: int) -> np.ndarray:
    perm = np.eye(n, dtype=np.complex128)
    if a != b:
        perm[[a - 1, b - 1]] = perm[[b - 1, a - 1]]
    return perm


def reduce_sumitmatprod_to_itmatprod(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.SUMITMATPROD:
        raise ValueError(f"rule needs SUMITMATPROD input, got {inst.kind.value}")
    if not inst.E:
        raise ValueError("E must be nonempty")
    p = inst.params
    n, m = p.n, p.m
    n_e = len(inst.E)

    def routed(j: int) -> np.ndarray:
        # route entry (s,t) of each summand to (1,1): conjugate the first
        # factor by T_{1,s} on the left and the last by T_{1,t} on the right
        blocks = []
        for (s, t) in inst.E:
            g = inst.matrices[j - 1]
            if j == 1:
                g = _swap_perm(n, 1, s) @ g
            if j == m:
                g = g @ _swap_perm(n, 1, t)
            blocks.append(g)
        out = np.zeros((n * n_e, n * n_e), dtype=np.complex128)
        for i, g in enumerate(blocks):
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = g
        return out

    r = np.eye(n_e, dtype=np.complex128)
    r[0, :] = 1.0
    fan = np.kron(r, np.eye(n, dtype=np.complex128))
    mats = (fan,) + tuple(routed(j) for j in range(1, m + 1)) + (fan.conj().T,)
    kappa_hat = 2.0 * n_e * p.kappa
    out_params = ConditionParams(n * n_e, m + 2, kappa_hat, p.epsilon)
    out = ProblemInstance(
        Kind.ITMATPROD, out_params, mats, s=1, t=1, b=float(np.real(inst.b))
    )
    rec = ReductionRecord(
        rule="sumitmatprod_to_itmatprod",
        input_params=p,
        output_params=out_params,
        answer_map="b_hat = b; A_hat_{0,m+1}[1,1] = sum over E of A_{1,m}[s,t]",
        declared_bounds=(
            Bound("sigma1(fan-out factor)", math.sqrt(2.0 * n_e), measure=_sigma1),
            Bound("sigma1(all partial products)", kappa_hat, measure=_partials_sigma1),
        ),
    )
    return out, rec


# ---------------------------------------------------------------------------
# verification chain


def _singular_b(inst: ProblemInstance) -> np.ndarray:
    """B_hat = diag(2cA, 1/(1 - b/(2c))) with c = ceil(kappa), for a vMATINV input."""
    n, c = inst.params.n, math.ceil(inst.params.kappa)
    b_mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    b_mat[:n, :n] = 2.0 * c * inst.matrix
    b_mat[n, n] = 1.0 / (1.0 - complex(inst.b) / (2.0 * c))
    return b_mat


def reduce_vmatinv_to_singular(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.V_MATINV:
        raise ValueError(f"rule needs vMATINV input, got {inst.kind.value}")
    p = inst.params
    n, kappa = p.n, p.kappa
    b = complex(inst.b)
    if abs(b) > kappa:
        raise ValueError(f"|b| = {abs(b):.4g} exceeds kappa; instance is promise-violating")
    c = math.ceil(kappa)
    b_mat = _singular_b(inst)
    u = np.zeros(n + 1, dtype=np.complex128)
    v = np.zeros(n + 1, dtype=np.complex128)
    u[inst.s - 1] = u[n] = 1.0
    v[inst.t - 1] = v[n] = 1.0
    c_mat = b_mat - np.outer(v, u.conj())
    d_hat = 1.0 / (2.0 * c + 1.0)
    h = np.zeros((2 * n + 2, 2 * n + 2), dtype=np.complex128)
    h[: n + 1, n + 1 :] = d_hat * c_mat
    h[n + 1 :, : n + 1] = d_hat * c_mat.conj().T
    # sigma_{n+1}(B_hat) >= 2/3 for every |b| <= ceil(kappa), which is weaker
    # than the 2/sqrt(5) available for Re(b) >= 0 but valid on the whole
    # promise; the output gap shrinks accordingly
    eps_hat = (2.0 / 3.0) * p.epsilon / (c * (2.0 * c + 1.0) ** 2)
    out_params = ConditionParams(2 * n + 2, 1, 1.0, eps_hat)
    out = ProblemInstance(Kind.SINGULAR, out_params, (h,))
    rec = ReductionRecord(
        rule="vmatinv_to_singular",
        input_params=p,
        output_params=out_params,
        answer_map=(
            "sigma_min(H_hat) = 0 iff A^-1[s,t] = b; "
            "det(C_hat) = (b - A^-1[s,t])/(2*ceil(kappa)) * det(B_hat)"
        ),
        declared_bounds=(
            Bound("sigma1(H_hat)", 1.0, measure=_sigma1),
            Bound("sigma_{n+1}(B_hat)", 2.0 / 3.0, upper=False,
                  measure=lambda src, dst: float(svd_values(_singular_b(src))[-1])),
        ),
    )
    return out, rec


def _singular_identity(src: ProblemInstance, dst: ProblemInstance) -> float:
    """det(C_hat) = (b - A^-1[s,t])/(2c) * det(B_hat), relative to max(1, |det B_hat|)."""
    c, n = math.ceil(src.params.kappa), src.params.n
    c_hat = dst.matrix[: n + 1, n + 1 :] * (2 * c + 1)
    det_b = np.linalg.det(_singular_b(src))
    want = (complex(src.b) - decision_quantity(src)) / (2 * c) * det_b
    return float(abs(np.linalg.det(c_hat) - want) / max(1.0, abs(det_b)))


# ---------------------------------------------------------------------------
# registry, chaining, measurement


@dataclass(frozen=True)
class Rule:
    """A reduction: its builder, and the residual of its defining identity,
    which evaluates the source and target decision quantities independently."""

    name: str
    input_kind: Kind
    output_kind: Kind
    apply: Callable[[ProblemInstance], tuple[ProblemInstance, ReductionRecord]] = field(repr=False)
    identity: Measure = field(repr=False)


RULES: dict[str, Rule] = {
    r.name: r
    for r in (
        Rule("itmatprod_to_matpow", Kind.ITMATPROD, Kind.MATPOW, reduce_itmatprod_to_matpow,
             _quantity_difference),
        Rule("matpow_to_matinv", Kind.MATPOW, Kind.MATINV, reduce_matpow_to_matinv,
             _scaled_power_identity),
        Rule("matinv_to_posmatinv", Kind.MATINV, Kind.MATINV_PLUS, reduce_matinv_to_posmatinv,
             lambda src, dst: float(abs(abs(decision_quantity(dst)) - 3 * abs(decision_quantity(src))))),
        Rule("posdet_to_sumitmatprod", Kind.DET_PLUS, Kind.SUMITMATPROD, reduce_posdet_to_sumitmatprod,
             _log_series_identity),
        Rule("itmatprod_to_nonneg", Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, reduce_itmatprod_to_nonneg,
             lambda src, dst: _off_by(dst, abs(decision_quantity(src)) ** 2)),
        Rule("nonneg_to_det", Kind.ITMATPROD_NONNEG, Kind.DET, reduce_nonneg_itmatprod_to_det,
             _rank_one_identity),
        Rule("det_to_posdet", Kind.DET, Kind.DET_PLUS, reduce_det_to_posdet,
             lambda src, dst: _off_by(dst, 2 * decision_quantity(src))),
        Rule("posmatinv_to_sumitmatprod", Kind.MATINV_PLUS, Kind.SUMITMATPROD, reduce_posmatinv_to_sumitmatprod,
             lambda src, dst: _off_by(dst, neumann_series(src.matrix, src.s, src.t, dst.params.m))),
        Rule("sumitmatprod_to_itmatprod", Kind.SUMITMATPROD, Kind.ITMATPROD, reduce_sumitmatprod_to_itmatprod,
             _quantity_difference),
        Rule("vmatinv_to_singular", Kind.V_MATINV, Kind.SINGULAR, reduce_vmatinv_to_singular,
             _singular_identity),
        # the verification variants reuse the base builders, which keep the
        # v-kinds and name the record after the variant
        Rule("vitmatprod_to_vmatpow", Kind.V_ITMATPROD, Kind.V_MATPOW, reduce_itmatprod_to_matpow,
             _quantity_difference),
        Rule("vmatpow_to_vmatinv", Kind.V_MATPOW, Kind.V_MATINV, reduce_matpow_to_matinv,
             _scaled_power_identity),
    )
}

#: the two reduction cycles, each returning to its starting kind
MATINV_PLUS_CYCLE = (
    "posmatinv_to_sumitmatprod",
    "sumitmatprod_to_itmatprod",
    "itmatprod_to_matpow",
    "matpow_to_matinv",
    "matinv_to_posmatinv",
)
DET_PLUS_CYCLE = (
    "posdet_to_sumitmatprod",
    "sumitmatprod_to_itmatprod",
    "itmatprod_to_nonneg",
    "nonneg_to_det",
    "det_to_posdet",
)


def apply_rule(name: str, inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if name not in RULES:
        raise KeyError(f"unknown rule {name!r}; known: {sorted(RULES)}")
    rule = RULES[name]
    if inst.kind is not rule.input_kind:
        raise ValueError(f"rule {name} expects {rule.input_kind.value}, got {inst.kind.value}")
    return rule.apply(inst)


def chain(
    inst: ProblemInstance, path: list[str] | tuple[str, ...]
) -> tuple[ProblemInstance, list[ReductionRecord]]:
    """Compose rules; an empty path is the identity.

    The path is type-checked before any work happens so an ill-typed request
    fails fast instead of half-way through.
    """
    kind = inst.kind
    for name in path:
        if name not in RULES:
            raise KeyError(f"unknown rule {name!r}")
        if RULES[name].input_kind is not kind:
            raise ValueError(
                f"ill-typed path at {name}: expects {RULES[name].input_kind.value}, "
                f"previous output is {kind.value}"
            )
        kind = RULES[name].output_kind
    records: list[ReductionRecord] = []
    current = inst
    for name in path:
        current, rec = RULES[name].apply(current)
        records.append(rec)
    return current, records


def identity_residual(rule: str, src: ProblemInstance, dst: ProblemInstance) -> float:
    """Residual of the rule's defining algebraic identity, evaluating the
    source and target decision quantities independently."""
    return RULES[rule].identity(src, dst)


def measure_record(
    record: ReductionRecord, src: ProblemInstance, dst: ProblemInstance
) -> ReductionRecord:
    """Fill in measured values for every declared bound of one application."""
    measured = tuple(replace(b, measured=b.measure(src, dst)) for b in record.declared_bounds)
    return replace(record, declared_bounds=measured, measured=True)
