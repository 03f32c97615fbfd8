"""Instance-to-instance reductions between the promise problems.

Each rule maps an instance of one problem kind to an instance of another so
that (i) the decision is preserved, (ii) a closed-form identity ties the
output's decision quantity to the input's, and (iii) the conditioning bounds
of the output follow from those of the input by explicit formulas.  Every
rule returns the transformed instance together with a :class:`ReductionRecord`
carrying the parameter map and the declared singular-value bounds;
:func:`measure_record` fills in the measured values for verification.

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
from dataclasses import dataclass, field

import numpy as np

from .matcore import gram, hermitian_eigs, inverse_entry, log_abs_det, svd_values
from .problems import (
    ConditionParams,
    Kind,
    ProblemInstance,
    partial_products,
)


@dataclass(frozen=True)
class Bound:
    """One declared conditioning bound; ``upper`` tells which way it points."""

    quantity: str
    declared: float
    upper: bool = True
    measured: float | None = None

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


def _sv_max_partial(mats) -> float:
    return max(float(svd_values(p)[0]) for p in partial_products(mats).values())


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


def _log_count(x: float) -> int:
    """floor(1 + ln(floor(x))), the term-count device used by the series rules."""
    fx = math.floor(x)
    if fx < 1:
        raise ValueError(f"log-count undefined for floor({x}) < 1")
    return math.floor(1.0 + math.log(fx))


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
        declared_bounds=(Bound("sigma1(A_hat^j), j in [m]", p.kappa),),
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
            Bound("sigma1(Z_hat)", 1.0),
            Bound("sigma1(Z_hat^-1)", (1.0 + m * p.kappa) * c),
        ),
    )
    return out, rec


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
            Bound("sigma1(H_hat)", 1.0),
            Bound("lambda_min(H_hat)", (3.0 * p.kappa) ** -2, upper=False),
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
    m_hat = math.ceil(kappa) * _log_count(2.0 * n * kappa / eps)
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
            Bound("sigma1(all partial products)", 1.0),
            Bound("series remainder (one-sided)", eps / 2.0),
            Bound("series remainder >= 0", 0.0, upper=False),
        ),
    )
    return out, rec


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
        declared_bounds=(Bound("sigma1(all partial products)", p.kappa**2),),
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
            Bound("sigma1(C_hat)", 1.0),
            Bound("sigma_min(C_hat)", (2.0 + m * kappa) ** -3, upper=False),
        ),
    )
    return out, rec


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
            Bound("sigma1(H_hat)", 1.0),
            Bound("lambda_min(H_hat)", p.kappa**-2, upper=False),
        ),
    )
    return out, rec


def reduce_posmatinv_to_sumitmatprod(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.MATINV_PLUS:
        raise ValueError(f"rule needs MATINV+ input, got {inst.kind.value}")
    p = inst.params
    n, kappa, eps = p.n, p.kappa, p.epsilon
    m_hat = math.ceil(kappa) * _log_count(4.0 * kappa / eps)
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
            Bound("sigma1(all partial products)", 1.0),
            Bound("|Neumann remainder|", eps / 4.0),
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
            Bound("sigma1(fan-out factor)", math.sqrt(2.0 * n_e)),
            Bound("sigma1(all partial products)", kappa_hat),
        ),
    )
    return out, rec


# ---------------------------------------------------------------------------
# verification chain


def reduce_vmatinv_to_singular(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.V_MATINV:
        raise ValueError(f"rule needs vMATINV input, got {inst.kind.value}")
    p = inst.params
    n, kappa = p.n, p.kappa
    b = complex(inst.b)
    if abs(b) > kappa:
        raise ValueError(f"|b| = {abs(b):.4g} exceeds kappa; instance is promise-violating")
    c = math.ceil(kappa)
    corner = 1.0 / (1.0 - b / (2.0 * c))
    b_mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    b_mat[:n, :n] = 2.0 * c * inst.matrix
    b_mat[n, n] = corner
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
            Bound("sigma1(H_hat)", 1.0),
            Bound("sigma_{n+1}(B_hat)", 2.0 / 3.0, upper=False),
        ),
    )
    return out, rec


def reduce_vitmatprod_to_vmatpow(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.V_ITMATPROD:
        raise ValueError(f"rule needs vITMATPROD input, got {inst.kind.value}")
    return reduce_itmatprod_to_matpow(inst)


def reduce_vmatpow_to_vmatinv(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
    if inst.kind is not Kind.V_MATPOW:
        raise ValueError(f"rule needs vMATPOW input, got {inst.kind.value}")
    return reduce_matpow_to_matinv(inst)


# ---------------------------------------------------------------------------
# registry, measurement, chaining


@dataclass(frozen=True)
class Rule:
    name: str
    input_kind: Kind
    output_kind: Kind
    apply: object = field(repr=False)


RULES: dict[str, Rule] = {
    r.name: r
    for r in (
        Rule("itmatprod_to_matpow", Kind.ITMATPROD, Kind.MATPOW, reduce_itmatprod_to_matpow),
        Rule("matpow_to_matinv", Kind.MATPOW, Kind.MATINV, reduce_matpow_to_matinv),
        Rule("matinv_to_posmatinv", Kind.MATINV, Kind.MATINV_PLUS, reduce_matinv_to_posmatinv),
        Rule("posdet_to_sumitmatprod", Kind.DET_PLUS, Kind.SUMITMATPROD, reduce_posdet_to_sumitmatprod),
        Rule("itmatprod_to_nonneg", Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, reduce_itmatprod_to_nonneg),
        Rule("nonneg_to_det", Kind.ITMATPROD_NONNEG, Kind.DET, reduce_nonneg_itmatprod_to_det),
        Rule("det_to_posdet", Kind.DET, Kind.DET_PLUS, reduce_det_to_posdet),
        Rule("posmatinv_to_sumitmatprod", Kind.MATINV_PLUS, Kind.SUMITMATPROD, reduce_posmatinv_to_sumitmatprod),
        Rule("sumitmatprod_to_itmatprod", Kind.SUMITMATPROD, Kind.ITMATPROD, reduce_sumitmatprod_to_itmatprod),
        Rule("vmatinv_to_singular", Kind.V_MATINV, Kind.SINGULAR, reduce_vmatinv_to_singular),
        Rule("vitmatprod_to_vmatpow", Kind.V_ITMATPROD, Kind.V_MATPOW, reduce_vitmatprod_to_vmatpow),
        Rule("vmatpow_to_vmatinv", Kind.V_MATPOW, Kind.V_MATINV, reduce_vmatpow_to_vmatinv),
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


# ---------------------------------------------------------------------------
# identity and bound measurement


def _product_entry(mats, s: int, t: int) -> complex:
    row = mats[0][s - 1, :]
    for a in mats[1:]:
        row = row @ a
    return complex(row[t - 1])


def _sum_over_e(inst: ProblemInstance) -> complex:
    acc = inst.matrices[0].copy()
    for a in inst.matrices[1:]:
        acc = acc @ a
    return complex(sum(acc[s - 1, t - 1] for (s, t) in inst.E))


def identity_residual(rule: str, src: ProblemInstance, dst: ProblemInstance) -> float:
    """Residual of the rule's defining algebraic identity, evaluating the
    source and target decision quantities independently."""
    if rule in ("itmatprod_to_matpow", "vitmatprod_to_vmatpow"):
        want = _product_entry(src.matrices, src.s, src.t)
        got = np.linalg.matrix_power(dst.matrix, dst.params.m)[dst.s - 1, dst.t - 1]
        return float(abs(got - want))
    if rule in ("matpow_to_matinv", "vmatpow_to_vmatinv"):
        c = math.ceil(1 + src.params.kappa)
        want = c * np.linalg.matrix_power(src.matrix, src.params.m)[src.s - 1, src.t - 1]
        return float(abs(inverse_entry(dst.matrix, dst.s, dst.t) - want))
    if rule == "matinv_to_posmatinv":
        want = 3 * abs(inverse_entry(src.matrix, src.s, src.t))
        return float(abs(abs(inverse_entry(dst.matrix, dst.s, dst.t)) - want))
    if rule == "posdet_to_sumitmatprod":
        n, kappa = src.params.n, src.params.kappa
        l_hat = _log_count(kappa)
        x = np.eye(n) - src.matrix
        power = np.eye(n, dtype=np.complex128)
        series = 0.0
        for k in range(1, dst.params.m + 1):
            power = power @ x
            series += float(np.real(np.trace(power))) / k
        return float(abs(_sum_over_e(dst) - (n * l_hat - series)))
    if rule == "posmatinv_to_sumitmatprod":
        n = src.params.n
        x = np.eye(n) - src.matrix
        power = np.eye(n, dtype=np.complex128)
        series = complex(power[src.s - 1, src.t - 1])
        for _ in range(dst.params.m):
            power = power @ x
            series += complex(power[src.s - 1, src.t - 1])
        return float(abs(_sum_over_e(dst) - series))
    if rule == "itmatprod_to_nonneg":
        want = abs(_product_entry(src.matrices, src.s, src.t)) ** 2
        return float(abs(_product_entry(dst.matrices, dst.s, dst.t) - want))
    if rule == "nonneg_to_det":
        entry = float(np.real(_product_entry(src.matrices, src.s, src.t)))
        n, m, kappa = src.params.n, src.params.m, src.params.kappa
        l_hat = _log_count(2.0 + kappa)
        logdet = log_abs_det(dst.matrix)
        return float(abs(logdet - (math.log1p(entry) - l_hat * n * (m + 1))))
    if rule == "det_to_posdet":
        return float(abs(log_abs_det(dst.matrix) - 2 * log_abs_det(src.matrix)))
    if rule == "sumitmatprod_to_itmatprod":
        return float(abs(_product_entry(dst.matrices, 1, 1) - _sum_over_e(src)))
    if rule == "vmatinv_to_singular":
        c = math.ceil(src.params.kappa)
        n = src.params.n
        c_hat = dst.matrix[: n + 1, n + 1 :] * (2 * c + 1)
        b_mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
        b_mat[:n, :n] = 2 * c * src.matrix
        b_mat[n, n] = 1.0 / (1.0 - complex(src.b) / (2 * c))
        det_b = np.linalg.det(b_mat)
        want = (complex(src.b) - inverse_entry(src.matrix, src.s, src.t)) / (2 * c) * det_b
        return float(abs(np.linalg.det(c_hat) - want) / max(1.0, abs(det_b)))
    raise KeyError(f"no identity defined for rule {rule!r}")


def _measure_one(bound: Bound, rule: str, src: ProblemInstance, dst: ProblemInstance) -> float:
    q = bound.quantity
    if q == "sigma1(A_hat^j), j in [m]":
        worst = 0.0
        powed = np.eye(dst.params.n, dtype=np.complex128)
        for _ in range(dst.params.m):
            powed = powed @ dst.matrix
            worst = max(worst, float(svd_values(powed)[0]))
        return worst
    if q in ("sigma1(Z_hat)", "sigma1(H_hat)", "sigma1(C_hat)"):
        return float(svd_values(dst.matrix)[0])
    if q == "sigma1(Z_hat^-1)":
        return 1.0 / float(svd_values(dst.matrix)[-1])
    if q == "lambda_min(H_hat)":
        return float(hermitian_eigs(dst.matrix)[-1])
    if q == "sigma_min(C_hat)":
        return float(svd_values(dst.matrix)[-1])
    if q == "sigma1(all partial products)":
        return _sv_max_partial(dst.matrices)
    if q == "sigma1(fan-out factor)":
        return float(svd_values(dst.matrices[0])[0])
    if q == "sigma_{n+1}(B_hat)":
        c = math.ceil(src.params.kappa)
        corner = 1.0 / (1.0 - complex(src.b) / (2.0 * c))
        n = src.params.n
        b_mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
        b_mat[:n, :n] = 2.0 * c * src.matrix
        b_mat[n, n] = corner
        return float(svd_values(b_mat)[-1])
    if q in ("series remainder (one-sided)", "series remainder >= 0"):
        logdet = log_abs_det(src.matrix)
        acc = dst.matrices[0].copy()
        for a in dst.matrices[1:]:
            acc = acc @ a
        diag_sum = float(np.real(sum(acc[s - 1, t - 1] for (s, t) in dst.E)))
        n, kappa = src.params.n, src.params.kappa
        l_hat = _log_count(kappa)
        return diag_sum - (n * l_hat + logdet)
    if q == "|Neumann remainder|":
        exact = inverse_entry(src.matrix, src.s, src.t)
        acc = dst.matrices[0].copy()
        for a in dst.matrices[1:]:
            acc = acc @ a
        approx = complex(sum(acc[s - 1, t - 1] for (s, t) in dst.E))
        return float(abs(approx - exact))
    raise KeyError(f"no measurement defined for bound {q!r} of rule {rule}")


def measure_record(
    record: ReductionRecord, src: ProblemInstance, dst: ProblemInstance
) -> ReductionRecord:
    """Fill in measured values for every declared bound of one application."""
    measured = tuple(
        Bound(b.quantity, b.declared, b.upper, _measure_one(b, record.rule, src, dst))
        for b in record.declared_bounds
    )
    return ReductionRecord(
        rule=record.rule,
        input_params=record.input_params,
        output_params=record.output_params,
        answer_map=record.answer_map,
        declared_bounds=measured,
        measured=True,
    )
