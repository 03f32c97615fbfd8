"""Certified truncated-series approximators.

Classical evaluations of the power series behind the log-determinant and
inverse-entry estimates, each with an a-priori truncation certificate.  The
claim here is the certificate, not speed: the term counts come from closed
forms in (n, kappa, epsilon) and the measured error must sit inside the
certified bound on every valid input.

Both series take H as it is stored, dense or CSC, and run on
:func:`condred.matcore.running_products` with I - H in that form: the log
series traces each full power of I - H, the Neumann entry sweeps row s
through it.  Each solver first checks the promise its certificate needs, the
spectral clauses of its kind (:func:`condred.problems.spectral_checks`), on
one dense decomposition of H.  :func:`decide` reads the instance's Output
clause on the interval a series value and its certificate give, by the rule
the exact oracle reads the exact value with
(:meth:`condred.problems.Output.decide`): b's statements are read exactly,
the statements about the compared value on that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .matcore import DEFAULT_TOL, Spectrum, as_form, dense_form, identity_minus, running_products
from .problems import ConditionParams, Decision, Kind, ProblemInstance, _output, spectral_checks


class PromiseViolation(ValueError):
    """Input outside the well-conditioned promise that a certificate or a
    reduction needs."""


@dataclass(frozen=True)
class ApproxResult:
    value: float | complex
    terms_used: int
    certified_error: float | None = None  # additive bound


def log_count(x: float) -> int:
    """floor(1 + ln(floor(x))), the term-count device of both series."""
    fx = math.floor(x)
    if fx < 1:
        raise PromiseViolation(f"term-count formula needs floor({x}) >= 1")
    return math.floor(1.0 + math.log(fx))


def logdet_terms(n: int, kappa: float, epsilon: float) -> int:
    """Terms of the log series that certify ln det H to epsilon/2."""
    return math.ceil(kappa) * log_count(2.0 * n * kappa / epsilon)


def neumann_terms(kappa: float, epsilon: float) -> int:
    """Terms of the Neumann series that certify an inverse entry to epsilon/4."""
    return math.ceil(kappa) * log_count(4.0 * kappa / epsilon)


def log_series(h, terms: int) -> float:
    """sum_{k=1}^{terms} Re tr((I-H)^k) / k, the truncation of -ln det H."""
    powers = running_products(np.eye(h.shape[0], dtype=np.complex128), repeat(identity_minus(h), terms))
    return sum((float(np.real(np.trace(power))) / k for k, power in enumerate(powers, 1)), 0.0)


def neumann_series(h, s: int, t: int, terms: int) -> complex:
    """Entry (s, t), 1-based, of sum_{j=0}^{terms} (I-H)^j, the truncation of
    H^-1, by a sweep of row s: one product with I - H per term."""
    row = np.eye(1, h.shape[0], s - 1, dtype=np.complex128)[0]  # e_s
    sweep = running_products(row, repeat(identity_minus(h), terms))
    return complex(sum((r[t - 1] for r in sweep), row[t - 1]))


def _require(kind: Kind, a, kappa: float, epsilon: float, tol: float) -> None:
    """ValueError unless kappa >= 1 and epsilon > 0; PromiseViolation at the
    first of ``kind``'s spectral clauses that ``a``, densified, fails."""
    ConditionParams(a.shape[0], 1, kappa, epsilon)
    for c in spectral_checks(kind, Spectrum(dense_form(a)), kappa, tol):
        if not c.passed:
            raise PromiseViolation(f"{c.name} fails: measured {c.measured:.6g}, declared {c.declared:.6g}")


def logdet_series(h, kappa: float, epsilon: float, tol: float = DEFAULT_TOL) -> ApproxResult:
    """Truncation of ln det H = -sum_k tr((I-H)^k)/k.

    Certified one-sided: the result overshoots ln det H by at most epsilon/2
    (the dropped terms are traces of positive semidefinite powers).
    """
    h = as_form(h, square=True)
    _require(Kind.DET_PLUS, h, kappa, epsilon, tol)
    m_hat = logdet_terms(h.shape[0], kappa, epsilon)
    return ApproxResult(value=-log_series(h, m_hat), terms_used=m_hat, certified_error=epsilon / 2.0)


def neumann_inverse_entry(
    h, s: int, t: int, kappa: float, epsilon: float, tol: float = DEFAULT_TOL
) -> ApproxResult:
    """Entry of H^-1 from the truncated Neumann series sum_j (I-H)^j.

    Certified additive error epsilon/4 against the exact inverse entry.
    Indices are 1-based like everywhere else in the package.
    """
    h = as_form(h, square=True)
    n = h.shape[0]
    if not (1 <= s <= n and 1 <= t <= n):
        raise ValueError(f"indices ({s}, {t}) outside [1, {n}]")
    _require(Kind.MATINV_PLUS, h, kappa, epsilon, tol)
    m_hat = neumann_terms(kappa, epsilon)
    acc = neumann_series(h, s, t, m_hat)
    value = acc.real if abs(acc.imag) < tol else acc
    return ApproxResult(value=value, terms_used=m_hat, certified_error=epsilon / 4.0)


def decide(inst: ProblemInstance, tol: float = DEFAULT_TOL) -> tuple[Decision, ApproxResult]:
    """A DET+ or MATINV+ instance decided by :meth:`condred.problems.Output.decide`
    on the interval its series certifies, with the compared value as witness;
    ValueError for any other kind, before any work, or for a term count past
    the largest double."""
    p = inst.params
    try:
        if inst.kind is Kind.DET_PLUS:
            approx = logdet_series(inst.forms[0], p.kappa, p.epsilon, tol)
            below, above = approx.certified_error, 0.0  # the log series only overshoots ln det H
        elif inst.kind is Kind.MATINV_PLUS:
            approx = neumann_inverse_entry(inst.forms[0], inst.s, inst.t, p.kappa, p.epsilon, tol)
            below = above = approx.certified_error  # |value - H^-1[s,t]| <= epsilon/4 either way
        else:
            raise ValueError("--method series needs a DET+ or MATINV+ instance")
    except OverflowError as exc:  # log_count of an infinite kappa/epsilon ratio
        raise ValueError(f"the series term count overflows at kappa={p.kappa:g}, epsilon={p.epsilon:g}") from exc
    out = _output(inst, approx.value)
    return Decision(out.decide(tol, below, above), out.value), approx
