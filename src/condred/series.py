"""Certified truncated-series approximators.

Classical evaluations of the power series behind the log-determinant and
inverse-entry estimates, each with an a-priori truncation certificate.  The
claim here is the certificate, not speed: the term counts come from closed
forms in (n, kappa, epsilon) and the measured error must sit inside the
certified bound on every valid input.

The series are evaluated by iterated multiplication with a running power;
the eigensolver is reserved for the verification oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, gram, is_hermitian, svd_values

DEFAULT_TOL = 1e-9


class PromiseViolation(ValueError):
    """Input outside the well-conditioned promise the certificate needs."""


@dataclass(frozen=True)
class ApproxResult:
    value: float | complex
    terms_used: int
    certified_error: float | None = None  # additive bound
    certified_ratio: float | None = None  # multiplicative bound, >= 1


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


def log_series(h: np.ndarray, terms: int) -> float:
    """sum_{k=1}^{terms} Re tr((I-H)^k) / k, the truncation of -ln det H."""
    n = h.shape[0]
    x = np.eye(n, dtype=np.complex128) - h
    power = np.eye(n, dtype=np.complex128)
    total = 0.0
    for k in range(1, terms + 1):
        power = power @ x
        total += float(np.real(np.trace(power))) / k
    return total


def neumann_series(h: np.ndarray, s: int, t: int, terms: int) -> complex:
    """Entry (s, t), 1-based, of sum_{j=0}^{terms} (I-H)^j, the truncation of H^-1."""
    n = h.shape[0]
    x = np.eye(n, dtype=np.complex128) - h
    power = np.eye(n, dtype=np.complex128)
    acc = complex(power[s - 1, t - 1])
    for _ in range(terms):
        power = power @ x
        acc += complex(power[s - 1, t - 1])
    return acc


def _check_posdef_contraction(h: np.ndarray, kappa: float, tol: float) -> None:
    if not is_hermitian(h, tol):
        raise PromiseViolation("matrix is not Hermitian")
    sv = svd_values(h)
    if sv[0] > 1.0 + tol:
        raise PromiseViolation(f"sigma_1 = {sv[0]:.6g} exceeds 1")
    if sv[-1] < 1.0 / kappa - tol:
        raise PromiseViolation(f"sigma_min = {sv[-1]:.6g} below 1/kappa = {1.0/kappa:.6g}")
    # Hermitian with sigma_min >= 1/kappa is positive definite iff I-H is a
    # contraction; a negative eigenvalue would push sigma_1(I-H) above 1
    x = np.eye(h.shape[0]) - h
    if svd_values(x)[0] > 1.0 - 1.0 / kappa + math.sqrt(tol):
        raise PromiseViolation("matrix is not positive definite on the promised spectrum")


def logdet_series(h, kappa: float, epsilon: float, tol: float = DEFAULT_TOL) -> ApproxResult:
    """Truncation of ln det H = -sum_k tr((I-H)^k)/k.

    Certified one-sided: the result overshoots ln det H by at most epsilon/2
    (the dropped terms are traces of positive semidefinite powers).
    """
    h = as_matrix(h, square=True)
    if kappa < 1.0 or epsilon <= 0.0:
        raise ValueError("need kappa >= 1 and epsilon > 0")
    _check_posdef_contraction(h, kappa, tol)
    m_hat = logdet_terms(h.shape[0], kappa, epsilon)
    return ApproxResult(value=-log_series(h, m_hat), terms_used=m_hat, certified_error=epsilon / 2.0)


def absdet_multiplicative(a, kappa: float, epsilon: float, tol: float = DEFAULT_TOL) -> ApproxResult:
    """|det A| to within a factor of e^epsilon, via ln det(AA^dag) / 2.

    AA^dag is positive definite with condition parameter kappa^2; running the
    log-determinant series at additive target 2*epsilon certifies the halved
    value to epsilon/2, comfortably inside the requested ratio.
    """
    a = as_matrix(a, square=True)
    if kappa < 1.0 or epsilon <= 0.0:
        raise ValueError("need kappa >= 1 and epsilon > 0")
    sv = svd_values(a)
    if sv[0] > 1.0 + tol:
        raise PromiseViolation(f"sigma_1 = {sv[0]:.6g} exceeds 1")
    if sv[-1] < 1.0 / kappa - tol:
        raise PromiseViolation(f"sigma_min = {sv[-1]:.6g} below 1/kappa")
    inner = logdet_series(gram(a, left=False), kappa**2, 2.0 * epsilon, tol)
    return ApproxResult(
        value=math.exp(float(np.real(inner.value)) / 2.0),
        terms_used=inner.terms_used,
        certified_ratio=math.exp(inner.certified_error / 2.0),
    )


def neumann_inverse_entry(
    h, s: int, t: int, kappa: float, epsilon: float, tol: float = DEFAULT_TOL
) -> ApproxResult:
    """Entry of H^-1 from the truncated Neumann series sum_j (I-H)^j.

    Certified additive error epsilon/4 against the exact inverse entry.
    Indices are 1-based like everywhere else in the package.
    """
    h = as_matrix(h, square=True)
    n = h.shape[0]
    if not (1 <= s <= n and 1 <= t <= n):
        raise ValueError(f"indices ({s}, {t}) outside [1, {n}]")
    if kappa < 1.0 or epsilon <= 0.0:
        raise ValueError("need kappa >= 1 and epsilon > 0")
    _check_posdef_contraction(h, kappa, tol)
    m_hat = neumann_terms(kappa, epsilon)
    acc = neumann_series(h, s, t, m_hat)
    value = acc.real if abs(acc.imag) < tol else acc
    return ApproxResult(value=value, terms_used=m_hat, certified_error=epsilon / 4.0)
