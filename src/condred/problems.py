"""The promise problems as data: promise checking, a brute-force decision
oracle, and seeded generators of well-conditioned instances.

Index convention: ``s``, ``t`` and the pairs in ``E`` are 1-based, matching
the way block positions are written in the reduction formulas.  Matrix data
is 0-based numpy underneath; the conversion happens only here and in the
reduction builders.

Promise violations are data, not exceptions: ``oracle_decide`` returns
``Decision.PROMISE_VIOLATED`` so that reduction pipelines can be exercised on
adversarial inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import (
    as_matrix,
    hermitian_eigs,
    inverse_entry,
    log_abs_det,
    random_unitary,
    svd_values,
)

DEFAULT_TOL = 1e-9

# Relative safety margin used when generators place b against the computed
# decision quantity.  Exact-boundary placement makes One-instances flip to
# "inside the gap" after the quantity is recomputed along a different
# floating-point path (e.g. at the far end of a reduction chain).
B_MARGIN = 1e-6


class Kind(str, enum.Enum):
    DET = "DET"
    DET_PLUS = "DET+"
    MATINV = "MATINV"
    MATINV_PLUS = "MATINV+"
    MATPOW = "MATPOW"
    ITMATPROD = "ITMATPROD"
    ITMATPROD_NONNEG = "ITMATPROD>=0"
    SUMITMATPROD = "SUMITMATPROD"
    SINGULAR = "SINGULAR"
    V_MATINV = "vMATINV"
    V_MATPOW = "vMATPOW"
    V_ITMATPROD = "vITMATPROD"


#: kinds whose input is a list of m matrices with the partial-product promise
PRODUCT_KINDS = frozenset(
    {Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, Kind.SUMITMATPROD, Kind.V_ITMATPROD}
)
#: kinds whose decision is "quantity equals b" versus "at least epsilon away"
VERIFICATION_KINDS = frozenset({Kind.V_MATINV, Kind.V_MATPOW, Kind.V_ITMATPROD})
#: kinds requiring a positive definite Hermitian input
POSITIVE_KINDS = frozenset({Kind.DET_PLUS, Kind.MATINV_PLUS})


class InfeasibleParams(ValueError):
    """Requested generator parameters admit no valid instance."""


@dataclass(frozen=True)
class ConditionParams:
    """(n, m, kappa, epsilon) conditioning parameters of one instance."""

    n: int
    m: int = 1
    kappa: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.epsilon)):
            raise ValueError("kappa and epsilon must be finite")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if self.kappa < 1.0:
            raise ValueError("kappa must be >= 1")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")


def _check_index(name: str, idx, n: int) -> None:
    """A 1-based index must be an integer in [1, n]; a bool is not one."""
    if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
        raise ValueError(f"{name}={idx!r} is not an integer")
    if not 1 <= idx <= n:
        raise ValueError(f"{name}={idx} outside [1, {n}]")


@dataclass(frozen=True)
class ProblemInstance:
    kind: Kind
    params: ConditionParams
    matrices: tuple[np.ndarray, ...]
    s: int | None = None
    t: int | None = None
    E: tuple[tuple[int, int], ...] | None = None
    b: float | complex | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(as_matrix(a, square=True) for a in self.matrices)
        )
        n = self.params.n
        expected = self.params.m if self.kind in PRODUCT_KINDS else 1
        if len(self.matrices) != expected:
            raise ValueError(
                f"{self.kind.value} expects {expected} matrices, got {len(self.matrices)}"
            )
        for a in self.matrices:
            if a.shape != (n, n):
                raise ValueError(f"matrix shape {a.shape} does not match n={n}")
        for name, idx in (("s", self.s), ("t", self.t)):
            if idx is not None:
                _check_index(f"index {name}", idx, n)
        if self.E is not None:
            for pair in self.E:
                if len(pair) != 2:
                    raise ValueError(f"E pair {pair!r} is not an (s, t) pair")
                for idx in pair:
                    _check_index("E entry", idx, n)

    @property
    def matrix(self) -> np.ndarray:
        return self.matrices[0]


class DecisionValue(str, enum.Enum):
    ONE = "One"
    ZERO = "Zero"
    PROMISE_VIOLATED = "PromiseViolated"


@dataclass(frozen=True)
class Decision:
    value: DecisionValue
    witness_value: float | complex | None = None

    def __bool__(self):
        return self.value is DecisionValue.ONE


@dataclass(frozen=True)
class PromiseCheck:
    name: str
    declared: float
    measured: float
    passed: bool


@dataclass(frozen=True)
class PromiseReport:
    checks: tuple[PromiseCheck, ...]
    overall: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overall", all(c.passed for c in self.checks))

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def partial_products(matrices) -> dict[tuple[int, int], np.ndarray]:
    """All A_{j1,j2} = A_{j1} ... A_{j2} by prefix extension, 1-based keys."""
    mats = [as_matrix(a, square=True) for a in matrices]
    m = len(mats)
    out: dict[tuple[int, int], np.ndarray] = {}
    for j1 in range(1, m + 1):
        acc = mats[j1 - 1]
        out[(j1, j1)] = acc
        for j2 in range(j1 + 1, m + 1):
            acc = acc @ mats[j2 - 1]
            out[(j1, j2)] = acc
    return out


def product_entry(matrices, s: int, t: int) -> complex:
    """(s,t) entry of A_1 ... A_m by a single left-to-right row sweep."""
    return _row_sweep([as_matrix(a, square=True) for a in matrices], s, t)


def _row_sweep(mats, s: int, t: int) -> complex:
    row = mats[0][s - 1, :]
    for a in mats[1:]:
        row = row @ a
    return complex(row[t - 1])


def max_partial_sigma1(matrices) -> float:
    """Largest sigma1 over all partial products A_{j1,j2}."""
    return max(float(svd_values(prod)[0]) for prod in partial_products(matrices).values())


def max_power_sigma1(a: np.ndarray, m: int) -> float:
    """Largest sigma1 over the powers A^1 .. A^m."""
    worst = 0.0
    powed = np.eye(a.shape[0], dtype=np.complex128)
    for _ in range(m):
        powed = powed @ a
        worst = max(worst, float(svd_values(powed)[0]))
    return worst


def decision_quantity(inst: ProblemInstance) -> float | complex | None:
    """The exact quantity each Output clause compares against b.

    DET-family returns log|det| (the comparison happens on the log scale),
    computed by triangular factorization with log-magnitude accumulation.
    Both factorizations run sparse when the matrix is nearly empty.  The
    MATINV family returns None when its matrix is exactly singular: the
    inverse entry does not exist, which breaks the promise.
    """
    kind, p = inst.kind, inst.params
    if kind in (Kind.DET, Kind.DET_PLUS):
        return log_abs_det(inst.matrix)
    if kind in (Kind.MATINV, Kind.MATINV_PLUS, Kind.V_MATINV):
        try:
            return inverse_entry(inst.matrix, inst.s, inst.t)
        except np.linalg.LinAlgError:
            return None
    if kind in (Kind.MATPOW, Kind.V_MATPOW):
        powed = np.linalg.matrix_power(inst.matrix, p.m)
        return complex(powed[inst.s - 1, inst.t - 1])
    if kind in (Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, Kind.V_ITMATPROD):
        return _row_sweep(inst.matrices, inst.s, inst.t)  # matrices checked on construction
    if kind is Kind.SUMITMATPROD:
        mats = inst.matrices
        acc = mats[0].copy()
        for a in mats[1:]:
            acc = acc @ a
        return complex(sum(acc[s - 1, t - 1] for (s, t) in inst.E))
    if kind is Kind.SINGULAR:
        return float(svd_values(inst.matrix)[-1])
    raise ValueError(f"unknown kind {kind}")


def _gap_checks(inst: ProblemInstance, q: float | complex | None, tol: float) -> list[PromiseCheck]:
    """Membership of the decision quantity in the promised two-sided gap."""
    kind, p = inst.kind, inst.params
    if q is None:
        return [PromiseCheck("A invertible", 1.0, 0.0, False)]
    checks: list[PromiseCheck] = []
    if kind in VERIFICATION_KINDS:
        dist = abs(q - inst.b)
        in_gap = dist <= tol or dist >= p.epsilon - tol
        checks.append(PromiseCheck("|quantity - b| in {0} u [eps, 2*kappa]", p.epsilon, dist, in_gap))
        checks.append(
            PromiseCheck("|quantity - b| <= 2*kappa", 2 * p.kappa, dist, dist <= 2 * p.kappa + tol)
        )
        return checks
    if kind is Kind.SINGULAR:
        ok = q <= tol or p.epsilon - tol <= q <= 1 + tol
        checks.append(PromiseCheck("sigma_min in {0} u [eps, 1]", p.epsilon, float(q), ok))
        return checks
    b = float(np.real(inst.b))
    if kind in (Kind.DET, Kind.DET_PLUS):
        checks.append(PromiseCheck("b <= 0", 0.0, b, b <= tol))
        ok = q >= b - tol or q <= b - p.epsilon + tol
        checks.append(PromiseCheck("log|det| in (-inf, b-eps] u [b, 0]", b, float(q), ok))
        checks.append(PromiseCheck("log|det| <= 0", 0.0, float(q), q <= tol))
        return checks
    if kind is Kind.ITMATPROD_NONNEG:
        imag = float(abs(np.imag(q)))
        checks.append(PromiseCheck("entry is real nonnegative", 0.0, imag, imag <= tol))
        val = float(np.real(q))
    elif kind is Kind.MATINV_PLUS:
        # complex entries are compared by magnitude (reduced instances may
        # carry a phase even though the canonical problem reads a real value)
        val = float(abs(q))
    else:
        val = float(abs(q))
    cap = p.kappa * (len(inst.E) if kind is Kind.SUMITMATPROD else 1)
    checks.append(PromiseCheck("b >= 0", 0.0, b, b >= -tol))
    ok = val >= b - tol or val <= b - p.epsilon + tol
    checks.append(PromiseCheck("quantity in [0, b-eps] u [b, cap]", b, val, ok))
    checks.append(PromiseCheck("quantity <= cap", cap, val, val <= cap + tol))
    return checks


def check_promise(inst: ProblemInstance, tol: float = DEFAULT_TOL) -> PromiseReport:
    """Measure every Promise clause of the instance's problem definition."""
    kind, p = inst.kind, inst.params
    checks: list[PromiseCheck] = []

    if kind in PRODUCT_KINDS:
        worst = max_partial_sigma1(inst.matrices)
        checks.append(PromiseCheck("sigma1(all partial products) <= kappa", p.kappa, worst, worst <= p.kappa + tol))
    elif kind in (Kind.MATPOW, Kind.V_MATPOW):
        worst = max_power_sigma1(inst.matrix, p.m)
        checks.append(PromiseCheck("sigma1(A^j) <= kappa for j in [m]", p.kappa, worst, worst <= p.kappa + tol))
    elif kind is Kind.SINGULAR:
        herm = float(np.max(np.abs(inst.matrix - inst.matrix.conj().T)))
        checks.append(PromiseCheck("A Hermitian", tol, herm, herm <= tol))
        s1 = float(svd_values(inst.matrix)[0])
        checks.append(PromiseCheck("sigma1 <= 1", 1.0, s1, s1 <= 1 + tol))
    else:
        sv = svd_values(inst.matrix)
        s1, sn = float(sv[0]), float(sv[-1])
        checks.append(PromiseCheck("sigma1 <= 1", 1.0, s1, s1 <= 1 + tol))
        checks.append(PromiseCheck("sigma_min >= 1/kappa", 1.0 / p.kappa, sn, sn >= 1.0 / p.kappa - tol))
        if kind in POSITIVE_KINDS:
            herm = float(np.max(np.abs(inst.matrix - inst.matrix.conj().T)))
            checks.append(PromiseCheck("H Hermitian", tol, herm, herm <= tol))
            if herm <= tol:
                lam_min = float(hermitian_eigs(inst.matrix, tol=math.sqrt(tol))[-1])
                checks.append(PromiseCheck("H positive definite", 0.0, lam_min, lam_min > tol))
        if kind is Kind.V_MATINV:
            checks.append(PromiseCheck("|b| <= kappa", p.kappa, abs(inst.b), abs(inst.b) <= p.kappa + tol))

    q = decision_quantity(inst)
    checks.extend(_gap_checks(inst, q, tol))
    return PromiseReport(tuple(checks))


def oracle_decide(
    inst: ProblemInstance, tol: float = DEFAULT_TOL, check: str = "full"
) -> Decision:
    """Ground-truth decision by dense algebra.

    ``check`` selects how much of the promise is verified first: "full" runs
    every clause (singular-value sweeps included), "gap" only checks that the
    decision quantity sits in its promised two-sided interval, "none" skips
    straight to the comparison.  Conditioning clauses of reduced instances
    are covered by the per-rule bound suite, so chain-level callers use "gap"
    to stay within time budgets on large compositions.
    """
    if check not in ("full", "gap", "none"):
        raise ValueError("check must be 'full', 'gap' or 'none'")
    q = decision_quantity(inst)
    if q is None:
        return Decision(DecisionValue.PROMISE_VIOLATED)
    if check == "full":
        report = check_promise(inst, tol)
        if not report.overall:
            return Decision(DecisionValue.PROMISE_VIOLATED, q)
    elif check == "gap":
        if not all(c.passed for c in _gap_checks(inst, q, tol)):
            return Decision(DecisionValue.PROMISE_VIOLATED, q)

    kind, p = inst.kind, inst.params
    if kind in VERIFICATION_KINDS:
        dist = abs(q - inst.b)
        if dist <= tol:
            return Decision(DecisionValue.ONE, q)
        if dist >= p.epsilon - tol:
            return Decision(DecisionValue.ZERO, q)
        return Decision(DecisionValue.PROMISE_VIOLATED, q)
    if kind is Kind.SINGULAR:
        if q <= tol:
            return Decision(DecisionValue.ONE, q)
        if q >= p.epsilon - tol:
            return Decision(DecisionValue.ZERO, q)
        return Decision(DecisionValue.PROMISE_VIOLATED, q)

    b = float(np.real(inst.b))
    if kind in (Kind.DET, Kind.DET_PLUS):
        val = float(q)
    elif kind is Kind.ITMATPROD_NONNEG:
        val = float(np.real(q))
    else:
        val = float(abs(q))
    if val >= b:
        return Decision(DecisionValue.ONE, q)
    if val <= b - p.epsilon:
        return Decision(DecisionValue.ZERO, q)
    return Decision(DecisionValue.PROMISE_VIOLATED, q)


# ---------------------------------------------------------------------------
# generators


def gen_conditioned_matrix(
    n: int, sigma_min: float, sigma_max: float, seed: int
) -> np.ndarray:
    """A = U diag(sigma) V^dag with the spectrum pinned inside [min, max].

    Both endpoints are hit deterministically (for n >= 2); interior values
    are uniform.  Deterministic in (n, sigma_min, sigma_max, seed).
    """
    if not (0 < sigma_min <= sigma_max):
        raise ValueError("need 0 < sigma_min <= sigma_max")
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    if n == 1:
        sigma = np.array([sigma_max])
    else:
        sigma = np.sort(rng.uniform(sigma_min, sigma_max, size=n))[::-1]
        sigma[0], sigma[-1] = sigma_max, sigma_min
    return u @ np.diag(sigma).astype(np.complex128) @ v.conj().T


def _conditioned(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Like gen_conditioned_matrix but with a free interior spectrum, so
    instance families stay varied at small n."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    sigma = np.sort(rng.uniform(lo, hi, size=n))[::-1]
    return u @ np.diag(sigma).astype(np.complex128) @ v.conj().T


def _hermitian_posdef(n: int, lam_lo: float, lam_hi: float, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(n, rng)
    lam = np.sort(rng.uniform(lam_lo, lam_hi, size=n))[::-1]
    h = u @ np.diag(lam).astype(np.complex128) @ u.conj().T
    return (h + h.conj().T) / 2.0


def _contraction(n: int, rng: np.random.Generator, top: float = 1.0) -> np.ndarray:
    """Matrix with sigma_1 <= top; partial products then stay <= top^m <= kappa."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s1 = float(svd_values(g)[0])
    scale = rng.uniform(0.55, 0.98) * top / s1
    return g * scale


def _place_b(q: float, want_one: bool, epsilon: float) -> float:
    """Threshold placed against the computed quantity, with a safety margin."""
    margin = B_MARGIN * max(1.0, abs(q), epsilon)
    if want_one:
        return q - margin
    return q + epsilon + margin


def gen_instance(
    kind: Kind | str,
    params: ConditionParams,
    seed: int,
    want_one: bool | None = None,
) -> ProblemInstance:
    """Instance passing ``check_promise``, with b placed so it is a valid
    One- or Zero-instance (seed parity decides when ``want_one`` is None)."""
    kind = Kind(kind)
    if want_one is None:
        want_one = seed % 2 == 0
    rng = np.random.default_rng((seed, 0xC0DE))
    n, m, kappa, eps = params.n, params.m, params.kappa, params.epsilon

    if kind in (Kind.DET, Kind.DET_PLUS):
        # b <= 0 forces Zero-instances to have log|det| <= -eps - margin
        margin = B_MARGIN * max(1.0, eps)
        if want_one:
            hi = 1.0
        else:
            hi = math.exp(-(eps + 2 * margin) / n)
            if hi < 1.0 / kappa:
                raise InfeasibleParams(
                    f"DET zero-instance needs eps <= n*ln(kappa); got eps={eps}, n={n}, kappa={kappa}"
                )
        if kind is Kind.DET:
            a = _conditioned(n, 1.0 / kappa, hi, rng)
        else:
            a = _hermitian_posdef(n, 1.0 / kappa, hi, rng)
        inst = ProblemInstance(kind, params, (a,), b=0.0)
        q = float(decision_quantity(inst))
        b = q - margin if want_one else q + eps + margin
        if b > 0:
            raise InfeasibleParams(f"computed b={b} > 0 for {kind.value}")
        return replace(inst, b=b)

    if kind in (Kind.MATINV, Kind.V_MATINV):
        a = _conditioned(n, 1.0 / kappa, 1.0, rng)
        s = int(rng.integers(1, n + 1))
        t = int(rng.integers(1, n + 1))
        inst = ProblemInstance(kind, params, (a,), s=s, t=t, b=0.0)
        q = decision_quantity(inst)
        if kind is Kind.V_MATINV:
            return replace(inst, b=_place_verification_b(q, want_one, eps, cap=kappa))
        return replace(inst, b=max(0.0, _place_b(abs(q), want_one, eps)))

    if kind is Kind.MATINV_PLUS:
        h = _hermitian_posdef(n, 1.0 / kappa, 1.0, rng)
        s = t = int(rng.integers(1, n + 1))  # diagonal entry: real, >= 1
        inst = ProblemInstance(kind, params, (h,), s=s, t=t, b=0.0)
        q = float(np.real(decision_quantity(inst)))
        return replace(inst, b=max(0.0, _place_b(q, want_one, eps)))

    if kind in (Kind.MATPOW, Kind.V_MATPOW):
        a = _contraction(n, rng)
        s = int(rng.integers(1, n + 1))
        t = int(rng.integers(1, n + 1))
        inst = ProblemInstance(kind, params, (a,), s=s, t=t, b=0.0)
        q = decision_quantity(inst)
        if kind is Kind.V_MATPOW:
            return replace(inst, b=_place_verification_b(q, want_one, eps, cap=None))
        return replace(inst, b=max(0.0, _place_b(abs(q), want_one, eps)))

    if kind in (Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, Kind.V_ITMATPROD):
        mats = tuple(_contraction(n, rng) for _ in range(m))
        s = int(rng.integers(1, n + 1))
        t = int(rng.integers(1, n + 1))
        if kind is Kind.ITMATPROD_NONNEG:
            # conjugation sandwich: A_1..A_k, |t><t|, A_k^dag..A_1^dag makes the
            # designated entry |A_{1,k}[s,t]|^2, real and nonnegative; identity
            # padding at the end absorbs any leftover length
            k = (m - 1) // 2
            head = tuple(_contraction(n, rng) for _ in range(k))
            mid = np.zeros((n, n), dtype=np.complex128)
            mid[t - 1, t - 1] = 1.0
            tail = tuple(h.conj().T for h in reversed(head))
            pad = tuple(np.eye(n, dtype=np.complex128) for _ in range(m - 2 * k - 1))
            mats = head + (mid,) + tail + pad
            t = s
        inst = ProblemInstance(kind, params, mats, s=s, t=t, b=0.0)
        q = decision_quantity(inst)
        if kind is Kind.V_ITMATPROD:
            return replace(inst, b=_place_verification_b(q, want_one, eps, cap=None))
        if kind is Kind.ITMATPROD_NONNEG:
            return replace(inst, b=max(0.0, _place_b(float(np.real(q)), want_one, eps)))
        return replace(inst, b=max(0.0, _place_b(abs(q), want_one, eps)))

    if kind is Kind.SUMITMATPROD:
        mats = tuple(_contraction(n, rng) for _ in range(m))
        n_pairs = int(rng.integers(1, n * n + 1))
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        picks = rng.choice(len(all_pairs), size=n_pairs, replace=False)
        pairs = tuple(all_pairs[i] for i in sorted(picks))
        inst = ProblemInstance(kind, params, mats, E=pairs, b=0.0)
        q = decision_quantity(inst)
        return replace(inst, b=max(0.0, _place_b(abs(q), want_one, eps)))

    if kind is Kind.SINGULAR:
        u = random_unitary(n, rng)
        mags = rng.uniform(eps, 1.0, size=n)
        mags[0] = 1.0
        if want_one:
            mags[-1] = 0.0
        elif n > 1:
            mags[-1] = eps
        signs = rng.choice([-1.0, 1.0], size=n)
        h = u @ np.diag(mags * signs).astype(np.complex128) @ u.conj().T
        h = (h + h.conj().T) / 2
        return ProblemInstance(kind, params, (h,))

    raise ValueError(f"no generator for kind {kind}")


def _place_verification_b(
    q: complex, want_one: bool, epsilon: float, cap: float | None
) -> complex:
    """b for exact-vs-epsilon problems; One-instances use b = quantity exactly."""
    if want_one:
        return complex(q)
    margin = 1.0 + B_MARGIN
    if abs(q) > epsilon * margin:
        # shrink toward the origin: keeps |b| <= |quantity| <= kappa
        return complex(q * (1.0 - epsilon * margin / abs(q)))
    b = complex(q + epsilon * margin)
    if cap is not None and abs(b) > cap:
        raise InfeasibleParams(f"cannot place zero-instance b within |b| <= {cap}")
    return b
