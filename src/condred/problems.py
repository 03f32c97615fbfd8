"""The promise problems as data: promise checking, a brute-force decision
oracle, and seeded generators of well-conditioned instances.

Index convention: ``s``, ``t`` and the pairs in ``E`` are 1-based, matching
the way block positions are written in the reduction formulas.  Matrix data
is 0-based numpy underneath; the conversion happens only here and in the
reduction builders.

Each kind's Output clause, and every promise statement about b and about
the value compared with it, has one home, :func:`_output`; the promise check,
the oracle, the series decision and ``compile-circuit`` read it by one rule,
:meth:`Output.decide`.  Promise violations are data, not exceptions:
``oracle_decide`` returns ``Decision.PROMISE_VIOLATED`` so that reduction
pipelines can be exercised on adversarial inputs.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Spectrum,
    as_form,
    dense_form,
    inverse_entry,
    log_abs_det,
    random_unitary,
    running_products,
    svd_values,
)

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
#: kinds whose decision quantity is the entry (s, t) of a matrix
INDEXED_KINDS = frozenset(
    {Kind.MATINV, Kind.MATINV_PLUS, Kind.V_MATINV, Kind.MATPOW, Kind.V_MATPOW,
     Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, Kind.V_ITMATPROD}
)
#: kinds requiring a positive definite Hermitian input
POSITIVE_KINDS = frozenset({Kind.DET_PLUS, Kind.MATINV_PLUS})


class InfeasibleParams(ValueError):
    """Requested generator parameters admit no valid instance."""


def _is_int(x) -> bool:
    """An integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ConditionParams:
    """(n, m, kappa, epsilon) conditioning parameters of one instance."""

    n: int
    m: int = 1
    kappa: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.m)):
            raise ValueError(f"n={self.n!r} and m={self.m!r} must be integers")
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
    if not _is_int(idx):
        raise ValueError(f"{name}={idx!r} is not an integer")
    if not 1 <= idx <= n:
        raise ValueError(f"{name}={idx} outside [1, {n}]")


@dataclass(frozen=True)
class ProblemInstance:
    """``forms`` holds each matrix as given: a dense array, or a SciPy sparse
    matrix in canonical CSC form (:func:`condred.matcore.as_form`)."""

    kind: Kind
    params: ConditionParams
    forms: tuple
    s: int | None = None
    t: int | None = None
    E: tuple[tuple[int, int], ...] | None = None
    b: float | complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(as_form(a, square=True) for a in self.forms))
        n = self.params.n
        expected = self.params.m if self.kind in PRODUCT_KINDS else 1
        if len(self.forms) != expected:
            raise ValueError(
                f"{self.kind.value} expects {expected} matrices, got {len(self.forms)}"
            )
        for a in self.forms:
            if a.shape != (n, n):
                raise ValueError(f"matrix shape {a.shape} does not match n={n}")
        needed = (("s", self.kind in INDEXED_KINDS), ("t", self.kind in INDEXED_KINDS),
                  ("E", self.kind is Kind.SUMITMATPROD), ("b", self.kind is not Kind.SINGULAR))
        missing = [name for name, need in needed if need and getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.kind.value} needs {' and '.join(missing)}")
        if self.b is not None:
            b = complex(self.b)
            if not cmath.isfinite(b):
                raise ValueError(f"b={self.b!r} is not finite")
            if b.imag and self.kind not in VERIFICATION_KINDS:
                raise ValueError(f"{self.kind.value} compares a real b; b={self.b!r} has an imaginary part")
        for name, idx in (("s", self.s), ("t", self.t)):
            if idx is not None:
                _check_index(f"index {name}", idx, n)
        if self.E is not None:
            if not self.E:
                raise ValueError("E must be nonempty")
            for pair in self.E:
                if len(pair) != 2:
                    raise ValueError(f"E pair {pair!r} is not an (s, t) pair")
                for idx in pair:
                    _check_index("E entry", idx, n)

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Dense view of ``forms``, made on first read (a sparse form read-only)."""
        return tuple(dense_form(a) for a in self.forms)

    @property
    def matrix(self) -> np.ndarray:
        return self.matrices[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        """The spectral record of ``matrix`` (:class:`condred.matcore.Spectrum`),
        made on first read and kept."""
        return Spectrum(self.matrix)

    @cached_property
    def sigma1_sweep(self) -> float:
        """Largest sigma1 over all partial products of ``forms`` for the
        product kinds, else over the powers A^1 .. A^m; computed on first
        read and kept."""
        if self.kind in PRODUCT_KINDS:
            return max_partial_sigma1(self.forms)
        return max_power_sigma1(self.forms[0], self.params.m)

    @cached_property
    def quantity(self) -> float | complex | None:
        """The exact quantity each Output clause compares against b, made on
        first read and kept: log|det| for the DET kinds and an inverse entry
        for the MATINV kinds, by a triangular factorization; sigma_min, read
        from the spectral record, for SINGULAR; for every other kind the sum
        of the product entries at the pairs of E for SUMITMATPROD, or at the
        one pair (s, t) (an E given to another kind is not read), by one sweep of their rows through the stored factors (A m times for
        a power).  None for a MATINV-family matrix that is exactly singular
        (no inverse entry: the promise breaks)."""
        kind, p = self.kind, self.params
        if kind in (Kind.DET, Kind.DET_PLUS):
            return log_abs_det(self.forms[0])
        if kind in (Kind.MATINV, Kind.MATINV_PLUS, Kind.V_MATINV):
            try:
                return inverse_entry(self.forms[0], self.s, self.t)
            except np.linalg.LinAlgError:
                return None
        if kind is Kind.SINGULAR:
            return float(self.spectrum.sigma[-1])
        factors = (self.forms[0],) * p.m if kind in (Kind.MATPOW, Kind.V_MATPOW) else self.forms
        pairs = self.E if kind is Kind.SUMITMATPROD else ((self.s, self.t),)
        rows = np.unique([s for s, _ in pairs])
        prod = _rows_of_product(factors, rows)
        first, *rest = (prod[np.searchsorted(rows, s), t - 1] for s, t in pairs)
        return complex(sum(rest, first))  # a lone entry keeps its bits, -0.0 parts included


class DecisionValue(str, enum.Enum):
    ONE = "One"
    ZERO = "Zero"
    PROMISE_VIOLATED = "PromiseViolated"


@dataclass(frozen=True)
class Decision:
    value: DecisionValue
    witness_value: float | complex | None = None


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


def _partials(forms):
    """((j1, j2), A_{j1,j2}) for all 1 <= j1 <= j2 <= m, by prefix extension."""
    eye = np.eye(forms[0].shape[0], dtype=np.complex128)
    for j1 in range(1, len(forms) + 1):
        for j2, prod in enumerate(running_products(eye, forms[j1 - 1 :]), j1):
            yield (j1, j2), prod


def partial_products(matrices) -> dict[tuple[int, int], np.ndarray]:
    """All A_{j1,j2} = A_{j1} ... A_{j2} by prefix extension, 1-based keys."""
    return dict(_partials([as_form(a, square=True) for a in matrices]))


def _rows_of_product(forms, rows) -> np.ndarray:
    """Rows ``rows`` (1-based) of the product of ``forms``, by a row sweep."""
    start = np.zeros((len(rows), forms[0].shape[0]), dtype=np.complex128)
    start[range(len(rows)), np.subtract(rows, 1)] = 1.0
    return deque(running_products(start, forms), maxlen=1)[0]


def product_entry(matrices, s: int, t: int) -> complex:
    """(s,t) entry of A_1 ... A_m by a single left-to-right row sweep."""
    return complex(_rows_of_product([as_form(a, square=True) for a in matrices], [s])[0, t - 1])


def _max_sigma1(products) -> float:
    """Largest sigma1 over ``products``; +inf once one has overflowed (an entry not finite)."""
    return max(float(svd_values(p)[0]) if np.isfinite(p).all() else math.inf for p in products)


def max_partial_sigma1(forms) -> float:
    """Largest sigma1 over all partial products A_{j1,j2}."""
    return _max_sigma1(prod for _, prod in _partials(forms))


def max_power_sigma1(a, m: int) -> float:
    """Largest sigma1 over the powers A^1 .. A^m; ``a`` is dense or sparse."""
    return _max_sigma1(running_products(np.eye(a.shape[0], dtype=np.complex128), (a,) * m))


@dataclass(frozen=True)
class Output:
    """One kind's Output clause, read on one instance.

    ``value`` is the number the kind compares with b.  The instance is a
    One-instance when ``value`` lies in the closed interval ``one`` and a
    Zero-instance when it lies in ``zero``; nothing lies in between.  b
    itself lies in ``b_range``.  The promise's statements come in two
    groups: ``exact`` ones, (name, declared, measured, intervals), hold when
    their measured number lies in one of their intervals; ``clauses``,
    (name, declared, intervals), are about ``value`` and hold when the
    interval where it is known to lie meets one of theirs.  A reading widens
    the intervals by ``tol``, or those about ``value`` by ``value_tol`` if
    given (the tolerance a chain carries to its end: ``carried_tol``).
    """

    value: float
    one: tuple[float, float]
    zero: tuple[float, float]
    exact: tuple[tuple[str, float, float, tuple[tuple[float, float], ...]], ...]
    clauses: tuple[tuple[str, float, tuple[tuple[float, float], ...]], ...]
    b_range: tuple[float, float] = (-math.inf, math.inf)

    def side(self, tol: float, below: float = 0.0, above: float = 0.0) -> DecisionValue:
        """One or Zero as [value - below, value + above], where the true value
        is known to lie (width 0 for an exact value), meets ``one`` or ``zero``."""
        lo, hi = self.value - below, self.value + above
        for verdict, interval in ((DecisionValue.ONE, self.one), (DecisionValue.ZERO, self.zero)):
            if _meets(lo, hi, (interval,), tol):
                return verdict
        return DecisionValue.PROMISE_VIOLATED

    def checks(self, tol: float, below: float = 0.0, above: float = 0.0, *,
               value_tol: float | None = None) -> list[PromiseCheck]:
        """Every statement, the exact ones first, with ``value`` in [value - below, value + above]."""
        lo, hi, vt = self.value - below, self.value + above, tol if value_tol is None else value_tol
        return [PromiseCheck(name, declared, measured, _meets(measured, measured, intervals, tol))
                for name, declared, measured, intervals in self.exact] + [
                PromiseCheck(name, declared, self.value, _meets(lo, hi, intervals, vt))
                for name, declared, intervals in self.clauses]

    def decide(self, tol: float, below: float = 0.0, above: float = 0.0, *,
               value_tol: float | None = None) -> DecisionValue:
        """:meth:`side` when every one of :meth:`checks` holds, else PromiseViolated."""
        if all(c.passed for c in self.checks(tol, below, above, value_tol=value_tol)):
            return self.side(tol if value_tol is None else value_tol, below, above)
        return DecisionValue.PROMISE_VIOLATED


def _meets(lo: float, hi: float, intervals, tol: float) -> bool:
    """[lo, hi] meets one of the closed ``intervals``, each widened by ``tol``."""
    return any(start - tol <= hi and lo <= end + tol for start, end in intervals)


def _output(inst: ProblemInstance, q: float | complex | None) -> Output:
    """The Output clause of ``inst``'s kind at decision quantity ``q``: the
    one place where a kind's quantity becomes the value compared with b.  A
    singular MATINV-family matrix (``q`` None) has no entry to compare: its
    one clause, "A invertible" (measured 0), holds nowhere."""
    kind, p, inf = inst.kind, inst.params, math.inf
    exact = (("|b| <= kappa", p.kappa, abs(inst.b), ((-inf, p.kappa),)),) if kind is Kind.V_MATINV else ()
    if q is None:
        nowhere = (inf, -inf)
        return Output(0.0, nowhere, nowhere, exact, (("A invertible", 1.0, ()),))
    if kind is Kind.SINGULAR or kind in VERIFICATION_KINDS:
        one, zero = (-inf, 0.0), (p.epsilon, inf)
        if kind is Kind.SINGULAR:
            return Output(float(q), one, zero, (), (
                ("sigma_min in {0} u [eps, 1]", p.epsilon, (one, (p.epsilon, 1.0))),))
        return Output(abs(q - inst.b), one, zero, exact, (
            ("|quantity - b| in {0} u [eps, 2*kappa]", p.epsilon, (one, zero)),
            ("|quantity - b| <= 2*kappa", 2 * p.kappa, ((-inf, 2 * p.kappa),)),
        ))
    b = float(np.real(inst.b))
    one, zero = (b, inf), (-inf, b - p.epsilon)
    if kind in (Kind.DET, Kind.DET_PLUS):
        b_range = (-inf, 0.0)
        return Output(float(q), one, zero, (("b <= 0", 0.0, b, (b_range,)),), (
            ("log|det| in (-inf, b-eps] u [b, 0]", b, (one, zero)),
            ("log|det| <= 0", 0.0, ((-inf, 0.0),)),
        ), b_range)
    # the entry kinds compare the entry's magnitude (a reduced MATINV+ entry
    # may carry a phase), except ITMATPROD>=0, whose entry is promised real
    real = kind is Kind.ITMATPROD_NONNEG
    entry = float(np.real(q)) if real else float(abs(q))
    cap, b_range = p.kappa * (len(inst.E) if kind is Kind.SUMITMATPROD else 1), (0.0, inf)
    zero = (0.0, b - p.epsilon)  # a magnitude, or the entry ITMATPROD>=0 promises nonnegative
    realness = (("entry is real nonnegative", 0.0, float(abs(np.imag(q))), ((-inf, 0.0),)),) if real else ()
    return Output(entry, one, zero, (*realness, ("b >= 0", 0.0, b, (b_range,))), (
        ("quantity in [0, b-eps] u [b, cap]", b, (one, zero)),
        ("quantity <= cap", cap, ((-inf, cap),)),
    ), b_range)


def spectral_checks(kind: Kind, spec: Spectrum, kappa: float, tol: float) -> list[PromiseCheck]:
    """The spectral clauses of a one-matrix kind, read on its matrix's
    record: A Hermitian and sigma1 <= 1 for SINGULAR; sigma1 <= 1 and
    sigma_min >= 1/kappa for the others, and for DET+ and MATINV+ also H
    Hermitian and, when it is, H positive definite: lambda_min > 0, a sign
    that no tol moves (its size is the sigma_min clause's), so a larger tol
    makes no clause stricter."""
    s1, sn, herm = float(spec.sigma[0]), float(spec.sigma[-1]), spec.defect
    sigma1 = PromiseCheck("sigma1 <= 1", 1.0, s1, s1 <= 1 + tol)
    if kind is Kind.SINGULAR:
        return [PromiseCheck("A Hermitian", tol, herm, herm <= tol), sigma1]
    checks = [sigma1, PromiseCheck("sigma_min >= 1/kappa", 1.0 / kappa, sn, sn >= 1.0 / kappa - tol)]
    if kind in POSITIVE_KINDS:
        checks.append(PromiseCheck("H Hermitian", tol, herm, herm <= tol))
        if herm <= tol:
            lam_min = float(spec.lam[-1])
            checks.append(PromiseCheck("H positive definite", 0.0, lam_min, lam_min > 0.0))
    return checks


def _conditioning(inst: ProblemInstance, tol: float) -> list[PromiseCheck]:
    """The conditioning clauses of ``inst``'s kind."""
    kind, kappa = inst.kind, inst.params.kappa
    if kind in PRODUCT_KINDS or kind in (Kind.MATPOW, Kind.V_MATPOW):
        name = "sigma1(all partial products) <= kappa" if kind in PRODUCT_KINDS else "sigma1(A^j) <= kappa for j in [m]"
        return [PromiseCheck(name, kappa, inst.sigma1_sweep, inst.sigma1_sweep <= kappa + tol)]
    return spectral_checks(kind, inst.spectrum, kappa, tol)


def check_promise(inst: ProblemInstance, tol: float = DEFAULT_TOL) -> PromiseReport:
    """Measure every Promise clause: its kind's conditioning, then its Output clause's."""
    return PromiseReport(tuple(_conditioning(inst, tol) + _output(inst, inst.quantity).checks(tol)))


def oracle_decide(
    inst: ProblemInstance, tol: float = DEFAULT_TOL, check: str = "full", *, value_tol: float | None = None
) -> Decision:
    """Ground-truth decision: the instance's decision quantity (a sparse or
    dense LU, or a row sweep through the stored factors; see
    :attr:`ProblemInstance.quantity`) placed on its kind's Output clause by
    :meth:`Output.decide`, with the same ``tol`` that the promise check uses.

    ``check`` selects how much of the promise is verified first: "full" runs
    every clause (singular-value sweeps included), "gap" only the Output
    clause's own statements (b's range, vMATINV's |b| <= kappa and the
    decision quantity in its promised two-sided interval), "none" skips
    straight to the comparison.  Conditioning clauses of reduced instances
    are covered by the per-rule bound suite, so chain-level callers use
    "gap" to stay within time budgets on large compositions.  The statements
    about the compared value are read at ``value_tol`` if given, else ``tol``.
    """
    if check not in ("full", "gap", "none"):
        raise ValueError("check must be 'full', 'gap' or 'none'")
    q, value_tol = inst.quantity, tol if value_tol is None else value_tol
    out = _output(inst, q)
    if check == "none":
        return Decision(out.side(value_tol), q)
    kept = check == "gap" or all(c.passed for c in _conditioning(inst, tol))
    return Decision(out.decide(tol, value_tol=value_tol) if kept else DecisionValue.PROMISE_VIOLATED, q)


# ---------------------------------------------------------------------------
# generators


def _conditioned(n: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """A = U diag(sigma) V^dag with every singular value drawn uniformly
    from [lo, hi], so instance families stay varied at small n."""
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
    margin, where = None, {}

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

    if kind in (Kind.DET, Kind.DET_PLUS):
        # b <= 0 forces Zero-instances to have log|det| <= -eps - margin, so
        # the margin is fixed before the matrix is drawn
        margin = B_MARGIN * max(1.0, eps)
        if want_one:
            hi = 1.0
        else:
            hi = math.exp(-(eps + 2 * margin) / n)
            if hi < 1.0 / kappa:
                raise InfeasibleParams(
                    f"DET zero-instance needs eps <= n*ln(kappa); got eps={eps}, n={n}, kappa={kappa}"
                )
        draw = _conditioned if kind is Kind.DET else _hermitian_posdef
        mats = (draw(n, 1.0 / kappa, hi, rng),)
    elif kind in (Kind.MATINV, Kind.V_MATINV, Kind.MATPOW, Kind.V_MATPOW):
        powered = kind in (Kind.MATPOW, Kind.V_MATPOW)
        mats = (_contraction(n, rng) if powered else _conditioned(n, 1.0 / kappa, 1.0, rng),)
        where = dict(s=int(rng.integers(1, n + 1)), t=int(rng.integers(1, n + 1)))
    elif kind is Kind.MATINV_PLUS:
        mats = (_hermitian_posdef(n, 1.0 / kappa, 1.0, rng),)
        s = int(rng.integers(1, n + 1))  # diagonal entry: real, >= 1
        where = dict(s=s, t=s)
    elif kind in (Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, Kind.V_ITMATPROD):
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
        where = dict(s=s, t=t)
    else:  # SUMITMATPROD
        mats = tuple(_contraction(n, rng) for _ in range(m))
        n_pairs = int(rng.integers(1, n * n + 1))
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        picks = rng.choice(len(all_pairs), size=n_pairs, replace=False)
        where = dict(E=tuple(all_pairs[i] for i in sorted(picks)))

    # place b against the value the kind's Output clause compares with it,
    # on the wanted side and inside b's range; the quantity does not depend
    # on b, so the placed instance keeps it
    inst = ProblemInstance(kind, params, mats, b=0.0, **where)
    q = inst.quantity
    if kind in VERIFICATION_KINDS:
        b = _place_verification_b(q, want_one, eps, cap=kappa if kind is Kind.V_MATINV else None)
    else:
        out = _output(inst, q)
        if margin is None:
            margin = B_MARGIN * max(1.0, abs(out.value), eps)
        lo, hi = out.b_range
        b = max(lo, out.value - margin) if want_one else out.value + eps + margin
        if b > hi:
            raise InfeasibleParams(f"computed b={b} > {hi} for {kind.value}")
    placed = replace(inst, b=b)
    vars(placed)["quantity"] = q
    return placed


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
