"""Instance-to-instance reductions between the promise problems.

Each rule maps an instance of one problem kind to an instance of another so
that (i) the decision is preserved, (ii) a closed-form identity ties the
output's decision quantity to the input's, and (iii) the conditioning bounds
of the output follow from those of the input by explicit formulas.  Every
rule returns the transformed instance together with a :class:`ReductionRecord`
carrying the parameter map and the declared singular-value bounds;
:func:`measure_record` fills in the measured values for verification.

A rule is one ``_rule(...)`` entry in :data:`RULES` plus its builder.  The
entry names the rule, gives its input and output kinds and states its map f
on the decision quantity (``inst.quantity``), with the remainder interval
that a series rule adds (:class:`AnswerMap`).  From that one statement come
b_hat, the defining identity |q_hat - f(q)|, the remainder bounds, the
record's answer-map text and the tolerance a target is read at
(:func:`carried_tol`).  The builder makes the target with the output kind
and b_hat it is given and returns only the target.  The record's bounds are
the conditioning the target's kind promises at the kappa_hat in its
parameters (:func:`_conditioning`), then the rule's own bounds and the
remainder's, each with the function that measures it; the verification
variants reuse the base builders.

Every block matrix a rule builds out of its input's matrices, identities
and scalars is stated as a layout, a list of blocks and their positions, and
assembled by one helper, :func:`_block_matrix`, straight into its stored
form: a canonical CSC made in one column-ordered pass when it is nearly
empty, else a dense array with its blocks written through slices.  All block
constructions use the convention that ``s``, ``t`` and ``E`` are 1-based.

Two printed-form corrections are applied deliberately:

* the telescoping construction of ``sumitmatprod_to_itmatprod`` conjugates
  only the first factor on the left and the last on the right (conjugating
  every factor does not telescope to the desired sum);
* the Neumann index set of ``posmatinv_to_sumitmatprod`` includes the j = 0
  diagonal block, without which the partial sums miss the identity term.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import _frozen, adjoint, as_form, dense_form, gram, identity_minus, nonzeros, svd_values
from .problems import POSITIVE_KINDS, PRODUCT_KINDS, ConditionParams, Kind, ProblemInstance
from .series import PromiseViolation, log_series, logdet_terms, neumann_series, neumann_terms
from .series import log_count as _log_count

#: measures one quantity of one application (source, target); None if a decision quantity it needs does not exist
Measure = Callable[[ProblemInstance, ProblemInstance], float | None]


@dataclass(frozen=True)
class Bound:
    """One declared bound; ``upper`` tells which way it points, and
    ``measure(src, dst)`` computes the bounded quantity of one application."""

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
    """One application's record: ``map`` is the rule's :class:`AnswerMap`
    for this source and ``b`` the source's threshold."""

    rule: str
    input_params: ConditionParams
    output_params: ConditionParams
    map: AnswerMap = field(compare=False, repr=False)
    b: float | complex
    declared_bounds: tuple[Bound, ...] = ()


@dataclass(frozen=True)
class AnswerMap:
    """How one application moves the decision quantity q, and b with it.

    The target's quantity is f(q) + r, r in ``remainder`` ((0, 0) for an
    exact rule), so b_hat = f(b) + the remainder's low end.  f is increasing,
    on the nonnegative numbers alone if ``nonneg`` (|q|^2 and ln(1+q) on the
    entries); ``text`` states it.  A series rule's target sums the truncation
    ``series(src, dst)`` of q exactly.  ``f`` is None for a rule whose target
    has no b (vmatinv_to_singular).
    """

    f: Callable | None
    text: str
    nonneg: bool = False
    remainder: tuple[float, float] = (0.0, 0.0)
    series: Callable[[ProblemInstance, ProblemInstance], complex] | None = None

    def carry(self, b, tol: float) -> float:
        """The image of [b - tol, b + tol] under f on its narrower side, so a
        target's value is never read more leniently than its source's; ``tol``
        itself if f is None."""
        if self.f is None:
            return tol
        b = float(np.real(b))
        return min(self.f(b + tol) - self.f(b), self.f(b) - self.f(max(b - tol, 0.0) if self.nonneg else b - tol))

    def offset(self, src: ProblemInstance, dst: ProblemInstance, part=abs, series: bool = False) -> float | None:
        """part(q_hat - f(x)), x the source's quantity or, with ``series``, the
        truncation the target sums; None when a quantity does not exist."""
        x = self.series(src, dst) if series else src.quantity
        return None if x is None or dst.quantity is None else float(part(dst.quantity - self.f(x)))

    def bounds(self) -> tuple[Bound, ...]:
        """The remainder's bounds, on r = q_hat - f(q): |r| <= hi for a
        symmetric interval, else lo <= Re r <= hi."""
        lo, hi = self.remainder
        if lo == -hi:
            return (Bound("|series remainder|", hi, measure=self.offset),) if hi else ()
        real = functools.partial(self.offset, part=np.real)
        return Bound("series remainder", hi, measure=real), Bound("series remainder", lo, upper=False, measure=real)


def _map(f: Callable, form: str, lhs: str, rhs: str, nonneg=False, remainder=(0.0, 0.0), series=None) -> AnswerMap:
    """f, with text ``form`` ({} its argument), from ``rhs``, the source's quantity, to ``lhs``, the target's."""
    lo, hi = remainder
    shift = f" {'-+'[lo > 0]} {abs(lo):.12g}" if lo else ""
    text = f"b_hat = {form.format('b')}{shift}; {lhs} = {form.format(rhs)}"
    return AnswerMap(f, text + (f" + r, r in [{lo:.12g}, {hi:.12g}]" if hi else ""), nonneg, remainder, series)


def _affine(a, c, lhs: str, rhs: str, remainder=(0.0, 0.0), series=None) -> AnswerMap:
    """f(q) = a*q + c."""
    form = ("{}" if a == 1 else f"{a}*{{}}") + (f" + {c:.12g}" if c else "")
    return _map(lambda q: a * q + c, form, lhs, rhs, remainder=remainder, series=series)


def _sigma1(src: ProblemInstance, dst: ProblemInstance) -> float:
    return dst.spectrum.sigma[0]


def _inverse_sigma1(src: ProblemInstance, dst: ProblemInstance) -> float:
    """sigma1(A_hat^-1) as 1/sigma_min, or 1/lambda_min for DET+ and MATINV+ (so
    that the bound states H > 0); +inf where that value is <= 0."""
    low = float((dst.spectrum.lam if dst.kind in POSITIVE_KINDS else dst.spectrum.sigma)[-1])
    return 1.0 / low if low > 0.0 else math.inf


def _conditioning(dst: ProblemInstance) -> tuple[Bound, ...]:
    """The conditioning a target of ``dst``'s kind promises at its kappa_hat:
    the partial-product or power sweep <= kappa_hat; else sigma1 <= 1 and,
    unless it is SINGULAR, sigma1(A_hat^-1) <= kappa_hat."""
    kind, kappa = dst.kind, dst.params.kappa
    if kind in PRODUCT_KINDS or kind in (Kind.MATPOW, Kind.V_MATPOW):
        name = "sigma1(all partial products)" if kind in PRODUCT_KINDS else "sigma1(A_hat^j), j in [m]"
        return (Bound(name, kappa, measure=lambda _, dst: dst.sigma1_sweep),)
    top = Bound("sigma1(A_hat)", 1.0, measure=_sigma1)
    return (top,) if kind is Kind.SINGULAR else (top, Bound("sigma1(A_hat^-1)", kappa, measure=_inverse_sigma1))


#: one n x n block of a layout: (block row, block column, sign, block), where
#: the block is a number c, standing for c*I, or a matrix (dense or sparse)
Block = tuple[int, int, int, object]

#: the share of nonzeros up to which :func:`_block_matrix` stores in CSC form
SPARSE_DENSITY = 1 / 64


def _block_matrix(n: int, k: int, sources: tuple, layout: Callable[..., list[Block]], *,
                  scale: tuple[np.ufunc, float] | None = None):
    """The kn x kn block matrix B that ``layout(*sources)`` lists, or
    ``ufunc(B, c)`` for ``scale`` = (ufunc, c).

    The blocks do not overlap.  Each is read, added to zero (``0 - x``, not
    ``-x``, where its sign is negative, so zero parts stay +0.0) and scaled
    once per sign.  If the sources, each counted once, and the diagonal fill
    more than :data:`SPARSE_DENSITY` of B, each block is written through a
    slice of one zeroed array.  Otherwise the blocks' column-ordered entries,
    in block-row order, are merged by one stable sort on the column into a
    frozen canonical CSC, which an instance adopts.  Both hold the same bits.
    """
    dim = n * k
    dense = dim + sum(nonzeros(a) for a in sources) > SPARSE_DENSITY * dim * dim
    out = np.zeros((dim, dim), dtype=np.complex128) if dense else None
    rows, cols, vals, done = [], [], [], {}
    for i, j, sign, block in sorted(layout(*sources), key=lambda b: b[0]):
        placed = done.get((id(block), sign))
        if placed is None:
            *at, v = _entries(block, n, dense)
            v = np.subtract(0.0, v) if sign < 0 else np.add(0.0, v)
            placed = done[id(block), sign] = *at, v if scale is None else scale[0](v, scale[1], out=v)
        if not dense:
            rows.append(placed[0] + i * n)
            cols.append(placed[1] + j * n)
            vals.append(placed[2])
        elif placed[0].ndim == 1:  # c*I, on the tile's diagonal
            out.reshape(-1)[i * n * dim + j * n::dim + 1][:n] = placed[0]
        else:
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = placed[0]
    del done  # with the layout, freed before the output is assembled
    if dense:
        return out
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate(vals)
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=dim), out=indptr[1:])
    del cols  # not held through the two gathers below
    rows, vals = rows[order], vals[order]
    from scipy import sparse

    return as_form(_frozen(sparse.csc_array((vals, rows, indptr), shape=(dim, dim))))


def _entries(block, n: int, dense: bool) -> tuple[np.ndarray, ...]:
    """A block's complex entries (a number c is c*I): for a dense B its diagonal
    or the whole block, else int64 rows and columns and values in column order."""
    if np.isscalar(block):
        v = np.full(n, block, dtype=np.complex128)
        return (v,) if dense else (np.arange(n), np.arange(n), v)
    if dense:
        return (np.asarray(dense_form(block), dtype=np.complex128),)
    if isinstance(block, np.ndarray):
        col, r = np.nonzero(block.T)
        return r, col, block[r, col].astype(np.complex128, copy=False)
    if block.format != "csc" or not block.has_canonical_format:
        block = block.tocsc(copy=True)
        block.sum_duplicates()
    col = np.repeat(np.arange(n), np.diff(block.indptr))
    return block.indices.astype(np.int64, copy=False), col, block.data.astype(np.complex128, copy=False)


# ---------------------------------------------------------------------------
# product / powering / inversion chain


def _itmatprod_to_matpow(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, m = p.n, p.m
    # A_1, ..., A_m immediately above the diagonal blocks
    big = _block_matrix(n, m + 1, inst.forms, layout=lambda *a: [(r, r + 1, 1, a[r]) for r in range(m)])
    out_params = ConditionParams(n * (m + 1), m, p.kappa, p.epsilon)
    return ProblemInstance(kind, out_params, (big,), s=inst.s, t=n * m + inst.t, b=b_hat)


def _matpow_to_matinv(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, m = p.n, p.m
    c = math.ceil(1.0 + p.kappa)
    # Z = (I - superdiag(A, ..., A)) / c
    z = _block_matrix(
        n, m + 1, inst.forms, scale=(np.divide, c),
        layout=lambda a: [(r, r, 1, 1.0) for r in range(m + 1)] + [(r, r + 1, -1, a) for r in range(m)],
    )
    out_params = ConditionParams(n * (m + 1), 1, (1.0 + m * p.kappa) * c, c * p.epsilon)
    return ProblemInstance(kind, out_params, (z,), s=inst.s, t=n * m + inst.t, b=b_hat)


def _matinv_to_posmatinv(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n = p.n
    # H = [[A^dag A, -A^dag], [-A, 2I]] / 3, with A^dag built once; the
    # layout alone holds it, so it is freed before H is assembled
    h = _block_matrix(
        n, 2, inst.forms, scale=(np.divide, 3.0),
        layout=lambda a: [
            (0, 0, 1, gram(a, left=True, adj=(adj := adjoint(a)))), (0, 1, -1, adj), (1, 0, -1, a), (1, 1, 1, 2.0),
        ],
    )
    out_params = ConditionParams(2 * n, 1, (3.0 * p.kappa) ** 2, 3.0 * p.epsilon)
    return ProblemInstance(kind, out_params, (h,), s=inst.s, t=inst.t + n, b=b_hat)


# ---------------------------------------------------------------------------
# determinant chain


def _posdet_to_sumitmatprod(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, kappa, eps = p.n, p.kappa, p.epsilon
    l_hat = _log_count(kappa)
    m_hat = logdet_terms(n, kappa, eps)
    x = identity_minus(inst.forms[0])
    dim = n * (l_hat + m_hat)
    # k-th factor: identity on the first l_hat + (k-1) diagonal blocks, then
    # I - H on the rest; the first factor instead carries -(I-H)/(j+1) in
    # block l_hat + j, the weights of the log series; the first l_hat blocks
    # add n*l_hat to the diagonal sum
    mats = tuple(
        _block_matrix(
            n, l_hat + m_hat, (x,),
            layout=lambda x: [(r, r, 1, 1.0) for r in range(l_hat)] + [
                (l_hat + j, l_hat + j, -1, x / (j + 1)) if k == 1
                else (l_hat + j, l_hat + j, 1, x if j >= k - 1 else 1.0)
                for j in range(m_hat)
            ],
        )
        for k in range(1, m_hat + 1)
    )
    pairs = tuple((d, d) for d in range(1, dim + 1))
    out_params = ConditionParams(dim, m_hat, 1.0, eps / 2.0)
    return ProblemInstance(kind, out_params, mats, E=pairs, b=b_hat)


def _itmatprod_to_nonneg(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, m = p.n, p.m
    # |t><t|, laid out in n blocks of size 1
    mid = _block_matrix(1, n, (), layout=lambda: [(inst.t - 1, inst.t - 1, 1, 1.0)])
    mats = inst.forms + (mid,) + tuple(adjoint(a) for a in reversed(inst.forms))
    out_params = ConditionParams(n, 2 * m + 1, p.kappa**2, p.epsilon**2)
    return ProblemInstance(kind, out_params, mats, s=inst.s, t=inst.s, b=b_hat)


def _nonneg_to_det(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    if b_hat > 0:
        raise ValueError("degenerate corner: rescaled determinant threshold above 1")
    p = inst.params
    n, m, kappa = p.n, p.m, p.kappa
    # |t><s|, laid out in n blocks of size 1
    bump = _block_matrix(1, n, (), layout=lambda: [(inst.t - 1, inst.s - 1, 1, 1.0)])
    # C = exp(-l_hat) (I - superdiag(A_1, ..., A_m) + |nm+t><s|)
    c_hat = _block_matrix(
        n, m + 1, inst.forms, scale=(np.multiply, math.exp(-_log_count(2.0 + kappa))),
        layout=lambda *a: [(r, r, 1, 1.0) for r in range(m + 1)]
        + [(r, r + 1, -1, a[r]) for r in range(m)] + [(m, 0, 1, bump)],
    )
    out_params = ConditionParams(n * (m + 1), 1, (2.0 + m * kappa) ** 3, p.epsilon / (2.0 + 2.0 * kappa))
    return ProblemInstance(kind, out_params, (c_hat,), b=b_hat)


def _rank_one_map(p: ConditionParams) -> AnswerMap:
    """det C = 1 + A_{1,m}[s,t], and each of C_hat's n(m+1) rows is C's scaled by exp(-l_hat)."""
    l_hat, big_n = _log_count(2.0 + p.kappa), p.n * (p.m + 1)
    return _map(lambda q: math.log1p(float(np.real(q))) - l_hat * big_n,
                f"ln(1+{{}}) - {l_hat}*{big_n}", "ln|det C_hat|", "A_{1,m}[s,t]", nonneg=True)


def _det_to_posdet(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    h = gram(inst.forms[0], left=False)
    # the declared gap parameter is eps/2 although squaring the
    # determinant doubles the realized log gap
    out_params = ConditionParams(p.n, 1, p.kappa**2, p.epsilon / 2.0)
    return ProblemInstance(kind, out_params, (h,), b=b_hat)


def _posmatinv_to_sumitmatprod(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, kappa, eps = p.n, p.kappa, p.epsilon
    m_hat = neumann_terms(kappa, eps)
    x = identity_minus(inst.forms[0])
    dim = n * (m_hat + 1)
    # j-th factor: identity on the first j diagonal blocks, then I - H
    mats = tuple(
        _block_matrix(
            n, m_hat + 1, (x,), layout=lambda x: [(r, r, 1, 1.0 if r < j else x) for r in range(m_hat + 1)]
        )
        for j in range(1, m_hat + 1)
    )
    # j = 0 included so the diagonal picks up the identity term of the series
    pairs = tuple((inst.s + j * n, inst.t + j * n) for j in range(m_hat + 1))
    out_params = ConditionParams(dim, m_hat, 1.0, eps / 2.0)
    return ProblemInstance(kind, out_params, mats, E=pairs, b=b_hat)


def _exchanged(n: int, a: int) -> np.ndarray:
    """The indices 0..n-1 with 0 and a - 1 exchanged: T_{1,a} as an index permutation."""
    idx = np.arange(n)
    idx[[0, a - 1]] = a - 1, 0
    return idx


def _sumitmatprod_to_itmatprod(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, m = p.n, p.m
    n_e = len(inst.E)

    # fan-out R (x) I, with R the identity plus ones along its first row, and its adjoint
    diag = [(i, i, 1, 1.0) for i in range(n_e)]
    fan = _block_matrix(n, n_e, (), layout=lambda: diag + [(0, i, 1, 1.0) for i in range(1, n_e)])
    fan_adj = _block_matrix(n, n_e, (), layout=lambda: diag + [(i, 0, 1, 1.0) for i in range(1, n_e)])
    # route entry (s,t) of each summand to (1,1): exchange rows 1 and s of its
    # first factor and columns 1 and t of its last
    summands = [list(inst.forms) for _ in inst.E]
    for g, (s, t) in zip(summands, inst.E):
        g[0] = g[0][_exchanged(n, s)]
        g[-1] = g[-1][:, _exchanged(n, t)]
    mats = (fan,) + tuple(
        _block_matrix(n, n_e, (a,), layout=lambda _: [(i, i, 1, g[j]) for i, g in enumerate(summands)])
        for j, a in enumerate(inst.forms)
    ) + (fan_adj,)
    out_params = ConditionParams(n * n_e, m + 2, 2.0 * n_e * p.kappa, p.epsilon)
    return ProblemInstance(kind, out_params, mats, s=1, t=1, b=b_hat)


# ---------------------------------------------------------------------------
# verification chain


def _singular_b(inst: ProblemInstance) -> np.ndarray:
    """B_hat = diag(2cA, 1/(1 - b/(2c))) with c = ceil(kappa), for a vMATINV input."""
    n, c = inst.params.n, math.ceil(inst.params.kappa)
    b_mat = np.zeros((n + 1, n + 1), dtype=np.complex128)
    b_mat[:n, :n] = 2.0 * c * dense_form(inst.forms[0])
    b_mat[n, n] = 1.0 / (1.0 - complex(inst.b) / (2.0 * c))
    return b_mat


def _vmatinv_to_singular(inst: ProblemInstance, kind: Kind, b_hat) -> ProblemInstance:
    p = inst.params
    n, kappa = p.n, p.kappa
    b = complex(inst.b)
    if abs(b) > kappa:
        raise PromiseViolation(f"|b| = {abs(b):.4g} exceeds kappa; instance is promise-violating")
    c = math.ceil(kappa)
    c_mat = _singular_b(inst)
    c_mat[np.ix_([inst.t - 1, n], [inst.s - 1, n])] -= 1.0  # B_hat - v u^dag, u = e_s + e_{n+1}, v = e_t + e_{n+1}
    # H_hat = [[0, C_hat], [C_hat^dag, 0]] / (2c + 1), stored dense whatever
    # its fill: SINGULAR is read through the SVD of its dense form
    h = dense_form(_block_matrix(n + 1, 2, (c_mat,), layout=lambda a: [(0, 1, 1, a), (1, 0, 1, a.conj().T)],
                                 scale=(np.multiply, 1.0 / (2.0 * c + 1.0))))
    # sigma_{n+1}(B_hat) >= 2/3 for every |b| <= ceil(kappa), which is weaker
    # than the 2/sqrt(5) available for Re(b) >= 0 but valid on the whole
    # promise; the output gap shrinks accordingly
    eps_hat = (2.0 / 3.0) * p.epsilon / (c * (2.0 * c + 1.0) ** 2)
    out_params = ConditionParams(2 * n + 2, 1, 1.0, eps_hat)
    return ProblemInstance(kind, out_params, (h,))


def _singular_identity(src: ProblemInstance, dst: ProblemInstance) -> float | None:
    """det(C_hat) = (b - A^-1[s,t])/(2c) * det(B_hat), relative to max(1, |det B_hat|)."""
    if src.quantity is None:
        return None
    c, n = math.ceil(src.params.kappa), src.params.n
    c_hat = dense_form(dst.forms[0])[: n + 1, n + 1 :] * (2 * c + 1)
    det_b = np.linalg.det(_singular_b(src))
    want = (complex(src.b) - src.quantity) / (2 * c) * det_b
    return float(abs(np.linalg.det(c_hat) - want) / max(1.0, abs(det_b)))


# ---------------------------------------------------------------------------
# registry, chaining, measurement


@dataclass(frozen=True)
class Rule:
    """A reduction: ``apply`` maps an instance of ``input_kind`` to one of
    ``output_kind`` and its record, and ``identity`` is the residual of its
    defining identity, on independently evaluated decision quantities."""

    name: str
    input_kind: Kind
    output_kind: Kind
    apply: Callable[[ProblemInstance], tuple[ProblemInstance, ReductionRecord]] = field(repr=False)
    identity: Measure = field(repr=False)


def _check_input(name: str, want: Kind, got: Kind) -> None:
    if got is not want:
        raise ValueError(f"rule {name} expects {want.value}, got {got.value}")


def _rule(name: str, input_kind: Kind, output_kind: Kind, build: Callable[..., ProblemInstance],
          answer: Callable[[ConditionParams], AnswerMap], identity: Measure | None = None,
          bounds: Callable[[ProblemInstance], tuple[Bound, ...]] = lambda inst: ()) -> Rule:
    """The rule ``name``: ``answer`` states its map, ``build(inst,
    output_kind, b_hat)`` makes its target, and ``apply`` checks the input
    kind and writes the record, whose bounds are the target's conditioning
    at its kappa_hat, ``bounds(inst)``, the rule's own, and the map's
    remainder.  Unless one is given, the identity is |q_hat - f(q)|, with
    the truncation in place of q for a series rule."""

    def apply(inst: ProblemInstance) -> tuple[ProblemInstance, ReductionRecord]:
        _check_input(name, input_kind, inst.kind)
        try:
            m = answer(inst.params)
            out = build(inst, output_kind, None if m.f is None else m.f(inst.b) + m.remainder[0])
        except OverflowError as exc:  # a float ``**`` past the largest double
            raise ValueError(f"rule {name}: output parameters overflow") from exc
        return out, ReductionRecord(name, inst.params, out.params, m, inst.b,
                                    _conditioning(out) + bounds(inst) + m.bounds())

    def mapped(src: ProblemInstance, dst: ProblemInstance) -> float | None:
        return (m := answer(src.params)).offset(src, dst, series=m.series is not None)

    return Rule(name, input_kind, output_kind, apply, identity or mapped)


#: the builder and map of the powering and inversion steps, shared with their verification variants
_POWER = (_itmatprod_to_matpow, lambda p: _affine(1, 0, "A_hat^m[s, nm+t]", "A_{1,m}[s,t]"))
_INVERSE = (_matpow_to_matinv, lambda p: _affine(math.ceil(1 + p.kappa), 0, "Z_hat^-1[s, nm+t]", "A^m[s,t]"))

RULES: dict[str, Rule] = {
    r.name: r
    for r in (
        _rule("itmatprod_to_matpow", Kind.ITMATPROD, Kind.MATPOW, *_POWER),
        _rule("matpow_to_matinv", Kind.MATPOW, Kind.MATINV, *_INVERSE),
        _rule("matinv_to_posmatinv", Kind.MATINV, Kind.MATINV_PLUS, _matinv_to_posmatinv,
              lambda p: _affine(3, 0, "H_hat^-1[s, t+n]", "A^-1[s,t]")),
        _rule("posdet_to_sumitmatprod", Kind.DET_PLUS, Kind.SUMITMATPROD, _posdet_to_sumitmatprod,
              lambda p: _affine(1, p.n * _log_count(p.kappa), "sum over E", "ln det H", (0.0, p.epsilon / 2.0),
                                lambda src, dst: -log_series(src.forms[0], dst.params.m))),
        _rule("itmatprod_to_nonneg", Kind.ITMATPROD, Kind.ITMATPROD_NONNEG, _itmatprod_to_nonneg,
              lambda p: _map(lambda q: abs(q) ** 2, "|{}|^2", "A_hat_{1,2m+1}[s,s]", "A_{1,m}[s,t]", nonneg=True)),
        _rule("nonneg_to_det", Kind.ITMATPROD_NONNEG, Kind.DET, _nonneg_to_det, _rank_one_map),
        _rule("det_to_posdet", Kind.DET, Kind.DET_PLUS, _det_to_posdet,
              lambda p: _affine(2, 0, "ln det H_hat", "ln|det A|")),
        _rule("posmatinv_to_sumitmatprod", Kind.MATINV_PLUS, Kind.SUMITMATPROD, _posmatinv_to_sumitmatprod,
              lambda p: _affine(1, 0, "sum over E", "H^-1[s,t]", (-p.epsilon / 4.0, p.epsilon / 4.0),
                                lambda src, dst: neumann_series(src.forms[0], src.s, src.t, dst.params.m))),
        _rule("sumitmatprod_to_itmatprod", Kind.SUMITMATPROD, Kind.ITMATPROD, _sumitmatprod_to_itmatprod,
              lambda p: _affine(1, 0, "A_hat_{0,m+1}[1,1]", "sum over E of A_{1,m}[s,t]"),
              bounds=lambda inst: (Bound("sigma1(fan-out factor)", math.sqrt(2.0 * len(inst.E)), measure=_sigma1),)),
        # a sigma_min test has no b: this rule maps no quantity, and its end is read at the source's tol
        _rule("vmatinv_to_singular", Kind.V_MATINV, Kind.SINGULAR, _vmatinv_to_singular, lambda p: AnswerMap(
            None, "sigma_min(H_hat) = 0 iff A^-1[s,t] = b; "
            "det(C_hat) = (b - A^-1[s,t])/(2*ceil(kappa)) * det(B_hat)"), _singular_identity,
              bounds=lambda inst: (Bound("sigma_{n+1}(B_hat)", 2.0 / 3.0, upper=False,
                                         measure=lambda src, _: svd_values(_singular_b(src))[-1]),)),
        _rule("vitmatprod_to_vmatpow", Kind.V_ITMATPROD, Kind.V_MATPOW, *_POWER),
        _rule("vmatpow_to_vmatinv", Kind.V_MATPOW, Kind.V_MATINV, *_INVERSE),
    )
}

#: the two reduction cycles, each returning to its starting kind
MATINV_PLUS_CYCLE = ("posmatinv_to_sumitmatprod", "sumitmatprod_to_itmatprod", "itmatprod_to_matpow",
                     "matpow_to_matinv", "matinv_to_posmatinv")
DET_PLUS_CYCLE = ("posdet_to_sumitmatprod", "sumitmatprod_to_itmatprod", "itmatprod_to_nonneg", "nonneg_to_det",
                  "det_to_posdet")


def chain(inst: ProblemInstance, path: list[str] | tuple[str, ...]) -> tuple[ProblemInstance, list[ReductionRecord]]:
    """Compose rules; an empty path is the identity.  The path is type-checked
    before any work, so an ill-typed request fails fast, not half-way through."""
    kind = inst.kind
    for name in path:
        if name not in RULES:
            raise KeyError(f"unknown rule {name!r}; known: {sorted(RULES)}")
        _check_input(name, RULES[name].input_kind, kind)
        kind = RULES[name].output_kind
    records: list[ReductionRecord] = []
    current = inst
    for name in path:
        current, rec = RULES[name].apply(current)
        records.append(rec)
    return current, records


def carried_tol(records: list[ReductionRecord], tol: float) -> float:
    """The tolerance a chain end's value is read at (``value_tol`` of ``oracle_decide``) when its
    source is read at ``tol``: ``tol`` carried through the answer map of each record in turn."""
    return functools.reduce(lambda carried, rec: rec.map.carry(rec.b, carried), records, tol)


def identity_residual(rule: str, src: ProblemInstance, dst: ProblemInstance) -> float | None:
    """Residual of the rule's defining algebraic identity, evaluating the
    source and target decision quantities independently; None when one of
    them does not exist (an exactly singular matrix)."""
    return RULES[rule].identity(src, dst)


def measure_record(record: ReductionRecord, src: ProblemInstance, dst: ProblemInstance) -> ReductionRecord:
    """Fill in measured values for every declared bound of one application
    (None where the bound needs a decision quantity that does not exist)."""
    measured = tuple(replace(b, measured=None if (v := b.measure(src, dst)) is None else float(v))
                     for b in record.declared_bounds)
    return replace(record, declared_bounds=measured)
