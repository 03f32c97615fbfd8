"""One running-product kernel for every iterated product.

``matcore.running_products`` sweeps a dense block of rows through the
factors as they are stored.  The MATPOW, ITMATPROD-family and SUMITMATPROD
quantities, the partial-product and power promise measures and the series
terms all go through it.  Here it is checked against the textbook formulas
(``multi_dot``, ``matrix_power``, the dense power loops the series used to
run), and the cycle walks show that no decision but SINGULAR's densifies an
instance.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from condred.matcore import random_unitary, running_products
from condred.problems import (
    ConditionParams,
    DecisionValue,
    Kind,
    ProblemInstance,
    max_partial_sigma1,
    max_power_sigma1,
    oracle_decide,
)
from condred.reductions import DET_PLUS_CYCLE, MATINV_PLUS_CYCLE, RULES
from condred.series import log_series, neumann_series
from conftest import random_complex
from test_acceptance import _det_plus_cycle_instance, _matinv_plus_cycle_instance

RTOL = 1e-12


def _close(got, want) -> bool:
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def _sparse_contraction(rng, n, density=0.25):
    a = random_complex(rng, n, n) * (rng.uniform(size=(n, n)) < density)
    a += np.diag(rng.uniform(0.5, 1.0, size=n))
    return sparse.csc_array(0.9 * a / np.linalg.norm(a, 2))


def test_running_products_yields_every_prefix(rng):
    n = 9
    factors = [_sparse_contraction(rng, n), random_complex(rng, n, n), _sparse_contraction(rng, n)]
    start = random_complex(rng, 2, n)
    prods = list(running_products(start, factors))
    assert len(prods) == 3
    for k, prod in enumerate(prods, 1):
        assert isinstance(prod, np.ndarray)
        want = np.linalg.multi_dot([start] + [sparse.csc_array(f).toarray() for f in factors[:k]])
        np.testing.assert_allclose(prod, want, rtol=RTOL, atol=RTOL)
    assert list(running_products(start, [])) == []


def test_sumitmatprod_on_csc_factors_matches_multi_dot(rng):
    n, m = 12, 4
    forms = tuple(_sparse_contraction(rng, n) for _ in range(m))
    # rows 3 and 5 are each named several times, in no sorted order
    pairs = ((3, 1), (3, 7), (5, 5), (12, 3), (3, 2), (1, 12), (5, 1))
    inst = ProblemInstance(Kind.SUMITMATPROD, ConditionParams(n, m, 10.0, 0.1), forms, E=pairs, b=0.0)
    full = np.linalg.multi_dot([f.toarray() for f in forms])
    want = sum(full[s - 1, t - 1] for s, t in pairs)
    assert _close(inst.quantity, want)
    assert "matrices" not in vars(inst)


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("stored", ["dense", "csc"])
def test_matpow_matches_matrix_power(rng, m, stored):
    n = 10
    a = _sparse_contraction(rng, n)
    form = a.toarray() if stored == "dense" else a
    inst = ProblemInstance(Kind.MATPOW, ConditionParams(n, m, 1.0, 0.1), (form,), s=4, t=9, b=0.0)
    assert _close(inst.quantity, np.linalg.matrix_power(a.toarray(), m)[3, 8])
    assert "matrices" not in vars(inst)


def test_promise_measures_on_csc_factors_match_dense_products(rng):
    n, m = 8, 4
    forms = [_sparse_contraction(rng, n) for _ in range(m)]
    dense = [f.toarray() for f in forms]
    partials = [np.linalg.multi_dot(dense[j1:j2] + [np.eye(n)]) for j1 in range(m) for j2 in range(j1 + 1, m + 1)]
    assert abs(max_partial_sigma1(forms) - max(np.linalg.norm(p, 2) for p in partials)) <= RTOL
    powers = [np.linalg.matrix_power(dense[0], j) for j in range(1, m + 1)]
    assert abs(max_power_sigma1(forms[0], m) - max(np.linalg.norm(p, 2) for p in powers)) <= RTOL


@pytest.mark.parametrize("stored", ["dense", "csc"])
def test_a_product_that_overflows_reads_sigma1_inf(stored):
    # the square of diag(1e200, 1) overflows: its sigma1 reads +inf, not an error
    a = np.diag([1e200, 1.0]).astype(np.complex128)
    form = a if stored == "dense" else sparse.csc_array(a)
    with np.errstate(over="ignore", invalid="ignore"):
        assert max_power_sigma1(form, 1) < np.inf and max_partial_sigma1([np.eye(2), form]) < np.inf
        assert max_power_sigma1(form, 3) == np.inf
        assert max_partial_sigma1([np.eye(2), form, form]) == np.inf


def _dense_log_series(h, terms):
    """The log series as a dense power loop: sum_k Re tr((I-H)^k) / k."""
    n = h.shape[0]
    x = np.eye(n, dtype=np.complex128) - h
    power = np.eye(n, dtype=np.complex128)
    total = 0.0
    for k in range(1, terms + 1):
        power = power @ x
        total += float(np.real(np.trace(power))) / k
    return total


def _dense_neumann_series(h, s, t, terms):
    """The Neumann entry as a dense power loop: sum_j (I-H)^j[s, t]."""
    n = h.shape[0]
    x = np.eye(n, dtype=np.complex128) - h
    power = np.eye(n, dtype=np.complex128)
    acc = complex(power[s - 1, t - 1])
    for _ in range(terms):
        power = power @ x
        acc += complex(power[s - 1, t - 1])
    return acc


@pytest.mark.parametrize("n,terms", [(1, 8), (3, 1), (6, 40), (17, 120)])
def test_series_match_dense_power_loops(rng, n, terms):
    u = random_unitary(n, rng)
    h = u @ np.diag(rng.uniform(0.1, 1.0, size=n)).astype(complex) @ u.conj().T
    h = (h + h.conj().T) / 2
    assert _close(log_series(h, terms), _dense_log_series(h, terms))
    for s, t in ((1, 1), (n, 1), (1 + n // 2, n)):
        assert _close(neumann_series(h, s, t, terms), _dense_neumann_series(h, s, t, terms))
    assert neumann_series(h, 1, n, 0) == (1.0 if n == 1 else 0.0)


WALKS = [
    pytest.param(make, path, i, want_one, id=f"{label} i={i} {'One' if want_one else 'Zero'}")
    for label, make, path in (
        ("MATINV+", _matinv_plus_cycle_instance, MATINV_PLUS_CYCLE),
        ("DET+", _det_plus_cycle_instance, DET_PLUS_CYCLE),
    )
    for i in (0, 5)
    for want_one in (True, False)
]


@pytest.mark.parametrize("make,path,i,want_one", WALKS)
def test_cycle_decisions_read_the_stored_forms(make, path, i, want_one):
    inst = make(i, want_one)
    want = DecisionValue.ONE if want_one else DecisionValue.ZERO
    kinds = []
    for name in (None,) + path:
        if name is not None:
            inst, _ = RULES[name].apply(inst)
        fresh = replace(inst)  # nothing computed on it yet
        assert oracle_decide(fresh, check="gap").value is want, (name, inst.kind)
        assert "matrices" not in vars(fresh), (name, inst.kind)
        kinds.append(inst.kind)
    assert {Kind.SUMITMATPROD, Kind.ITMATPROD} <= set(kinds)
    assert kinds[0] is kinds[-1]
