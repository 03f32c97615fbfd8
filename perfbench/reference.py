"""Seeded inputs and independent references for the benchmark.

Nothing here imports ``condred``: the makers produce plain numpy data, and
the references (closed-form decision quantities, a density-matrix simulator
on local operators, a product-entry row sweep) are computed apart from the
program, so a fault in the program cannot move both sides of a check.

The families follow the acceptance suite: the scalar MATINV+ and small DET+
cycle instances of criterion 3, and the forced measured circuits of
criterion 5.  They are re-implemented here, driven by a seed argument, so
that edits to ``tests/`` cannot move the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
P0 = np.diag([1.0, 0.0]).astype(np.complex128)
P1 = np.diag([0.0, 1.0]).astype(np.complex128)
#: local Kraus sets of the measurement-flavoured gates
MEASURE = (P0, P1)
RESET = (P0, np.array([[0, 1], [0, 0]], dtype=np.complex128))  # |0><0|, |0><1|
CFLIP = (np.kron(P0, np.eye(2)), np.kron(P1, X))  # targets (control, target)

#: relative margin between the decision quantity and b, as in the test suite
B_DELTA = 1e-6


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# cycle instances


@dataclass(frozen=True)
class CycleInput:
    """One MATINV+ or DET+ instance as raw data, with its closed-form quantity."""

    kind: str  # "MATINV+" or "DET+"
    kappa: float
    epsilon: float
    matrix: np.ndarray
    b: float
    quantity: float  # 1/h for scalar MATINV+, sum of log eigenvalues for DET+
    s: int | None = None
    t: int | None = None


def matinv_plus_input(rng: np.random.Generator, want_one: bool) -> CycleInput:
    """Scalar positive definite instance; eps tracks kappa so the Neumann
    blow-up stays at m_hat = 4 and the cycle end at dimension 2450."""
    kappa = 1.05 + 0.4 * rng.uniform()
    eps = 0.63 * kappa
    h = rng.uniform(1.0 / kappa, 1.0)
    q = 1.0 / h
    delta = B_DELTA * max(1.0, q)
    b = q - delta if want_one else q + eps + delta
    return CycleInput("MATINV+", kappa, eps, np.array([[h]], dtype=np.complex128), b, q, 1, 1)


def det_plus_input(rng: np.random.Generator, n: int, want_one: bool) -> CycleInput:
    """Hermitian positive definite instance with eigenvalues in [0.5, 1];
    the cycle end has dimension 350 (n = 1) or 3528 (n = 2)."""
    kappa, eps = 2.0, 0.55
    hi = 1.0 if want_one else math.exp(-(eps + 2 * B_DELTA) / n)
    lam = rng.uniform(0.5, hi, size=n)
    u = random_unitary(n, rng)
    h = u @ np.diag(lam).astype(np.complex128) @ u.conj().T
    h = (h + h.conj().T) / 2
    q = float(np.log(lam).sum())
    b = q - B_DELTA if want_one else q + eps + B_DELTA
    return CycleInput("DET+", kappa, eps, h, b, q)


def closed_form_decision(inp: CycleInput) -> str:
    """"One" or "Zero" from the quantity used to place b."""
    if inp.quantity >= inp.b:
        return "One"
    if inp.quantity <= inp.b - inp.epsilon:
        return "Zero"
    return "PromiseViolated"


# ---------------------------------------------------------------------------
# measured circuits


@dataclass(frozen=True)
class Gate:
    """A gate as local operators on 1-based target qubits."""

    kind: str  # "unitary", "measure", "reset" or "cflip"
    targets: tuple[int, ...]
    ops: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class CircuitInput:
    h: int
    gates: tuple[Gate, ...]
    accept: bool  # the forced outcome: acceptance >= 0.9 or <= 0.1


GATE_KINDS = ("unitary", "measure", "reset", "cflip")


def forced_circuit(
    rng: np.random.Generator, h: int, n_gates: int, accept: bool, pool=GATE_KINDS
) -> CircuitInput:
    """``n_gates`` random gates of the kinds in ``pool``, then a reset of the
    output qubit and one rotation (composed with X when accepting) that pins
    the acceptance outside [0.1, 0.9]."""
    gates = []
    for _ in range(n_gates):
        kind = pool[rng.integers(len(pool))]
        if kind == "unitary":
            gates.append(Gate(kind, (int(rng.integers(1, h + 1)),), (random_unitary(2, rng),)))
        elif kind == "measure":
            gates.append(Gate(kind, (int(rng.integers(1, h + 1)),), MEASURE))
        elif kind == "reset":
            gates.append(Gate(kind, (int(rng.integers(1, h + 1)),), RESET))
        else:
            c, t = rng.choice(np.arange(1, h + 1), size=2, replace=False)
            gates.append(Gate(kind, (int(c), int(t)), CFLIP))
    theta = rng.uniform(0.0, 2 * math.asin(math.sqrt(0.1)))
    rot = np.array(
        [[math.cos(theta / 2), -math.sin(theta / 2)], [math.sin(theta / 2), math.cos(theta / 2)]],
        dtype=np.complex128,
    )
    if accept:
        rot = rot @ X
    gates += [Gate("reset", (1,), RESET), Gate("unitary", (1,), (rot,))]
    return CircuitInput(h, tuple(gates), accept)


def _apply_local(rho: np.ndarray, ops, targets, h: int) -> np.ndarray:
    """sum_k K rho K^dag with K acting on ``targets``; rho is a 2h-axis tensor
    (row qubits first, qubit 1 most significant)."""
    k = len(targets)
    rows = [q - 1 for q in targets]
    cols = [h + q - 1 for q in targets]
    out = np.zeros_like(rho)
    for op in ops:
        t = op.reshape([2] * (2 * k))
        r = np.tensordot(t, rho, axes=(list(range(k, 2 * k)), rows))
        r = np.moveaxis(r, list(range(k)), rows)
        r = np.tensordot(t.conj(), r, axes=(list(range(k, 2 * k)), cols))
        out += np.moveaxis(r, list(range(k)), cols)
    return out


def simulate(circ: CircuitInput) -> float:
    """Probability that qubit 1 reads 1 after the circuit, from |0...0>."""
    h = circ.h
    rho = np.zeros([2] * (2 * h), dtype=np.complex128)
    rho[(0,) * (2 * h)] = 1.0
    for g in circ.gates:
        rho = _apply_local(rho, g.ops, g.targets, h)
    d = 2**h
    diag = np.real(np.diagonal(rho.reshape(d, d)))
    return float(diag[d // 2 :].sum())


def designated_entry(mats, s: int, t: int) -> complex:
    """(s, t) entry (1-based) of the product of ``mats``, by a row sweep."""
    row = np.asarray(mats[0])[s - 1, :]
    for a in mats[1:]:
        row = row @ np.asarray(a)
    return complex(row[t - 1])


def threshold_decision(prob: float) -> str:
    if prob >= 2.0 / 3.0:
        return "One"
    if prob <= 1.0 / 3.0:
        return "Zero"
    return "PromiseViolated"


def matrix_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in a.reshape(-1)],
    }


def circuit_json(circ: CircuitInput) -> dict:
    """The circuit in the command line's schema; a classically controlled
    flip is written as a two-qubit Kraus gate."""
    gates = []
    for g in circ.gates:
        if g.kind in ("measure", "reset"):
            gates.append({"kind": g.kind, "targets": list(g.targets)})
        else:
            kind = "unitary" if g.kind == "unitary" else "kraus"
            gates.append(
                {"kind": kind, "targets": list(g.targets), "matrices": [matrix_json(m) for m in g.ops]}
            )
    return {"qubits": circ.h, "merlin_qubits": 0, "gates": gates}
