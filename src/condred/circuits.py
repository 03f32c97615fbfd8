"""Circuits with intermediate measurements, compiled to measurement-free
linear-algebra instances.

A :class:`GeneralCircuit` is an ordered list of channel gates on ``h`` qubits
(gates given on a subset of qubits are expanded to the full space when the
gate is built).  Qubit 1 is the most significant bit of the basis index, so
``|10...0>`` is basis state ``2**(h-1)``.  Acceptance means "the first qubit
measures 1".

The compiler path is: make the workspace cleanup explicit
(:func:`append_cleanup`), encode every gate as its superoperator matrix in
reverse order (:func:`circuit_to_itmatprod`), then run the product ->
powering -> inversion reduction chain (:func:`eliminate_measurements`).  The
single-entry acceptance identity is false without the cleanup suffix, which
is why :func:`circuit_to_itmatprod` refuses circuits that lack it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    as_matrix,
    check_kraus_complete,
    hermitian_eigs,
    kraus_superoperator,
    vec_index,
)
from .problems import ConditionParams, Kind, ProblemInstance
from .reductions import ReductionRecord, chain

#: acceptance thresholds of the bounded-error circuit model
ACCEPT_HI = 2.0 / 3.0
ACCEPT_LO = 1.0 / 3.0
#: the rule path from a circuit's ITMATPROD encoding to MATINV+
ELIMINATION_RULES = ("itmatprod_to_matpow", "matpow_to_matinv", "matinv_to_posmatinv")


def embed_operator(op, targets: tuple[int, ...], h: int) -> np.ndarray:
    """Expand an operator on the listed qubits (1-based) to all h qubits."""
    op = as_matrix(op, square=True)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} target qubits")
    if len(set(targets)) != k or not all(1 <= q <= h for q in targets):
        raise ValueError(f"bad target list {targets} for h={h}")
    rest = [q for q in range(1, h + 1) if q not in targets]
    full = np.kron(op, np.eye(2 ** (h - k), dtype=np.complex128))
    order = list(targets) + rest  # qubit owning each current tensor axis
    perm = [order.index(q) for q in range(1, h + 1)]
    tensor = full.reshape([2] * (2 * h))
    tensor = tensor.transpose(perm + [h + p for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**h, 2**h))


@dataclass(frozen=True)
class ChannelGate:
    """One circuit gate, stored as a full-space Kraus set."""

    kraus: tuple[np.ndarray, ...]
    label: str = "kraus"

    def __post_init__(self):
        object.__setattr__(self, "kraus", tuple(as_matrix(k, square=True) for k in self.kraus))
        check_kraus_complete(self.kraus)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def is_unitary(self) -> bool:
        """One Kraus operator U with U U^dag = I within :data:`DEFAULT_TOL`."""
        if len(self.kraus) != 1:
            return False
        u = self.kraus[0]
        return bool(np.max(np.abs(u @ u.conj().T - np.eye(self.dim))) <= DEFAULT_TOL)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out


def unitary_gate(u, targets, h: int) -> ChannelGate:
    return ChannelGate((embed_operator(u, tuple(targets), h),), label="unitary")


def kraus_gate(operators, targets, h: int, label: str = "kraus") -> ChannelGate:
    ops = tuple(embed_operator(k, tuple(targets), h) for k in operators)
    return ChannelGate(ops, label=label)


def measure_gate(qubit: int, h: int) -> ChannelGate:
    """Computational-basis measurement of one qubit (dephasing channel)."""
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    return kraus_gate((p0, p1), (qubit,), h, label=f"measure q{qubit}")


def reset_gate(qubit: int, h: int) -> ChannelGate:
    """Measure one qubit and flip on result 1, i.e. force it to |0>."""
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)  # |0><0|
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |0><1|
    return kraus_gate((k0, k1), (qubit,), h, label=f"reset q{qubit}")


def controlled_flip_gate(control: int, target: int, h: int) -> ChannelGate:
    """Measure ``control`` and apply X to ``target`` when the result is 1.

    This is the classically controlled branch folded into channel form:
    Kraus set {P0 on control, X on target after P1 on control}.
    """
    p0 = embed_operator(np.diag([1.0, 0.0]), (control,), h)
    p1 = embed_operator(np.diag([0.0, 1.0]), (control,), h)
    x = embed_operator(np.array([[0.0, 1.0], [1.0, 0.0]]), (target,), h)
    return ChannelGate((p0, x @ p1), label=f"if q{control} then X q{target}")


@dataclass(frozen=True)
class GeneralCircuit:
    h: int
    gates: tuple[ChannelGate, ...]
    merlin_qubits: int = 0

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= self.merlin_qubits <= self.h:
            raise ValueError("merlin_qubits must lie in [0, h]")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.dim != 2**self.h:
                raise ValueError(f"gate dimension {g.dim} does not match h={self.h}")


def accept_projector(h: int) -> np.ndarray:
    """Projector onto basis states whose first qubit is 1."""
    d = 2**h
    diag = np.zeros(d)
    diag[d // 2 :] = 1.0
    return np.diag(diag).astype(np.complex128)


def simulate_acceptance(circ: GeneralCircuit) -> float:
    """Density-matrix evolution from |0...0>; probability of reading 1."""
    if circ.merlin_qubits:
        raise ValueError("acceptance simulation is for circuits without a proof register")
    return simulate_from_state(circ, np.ones(1))


def simulate_from_state(circ: GeneralCircuit, psi: np.ndarray) -> float:
    """Acceptance probability with the proof state prepended on the witness
    register (work qubits start in |0>)."""
    m = circ.merlin_qubits
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.size != 2**m:
        raise ValueError(f"proof state must have dimension 2^{m}")
    work = np.zeros(2 ** (circ.h - m), dtype=np.complex128)
    work[0] = 1.0
    full = np.kron(psi, work)
    rho = np.outer(full, full.conj())
    for g in circ.gates:
        rho = g.apply(rho)
    return float(np.real(np.trace(accept_projector(circ.h) @ rho)))


@functools.cache
def cleanup_gates(h: int) -> tuple[ChannelGate, ...]:
    """Measure qubit 1, then force every other qubit to |0>; built once per h,
    with read-only Kraus arrays."""
    gates = (measure_gate(1, h),) + tuple(reset_gate(q, h) for q in range(2, h + 1))
    for k in [k for g in gates for k in g.kraus]:
        k.flags.writeable = False
    return gates


def append_cleanup(circ: GeneralCircuit) -> GeneralCircuit:
    return GeneralCircuit(circ.h, circ.gates + cleanup_gates(circ.h), circ.merlin_qubits)


def has_cleanup_suffix(circ: GeneralCircuit) -> bool:
    """Whether the circuit ends in :func:`cleanup_gates`, or in equal gates (to 1e-12)."""
    suffix = cleanup_gates(circ.h)
    if len(circ.gates) < len(suffix):
        return False
    tail = circ.gates[-len(suffix) :]
    for got, want in ((g, w) for g, w in zip(tail, suffix) if g is not w):
        if len(got.kraus) != len(want.kraus):
            return False
        if any(np.max(np.abs(a - b)) > 1e-12 for a, b in zip(got.kraus, want.kraus)):
            return False
    return True


def circuit_to_itmatprod(circ: GeneralCircuit) -> ProblemInstance:
    """Encode the circuit as an iterated-product instance.

    The matrices are the superoperators of the gates in reverse application
    order; with the cleanup suffix in place, the (vec|10..0><10..0|,
    vec|0..0><0..0|) entry of their product is exactly the acceptance
    probability.  The largest singular value of any partial product of
    channel superoperators on h qubits is at most 2^h.
    """
    if circ.merlin_qubits:
        raise ValueError(f"merlin_qubits={circ.merlin_qubits}: a proof register leaves no acceptance to encode")
    if not has_cleanup_suffix(circ):
        raise ValueError("circuit must end in the cleanup suffix (use append_cleanup)")
    d = 2**circ.h
    # every ChannelGate checked its Kraus set when it was made
    mats = tuple(kraus_superoperator(g.kraus) for g in reversed(circ.gates))
    accept_state = 2 ** (circ.h - 1)  # |10...0>
    s = vec_index(accept_state, accept_state, d) + 1
    t = vec_index(0, 0, d) + 1
    params = ConditionParams(d * d, len(mats), float(d), ACCEPT_HI - ACCEPT_LO)
    return ProblemInstance(Kind.ITMATPROD, params, mats, s=s, t=t, b=ACCEPT_HI)


def eliminate_measurements(
    circ: GeneralCircuit,
) -> tuple[ProblemInstance, list[ReductionRecord]]:
    """Full pipeline: encode, then ITMATPROD -> MATPOW -> MATINV -> MATINV+.

    The designated entry of the resulting positive-definite system is
    3*(1 + 2^h) times the acceptance probability; deciding it, with its value
    read at the tolerance the chain carries (:func:`condred.reductions.carried_tol`),
    agrees with thresholding ``simulate_acceptance`` at 2/3 versus 1/3.
    """
    return chain(circuit_to_itmatprod(circ), ELIMINATION_RULES)


@dataclass(frozen=True)
class ClockHamiltonianParts:
    h_in: np.ndarray
    h_prop: np.ndarray
    h_out: np.ndarray
    h_total: np.ndarray


def clock_hamiltonian(circ: GeneralCircuit) -> ClockHamiltonianParts:
    """Clock-register Hamiltonian whose ground energy tracks the verifier's
    best acceptance probability: exactly 0 for a perfectly accepted basis
    proof, strictly positive when every proof is rejected noticeably.

    Layout: (witness + work qubits) tensor (t+1)-dimensional clock, clock
    last.  Requires every gate to be a plain unitary.
    """
    m, h = circ.merlin_qubits, circ.h
    t = len(circ.gates)
    for g in circ.gates:
        if not g.is_unitary():
            raise ValueError("clock construction needs unitary gates only")
    d = 2**h
    clock = t + 1
    ket = lambda j: np.eye(clock, dtype=np.complex128)[:, j : j + 1]

    h_in = np.zeros((d * clock, d * clock), dtype=np.complex128)
    proj0 = ket(0) @ ket(0).conj().T
    for b in range(m + 1, h + 1):
        h_in += np.kron(embed_operator(np.diag([0.0, 1.0]), (b,), h), proj0)

    # the output term penalizes the REJECT outcome (first qubit 0) at the
    # final clock value; penalizing acceptance instead would give a perfectly
    # accepted proof ground energy 1/(t+1) rather than the required 0
    proj_t = ket(t) @ ket(t).conj().T
    h_out = np.kron(np.eye(d) - accept_projector(h), proj_t)

    h_prop = np.zeros_like(h_in)
    eye = np.eye(d, dtype=np.complex128)
    for j in range(1, t + 1):
        v = circ.gates[j - 1].kraus[0]
        hop = ket(j) @ ket(j - 1).conj().T
        stay = ket(j) @ ket(j).conj().T + ket(j - 1) @ ket(j - 1).conj().T
        h_prop += 0.5 * (
            -np.kron(v, hop) - np.kron(v.conj().T, hop.conj().T) + np.kron(eye, stay)
        )

    return ClockHamiltonianParts(h_in, h_prop, h_out, h_in + h_prop + h_out)


def clock_ground_energy(parts: ClockHamiltonianParts) -> float:
    return float(hermitian_eigs(parts.h_total)[-1])


# ---------------------------------------------------------------------------
# stochastic chains (configuration-graph special case)


@dataclass(frozen=True)
class StochasticChain:
    """Column-stochastic transition matrix: transition[i, j] = Pr(j -> i),
    real, nonnegative and with columns summing to 1 within :data:`DEFAULT_TOL`."""

    transition: np.ndarray
    start: int
    accept: int
    steps: int

    def __post_init__(self):
        t = as_matrix(self.transition, square=True)
        object.__setattr__(self, "transition", t)
        n = t.shape[0]
        if not (1 <= self.start <= n and 1 <= self.accept <= n):
            raise ValueError("start/accept indices out of range")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if np.max(np.abs(t.imag)) > DEFAULT_TOL or np.min(t.real) < -DEFAULT_TOL:
            raise ValueError("transition entries must be real and nonnegative")
        if np.max(np.abs(t.real.sum(axis=0) - 1.0)) > DEFAULT_TOL:
            raise ValueError("columns must sum to 1")


def markov_to_matpow(chain: StochasticChain) -> ProblemInstance:
    """Encode "the walk sits on the accept state after `steps` steps" against b = 2/3.

    A^steps[accept, start] is that probability; stochasticity bounds every
    power's largest singular value by sqrt(dimension).
    """
    n = chain.transition.shape[0]
    params = ConditionParams(n, chain.steps, math.sqrt(n), ACCEPT_HI - ACCEPT_LO)
    return ProblemInstance(
        Kind.MATPOW, params, (chain.transition,), s=chain.accept, t=chain.start, b=ACCEPT_HI
    )
