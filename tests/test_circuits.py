"""Circuit simulation, the measurement-elimination compiler, the clock
Hamiltonian and the stochastic-chain encoding.

Independent oracles used here: a vectorized pure-state trajectory sampler
(for the density-matrix simulator), exact eigensolves (for clock
Hamiltonians) and direct Monte-Carlo walks (for stochastic chains).
"""

import math

import numpy as np
import pytest

from condred.circuits import (
    ACCEPT_HI,
    ChannelGate,
    GeneralCircuit,
    StochasticChain,
    append_cleanup,
    circuit_to_itmatprod,
    cleanup_gates,
    clock_ground_energy,
    clock_hamiltonian,
    controlled_flip_gate,
    eliminate_measurements,
    embed_operator,
    has_cleanup_suffix,
    kraus_gate,
    markov_to_matpow,
    measure_gate,
    reset_gate,
    simulate_acceptance,
    simulate_from_state,
    unitary_gate,
)
from condred.matcore import random_kraus_set, random_unitary, svd_values
from condred.problems import DecisionValue, Kind, oracle_decide, partial_products, product_entry
from condred.serialize import circuit_from_json, circuit_to_json

X = np.array([[0, 1], [1, 0]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# ground energy of the fixed measured-coin verifier family (witness qubit,
# one work qubit, Hadamard coin + CNOT, t = 2), frozen from one exact
# eigensolve; the family's best acceptance is exactly 1/2
COIN_TAU = 0.034074173


def random_measured_circuit(h, n_gates, seed, rng_pool=("unitary", "measure", "reset", "cflip")):
    """Seeded circuit mixing unitaries with measurement-flavoured channels."""
    rng = np.random.default_rng((seed, 0xC1DC))
    gates = []
    for _ in range(n_gates):
        kind = rng_pool[rng.integers(len(rng_pool))]
        if kind == "unitary":
            q = int(rng.integers(1, h + 1))
            gates.append(unitary_gate(random_unitary(2, rng), (q,), h))
        elif kind == "measure":
            gates.append(measure_gate(int(rng.integers(1, h + 1)), h))
        elif kind == "reset":
            gates.append(reset_gate(int(rng.integers(1, h + 1)), h))
        elif kind == "cflip" and h >= 2:
            c, t = rng.choice(np.arange(1, h + 1), size=2, replace=False)
            gates.append(controlled_flip_gate(int(c), int(t), h))
        else:  # kraus fallback for h == 1
            gates.append(kraus_gate(random_kraus_set(2, 2, rng), (1,), h))
    return GeneralCircuit(h, tuple(gates))


def trajectory_acceptance(circ, shots, seed):
    """Pure-state unravelling: sample one Kraus branch per gate and shot,
    then sample the final qubit-1 measurement."""
    rng = np.random.default_rng(seed)
    d = 2**circ.h
    batch = np.zeros((d, shots), dtype=np.complex128)
    batch[0, :] = 1.0
    for gate in circ.gates:
        branches = np.stack([k @ batch for k in gate.kraus])  # (r, d, shots)
        probs = np.sum(np.abs(branches) ** 2, axis=1)  # (r, shots)
        cum = np.cumsum(probs, axis=0)
        u = rng.random(shots) * cum[-1, :]
        choice = (cum < u).sum(axis=0)
        batch = branches[choice, :, np.arange(shots)].T
        batch /= np.sqrt(np.maximum(probs[choice, np.arange(shots)], 1e-300))
    p1 = np.sum(np.abs(batch[d // 2 :, :]) ** 2, axis=0)
    return float(np.mean(rng.random(shots) < p1))


class TestEmbedding:
    def test_single_qubit_placement(self):
        full = embed_operator(X, (2,), 3)
        assert np.allclose(full, np.kron(np.kron(np.eye(2), X), np.eye(2)))

    def test_two_qubit_reordered(self):
        # embedding on (2, 1) must swap the operator's tensor factors
        a, b = np.diag([1.0, 2.0]), np.diag([3.0, 7.0])
        op = np.kron(a, b)
        full = embed_operator(op, (2, 1), 2)
        assert np.allclose(full, np.kron(b, a))

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            embed_operator(X, (1, 1), 2)
        with pytest.raises(ValueError):
            embed_operator(X, (4,), 3)


class TestSimulator:
    def test_x_gate_accepts(self):
        circ = GeneralCircuit(2, (unitary_gate(X, (1,), 2),))
        assert abs(simulate_acceptance(circ) - 1.0) < 1e-12

    def test_hadamard_then_measure_is_half(self):
        circ = GeneralCircuit(1, (unitary_gate(HAD, (1,), 1), measure_gate(1, 1)))
        assert abs(simulate_acceptance(circ) - 0.5) < 1e-12

    def test_matches_trajectory_sampler(self):
        circ = random_measured_circuit(3, 8, seed=42)
        p = simulate_acceptance(circ)
        shots = 10**5
        est = trajectory_acceptance(circ, shots, seed=7)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(est - p) <= 3 * sigma + 1e-9

    def test_controlled_flip_copies_measured_bit(self):
        # H on qubit 1, measure it, flip qubit 2 conditionally: both marginals 1/2
        circ = GeneralCircuit(
            2,
            (
                unitary_gate(HAD, (1,), 2),
                measure_gate(1, 2),
                controlled_flip_gate(1, 2, 2),
            ),
        )
        d = 4
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        for g in circ.gates:
            rho = g.apply(rho)
        # perfectly correlated classical state (|00><00| + |11><11|)/2
        want = np.zeros((d, d), dtype=complex)
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(rho, want, atol=1e-12)


class TestCleanup:
    def test_empty_circuit_support(self):
        circ = append_cleanup(GeneralCircuit(2, ()))
        d = 4
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        for g in circ.gates:
            rho = g.apply(rho)
        off_support = rho.copy()
        off_support[0, 0] = 0.0
        off_support[2, 2] = 0.0  # |10>
        assert np.max(np.abs(off_support)) < 1e-12

    def test_x_then_cleanup_is_pure_accept(self):
        circ = append_cleanup(GeneralCircuit(2, (unitary_gate(X, (1,), 2),)))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        for g in circ.gates:
            rho = g.apply(rho)
        want = np.zeros((4, 4), dtype=complex)
        want[2, 2] = 1.0
        assert np.allclose(rho, want, atol=1e-12)

    def test_acceptance_invariant(self):
        for seed in range(50):
            circ = random_measured_circuit(2, 5, seed)
            before = simulate_acceptance(circ)
            after = simulate_acceptance(append_cleanup(circ))
            assert abs(before - after) < 1e-10

    def test_suffix_detection(self):
        circ = random_measured_circuit(2, 3, seed=0)
        assert not has_cleanup_suffix(circ)
        assert has_cleanup_suffix(append_cleanup(circ))
        assert len(cleanup_gates(3)) == 3


    def test_cleanup_gates_are_built_once_and_read_only(self):
        gates = cleanup_gates(3)
        again = cleanup_gates(3)
        assert len(again) == len(gates) and all(a is b for a, b in zip(again, gates))
        for g in gates:
            for k in g.kraus:
                with pytest.raises(ValueError):
                    k[0, 0] = 2.0

    def test_suffix_read_back_from_json_is_detected(self):
        circ = circuit_from_json(circuit_to_json(append_cleanup(random_measured_circuit(2, 3, seed=0))))
        assert not any(g is w for g, w in zip(circ.gates[-2:], cleanup_gates(2)))
        assert has_cleanup_suffix(circ)

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_perturbed_suffix_is_not_detected(self, entry):
        # a phase of 1e-9 moves each nonzero Kraus entry by 1e-9 and keeps the set complete
        circ = append_cleanup(random_measured_circuit(3, 2, seed=1))
        gates = list(circ.gates)
        pos = len(gates) - 3 + entry
        gates[pos] = ChannelGate(tuple(k * np.exp(1e-9j) for k in gates[pos].kraus), label="perturbed")
        assert not has_cleanup_suffix(GeneralCircuit(3, tuple(gates)))


class TestCircuitEncoding:
    def test_identity_circuit_rejects(self):
        circ = append_cleanup(GeneralCircuit(2, ()))
        inst = circuit_to_itmatprod(circ)
        assert abs(product_entry(inst.matrices, inst.s, inst.t)) < 1e-12

    def test_x_circuit_accepts(self):
        circ = append_cleanup(GeneralCircuit(2, (unitary_gate(X, (1,), 2),)))
        inst = circuit_to_itmatprod(circ)
        assert abs(product_entry(inst.matrices, inst.s, inst.t) - 1.0) < 1e-12

    def test_missing_cleanup_detected(self):
        circ = GeneralCircuit(2, (unitary_gate(X, (1,), 2),))
        with pytest.raises(ValueError):
            circuit_to_itmatprod(circ)

    def test_encoding_identity_and_contraction_bound(self):
        for seed in range(10):
            h = 2 + seed % 2
            circ = append_cleanup(random_measured_circuit(h, 4, seed))
            inst = circuit_to_itmatprod(circ)
            entry = product_entry(inst.matrices, inst.s, inst.t)
            assert abs(entry - simulate_acceptance(circ)) < 1e-9
            worst = max(
                svd_values(p)[0] for p in partial_products(inst.matrices).values()
            )
            assert worst <= 2**h + 1e-7


def forced_circuit(h, n_gates, seed, accept):
    """Random measured circuit whose acceptance is pushed outside the gap:
    reset the output qubit, then one rotation (composed with a flip for the
    accepting variant) pins the final probability >= 0.9 or <= 0.1."""
    rng = np.random.default_rng((seed, 0xF0CE))
    base = random_measured_circuit(h, n_gates, seed)
    theta = rng.uniform(0.0, 2 * math.asin(math.sqrt(0.1)))
    rot = np.array(
        [
            [math.cos(theta / 2), -math.sin(theta / 2)],
            [math.sin(theta / 2), math.cos(theta / 2)],
        ],
        dtype=complex,
    )
    if accept:
        rot = rot @ X
    tail = (reset_gate(1, h), unitary_gate(rot, (1,), h))
    return GeneralCircuit(h, base.gates + tail)


class TestEliminateMeasurements:
    def test_x_circuit_is_one_instance(self):
        circ = append_cleanup(GeneralCircuit(2, (unitary_gate(X, (1,), 2),)))
        inst, records = eliminate_measurements(circ)
        assert inst.kind is Kind.MATINV_PLUS
        assert [r.rule for r in records] == [
            "itmatprod_to_matpow",
            "matpow_to_matinv",
            "matinv_to_posmatinv",
        ]
        assert oracle_decide(inst, check="gap").value is DecisionValue.ONE

    def test_identity_circuit_is_zero_instance(self):
        circ = append_cleanup(GeneralCircuit(2, ()))
        inst, _ = eliminate_measurements(circ)
        assert oracle_decide(inst, check="gap").value is DecisionValue.ZERO

    def test_forced_circuits_match_threshold(self):
        for seed in range(6):
            accept = seed % 2 == 0
            circ = append_cleanup(forced_circuit(2, 3, seed, accept))
            prob = simulate_acceptance(circ)
            assert prob >= 0.9 if accept else prob <= 0.1
            inst, _ = eliminate_measurements(circ)
            want = DecisionValue.ONE if prob >= ACCEPT_HI else DecisionValue.ZERO
            assert oracle_decide(inst, check="gap").value is want

    def test_gap_interior_reports_violation(self):
        # Hadamard coin: acceptance exactly 1/2, inside (1/3, 2/3)
        circ = append_cleanup(
            GeneralCircuit(1, (unitary_gate(HAD, (1,), 1), measure_gate(1, 1)))
        )
        inst, _ = eliminate_measurements(circ)
        assert oracle_decide(inst, check="gap").value is DecisionValue.PROMISE_VIOLATED


def random_unitary_verifier(m, extra_work, t, seed):
    rng = np.random.default_rng((seed, 0x7E51))
    h = m + extra_work
    gates = tuple(unitary_gate(random_unitary(2**h, rng), tuple(range(1, h + 1)), h) for _ in range(t))
    return GeneralCircuit(h, gates, m)


def coin_verifier():
    """Witness qubit + work qubit; Hadamard coin CNOT'd onto the output:
    every proof is accepted with probability exactly 1/2."""
    cnot_c2t1 = np.zeros((4, 4), dtype=complex)
    cnot_c2t1[0, 0] = cnot_c2t1[2, 2] = 1.0
    cnot_c2t1[3, 1] = cnot_c2t1[1, 3] = 1.0
    return GeneralCircuit(
        2, (unitary_gate(HAD, (2,), 2), unitary_gate(cnot_c2t1, (1, 2), 2)), merlin_qubits=1
    )


def perfect_completeness_verifier(m, extra_work, t, seed):
    """Random unitary prefix, then a final unitary steering the evolved
    state of a chosen basis proof onto an accepting state."""
    rng = np.random.default_rng((seed, 0xACCE))
    h = m + extra_work
    d = 2**h
    gates = [unitary_gate(random_unitary(d, rng), tuple(range(1, h + 1)), h) for _ in range(t - 1)]
    proof = int(rng.integers(2**m))
    psi = np.zeros(d, dtype=complex)
    psi[proof * 2 ** (h - m)] = 1.0
    for g in gates:
        psi = g.kraus[0] @ psi
    target = np.zeros(d, dtype=complex)
    target[d // 2] = 1.0  # |10...0>, first qubit is 1
    c = complex(target.conj() @ psi)
    aligned = target * (c / abs(c)) if abs(c) > 1e-12 else target
    w = psi - aligned
    norm = np.linalg.norm(w)
    if norm < 1e-9:
        final = np.eye(d, dtype=complex)
    else:
        w /= norm
        # reflection through the phase-aligned difference maps psi onto a
        # phase multiple of the accepting basis state
        final = np.eye(d, dtype=complex) - 2.0 * np.outer(w, w.conj())
    gates.append(unitary_gate(final, tuple(range(1, h + 1)), h))
    return GeneralCircuit(h, tuple(gates), m), proof


class TestClockHamiltonian:
    def test_perfect_completeness_ground_energy(self):
        for seed in range(8):
            circ, proof = perfect_completeness_verifier(1, 1, 3, seed)
            psi = np.eye(2)[:, proof]
            assert abs(simulate_from_state(circ, psi) - 1.0) < 1e-10
            assert clock_ground_energy(clock_hamiltonian(circ)) <= 1e-9

    def test_coin_family_energy_floor(self):
        circ = coin_verifier()
        assert clock_ground_energy(clock_hamiltonian(circ)) >= COIN_TAU

    def test_parts_are_psd_and_sum(self):
        for seed in range(5):
            circ = random_unitary_verifier(1, 1, 3, seed)
            parts = clock_hamiltonian(circ)
            total = parts.h_in + parts.h_prop + parts.h_out
            assert np.allclose(total, parts.h_total, atol=0)
            for piece in (parts.h_in, parts.h_prop, parts.h_out, parts.h_total):
                assert np.linalg.eigvalsh(piece)[0] >= -1e-9

    def test_rejects_channel_gates(self):
        circ = GeneralCircuit(2, (measure_gate(1, 2),), merlin_qubits=1)
        with pytest.raises(ValueError):
            clock_hamiltonian(circ)


def markov_walk_estimate(chain, shots, seed):
    """Direct Monte-Carlo: probability of sitting on `accept` after `steps`."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(chain.transition.real, axis=0)
    states = np.full(shots, chain.start - 1)
    for _ in range(chain.steps):
        u = rng.random(shots)
        states = (cum[:, states] < u).sum(axis=0)
    return float(np.mean(states == chain.accept - 1))


class TestMarkov:
    def test_identity_chain(self):
        chain = StochasticChain(np.eye(3), start=2, accept=2, steps=4)
        inst = markov_to_matpow(chain)
        assert inst.kind is Kind.MATPOW
        q = oracle_decide(inst, check="none").witness_value
        assert abs(q - 1.0) < 1e-12

    def test_uniform_two_state(self):
        chain = StochasticChain(np.full((2, 2), 0.5), start=2, accept=1, steps=7)
        q = oracle_decide(markov_to_matpow(chain), check="none").witness_value
        assert abs(q - 0.5) < 1e-12

    def test_rejects_nonstochastic(self):
        # columns summing to 1.4, and a column summing to 1 through a complex entry
        for t in (np.full((2, 2), 0.7), np.array([[1.0, 0.5j], [0.0, 1.0 - 0.5j]])):
            with pytest.raises(ValueError):
                StochasticChain(t, 1, 1, 1)

    def test_seeded_walk_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        n, steps = 8, 12
        t = rng.random((n, n))
        t /= t.sum(axis=0, keepdims=True)
        chain = StochasticChain(t, start=1, accept=3, steps=steps)
        inst = markov_to_matpow(chain)
        p = abs(oracle_decide(inst, check="none").witness_value)
        shots = 10**5
        est = markov_walk_estimate(chain, shots, seed=11)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(est - p) <= 3 * sigma

    def test_power_sigma_bound(self):
        rng = np.random.default_rng(9)
        n = 6
        t = rng.random((n, n))
        t /= t.sum(axis=0, keepdims=True)
        chain = StochasticChain(t, start=1, accept=2, steps=10)
        powed = np.linalg.matrix_power(chain.transition, chain.steps)
        assert svd_values(powed)[0] <= math.sqrt(n) + 1e-7
