#!/usr/bin/env python3
"""Build a small circuit with mid-circuit measurement and classical control,
compile it to a positive definite matrix-inversion instance, and show that
deciding the instance recovers the circuit's acceptance.

Usage: python scripts/compile_circuit_demo.py [--qubits 2] [--out circuit.json]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from condred.circuits import (
    ELIMINATION_RULES,
    GeneralCircuit,
    append_cleanup,
    circuit_to_itmatprod,
    controlled_flip_gate,
    measure_gate,
    simulate_acceptance,
    unitary_gate,
)
from condred.problems import DEFAULT_TOL, _output, oracle_decide
from condred.reductions import carried_tol, chain
from condred.serialize import circuit_to_json, save_json

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def demo_circuit(h: int) -> GeneralCircuit:
    """Biased coin on qubit 2, measured, then classically copied onto the
    output qubit: acceptance is cos^2(pi/8) ~ 0.854."""
    theta = math.pi / 4
    tilt = np.array(
        [[math.cos(theta / 2), -math.sin(theta / 2)],
         [math.sin(theta / 2), math.cos(theta / 2)]],
        dtype=complex,
    )
    gates = (
        unitary_gate(np.array([[0, 1], [1, 0]], dtype=complex), (2,), h),
        unitary_gate(tilt, (2,), h),
        measure_gate(2, h),
        controlled_flip_gate(2, 1, h),
    )
    return GeneralCircuit(h, gates)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--qubits", type=int, default=2)
    parser.add_argument("--out", default=None, help="also write the circuit JSON here")
    args = parser.parse_args()

    circ = append_cleanup(demo_circuit(args.qubits))
    prob = simulate_acceptance(circ)
    print(f"{args.qubits}-qubit circuit, {len(circ.gates)} gates "
          f"(incl. cleanup), acceptance = {prob:.6f}")
    if args.out:
        save_json(circuit_to_json(circ), args.out)
        print(f"wrote {args.out}")

    inst = circuit_to_itmatprod(circ)
    entry = inst.quantity
    print(f"iterated-product encoding: {inst.params.m} matrices of dimension "
          f"{inst.params.n}; designated entry = {entry.real:.6f}")

    plus, records = chain(inst, ELIMINATION_RULES)
    print("reduction chain:")
    for rec in records:
        print(f"  {rec.rule}: n {rec.input_params.n} -> {rec.output_params.n}, "
              f"kappa {rec.input_params.kappa:g} -> {rec.output_params.kappa:g}")
    # the end's value read at the tolerance the chain carries, and the
    # acceptance read on the encoding's Output clause, as compile-circuit reads them
    dec = oracle_decide(plus, check="gap", value_tol=carried_tol(records, DEFAULT_TOL))
    expected = _output(inst, prob).decide(DEFAULT_TOL)
    print(f"measurement-free instance: {plus.kind.value} of dimension {plus.params.n}")
    print(f"oracle decision: {dec.value.value} "
          f"(threshold {float(np.real(plus.b)):.3f}, witness {abs(dec.witness_value):.3f}); "
          f"expected from the acceptance: {expected.value}")


if __name__ == "__main__":
    main()
