"""JSON schemas for matrices, problem instances and circuits.

Schemas (field names are load-bearing, consumed by the CLI and the tests):

* matrix:   {"rows": r, "cols": c, "data": [[re, im], ...]} row-major
* instance: {"type", "params": {"n", "m", "kappa", "epsilon"},
             "matrices": [...], "s", "t", "E", "b"}; "b" is a number or
             [re, im]; "s"/"t"/"E" appear only when the problem uses them
* circuit:  {"qubits", "merlin_qubits", "gates": [{"kind": "unitary" |
             "kraus" | "measure" | "reset", "targets": [...],
             "matrices": [...]}]}

Floats are emitted as Python's shortest round-trip decimal form, which is
exact for double precision and keeps equal inputs byte-identical on disk.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .circuits import ChannelGate, GeneralCircuit, kraus_gate, measure_gate, reset_gate, unitary_gate
from .problems import ConditionParams, Kind, ProblemInstance


class SchemaError(ValueError):
    """Malformed document for one of the package's JSON schemas."""


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in a.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad matrix object: {exc}") from exc
    if len(data) != rows * cols:
        raise SchemaError(f"matrix data length {len(data)} != {rows}*{cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return flat.reshape(rows, cols)


def _b_to_json(b):
    if b is None:
        return None
    if isinstance(b, complex) or (isinstance(b, np.complexfloating)):
        if complex(b).imag != 0.0:
            return [complex(b).real, complex(b).imag]
        return complex(b).real
    return float(b)


def _b_from_json(obj):
    if obj is None:
        return None
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise SchemaError("complex b must be [re, im]")
        return complex(obj[0], obj[1])
    return float(obj)


def instance_to_json(inst: ProblemInstance) -> dict:
    out = {
        "type": inst.kind.value,
        "params": {
            "n": inst.params.n,
            "m": inst.params.m,
            "kappa": inst.params.kappa,
            "epsilon": inst.params.epsilon,
        },
        "matrices": [matrix_to_json(a) for a in inst.matrices],
    }
    if inst.s is not None:
        out["s"] = inst.s
    if inst.t is not None:
        out["t"] = inst.t
    if inst.E is not None:
        out["E"] = [[s, t] for (s, t) in inst.E]
    if inst.b is not None:
        out["b"] = _b_to_json(inst.b)
    return out


def instance_from_json(obj) -> ProblemInstance:
    try:
        kind = Kind(obj["type"])
        p = obj["params"]
        params = ConditionParams(
            n=p["n"], m=p["m"], kappa=float(p["kappa"]), epsilon=float(p["epsilon"])
        )
        matrices = tuple(matrix_from_json(m) for m in obj["matrices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad instance object: {exc}") from exc
    e = obj.get("E")
    try:
        return ProblemInstance(
            kind,
            params,
            matrices,
            s=obj.get("s"),
            t=obj.get("t"),
            E=tuple(tuple(pair) for pair in e) if e is not None else None,
            b=_b_from_json(obj.get("b")),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"inconsistent instance: {exc}") from exc


def circuit_to_json(circ: GeneralCircuit) -> dict:
    gates = []
    for g in circ.gates:
        gates.append(
            {
                "kind": "kraus",
                "targets": list(range(1, circ.h + 1)),
                "matrices": [matrix_to_json(k) for k in g.kraus],
            }
        )
    return {"qubits": circ.h, "merlin_qubits": circ.merlin_qubits, "gates": gates}


def gate_from_json(obj, h: int) -> ChannelGate:
    try:
        kind = obj["kind"]
        targets = tuple(int(q) for q in obj.get("targets", ()))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad gate object: {exc}") from exc
    if kind == "unitary":
        mats = [matrix_from_json(m) for m in obj.get("matrices", ())]
        if len(mats) != 1:
            raise SchemaError("unitary gate needs exactly one matrix")
        return unitary_gate(mats[0], targets, h)
    if kind == "kraus":
        mats = [matrix_from_json(m) for m in obj.get("matrices", ())]
        if not mats:
            raise SchemaError("kraus gate needs at least one matrix")
        return kraus_gate(mats, targets, h)
    if kind == "measure":
        if len(targets) != 1:
            raise SchemaError("measure gate acts on exactly one qubit")
        return measure_gate(targets[0], h)
    if kind == "reset":
        if len(targets) != 1:
            raise SchemaError("reset gate acts on exactly one qubit")
        return reset_gate(targets[0], h)
    raise SchemaError(f"unknown gate kind {kind!r}")


def circuit_from_json(obj) -> GeneralCircuit:
    try:
        h = int(obj["qubits"])
        merlin = int(obj.get("merlin_qubits", 0))
        gates = tuple(gate_from_json(g, h) for g in obj["gates"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad circuit object: {exc}") from exc
    try:
        return GeneralCircuit(h, gates, merlin)
    except ValueError as exc:
        raise SchemaError(f"inconsistent circuit: {exc}") from exc


_ENCODER = json.JSONEncoder(indent=1, sort_keys=True)
_CHUNKS = 1 << 16  # encoder chunks joined per write


def dumps(obj) -> str:
    return _ENCODER.encode(obj)


def digest(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def save_json(obj, path) -> str:
    """Write ``dumps(obj)`` and a newline to ``path``; return ``digest(obj)``.

    The text is written and hashed as the encoder produces it, so the whole
    document is never held as one string.
    """
    sha = hashlib.sha256()
    chunks = _ENCODER.iterencode(obj)
    with open(path, "w") as fh:
        while text := "".join(itertools.islice(chunks, _CHUNKS)):
            fh.write(text)
            sha.update(text.encode())
        fh.write("\n")
    return sha.hexdigest()


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
