"""JSON schemas for matrices, problem instances and circuits.

Schemas (field names are load-bearing, consumed by the CLI and the tests):

* matrix:   {"rows": r, "cols": c, "data": [[re, im], ...]} row-major
* sparse:   {"format": "coo", "rows": r, "cols": c,
             "entries": [[i, j, re, im], ...]}; indices 0-based, each
             position at most once, written in row-major order
* instance: {"type", "params": {"n", "m", "kappa", "epsilon"},
             "matrices": [...], "s", "t", "E", "b"}; "b" is a number or
             [re, im]; "s"/"t"/"E" appear only when the problem uses them.
             A matrix the instance stores sparse (CSC) is written as COO,
             a dense one in the dense schema; reading gives back the form
             it was written from.
* circuit:  {"qubits", "merlin_qubits", "gates": [{"kind": "unitary" |
             "kraus" | "measure" | "reset", "targets": [...],
             "matrices": [...]}]}; gate matrices use the dense schema

Documents are written in the layout of ``json.JSONEncoder(indent=1,
sort_keys=True)``, byte for byte (:func:`dumps`), with floats in Python's
shortest round-trip decimal form, which is exact for double precision and
keeps equal inputs byte-identical on disk.  :func:`instance_doc` holds each
matrix's ``data`` or ``entries`` as a :class:`Table`, its int64 and float64
column arrays, which :func:`instance_to_json` and :func:`matrix_to_json`
give as lists.  One renderer writes every numeric table: a ``Table``, or a
list of equal-length lists whose every column is all ints (within int64) or
all floats.  A long repetitive column gets one text per distinct bit
pattern, looked up a batch of rows at a time; so writing an instance builds
no Python object per entry.  :func:`save_json` and :func:`digest` write and
hash the text in pieces of about 64 KB, so the whole document is never held
as one string.  :func:`load_json` takes a document's digest as it loads it.
Sizes, indices and qubit numbers must be JSON integers, and matrix values,
kappa, epsilon and b finite numbers; anything else is a :class:`SchemaError`.
A COO matrix's shape is checked against ``params.n`` before anything of that
size is built.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from .circuits import ChannelGate, GeneralCircuit, kraus_gate, measure_gate, reset_gate, unitary_gate
from .matcore import as_form, is_sparse
from .problems import ConditionParams, Kind, ProblemInstance


class SchemaError(ValueError):
    """Malformed document for one of the package's JSON schemas."""


def _integer(x, what: str) -> int:
    """A JSON integer; a float, a string or a bool is not one."""
    if type(x) is not int:
        raise SchemaError(f"{what} {x!r} is not an integer")
    return x


def _number(x, what: str) -> float:
    """A finite JSON number; a string, a bool, NaN, an infinity or an integer
    beyond the float range is not one."""
    try:
        finite = type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        finite = False
    if not finite:
        raise SchemaError(f"{what} {x!r} is not a finite number")
    return float(x)


class Table:
    """A numeric table held as its columns: int64 or float64 arrays of one
    length.  :func:`dumps` writes it as the list of its rows, and
    :meth:`tolist` gives that list."""

    __slots__ = ("columns",)

    def __init__(self, *columns: np.ndarray):
        self.columns = tuple(np.ascontiguousarray(c) for c in columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def tolist(self) -> list[list]:
        return [list(row) for row in zip(*(c.tolist() for c in self.columns))]


def _matrix_doc(a) -> dict:
    """The dense schema for an array, the COO schema for a SciPy sparse
    matrix (never densified), with the numbers in a :class:`Table`."""
    if is_sparse(a):
        csr = as_form(a).tocsr()  # canonical: no repeated positions, no zeros; row-major, sorted columns
        rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr))
        entries = Table(rows, csr.indices.astype(np.int64), csr.data.real, csr.data.imag)
        return {"format": "coo", "rows": int(csr.shape[0]), "cols": int(csr.shape[1]), "entries": entries}
    a = np.asarray(a, dtype=np.complex128)
    v = a.reshape(-1)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": Table(v.real, v.imag)}


def _listed(doc: dict) -> dict:
    """``doc`` with each :class:`Table` value given as its list."""
    return {key: value.tolist() if isinstance(value, Table) else value for key, value in doc.items()}


def matrix_to_json(a) -> dict:
    """The dense schema for an array; the COO schema for a SciPy sparse
    matrix, which is never densified."""
    return _listed(_matrix_doc(a))


def _values(re: list, im: list) -> np.ndarray:
    """complex128 array from parallel lists of finite JSON numbers."""
    if not all(type(x) in (int, float) for x in itertools.chain(re, im)):
        raise SchemaError("matrix values must be numbers")
    out = np.empty(len(re), dtype=np.complex128)
    try:
        out.real, out.imag = re, im
    except OverflowError as exc:
        raise SchemaError(f"matrix value out of range: {exc}") from exc
    if not np.isfinite(out).all():
        raise SchemaError("matrix values must be finite")
    return out


def _shape(obj) -> tuple[int, int]:
    rows, cols = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols")
    if rows < 0 or cols < 0:
        raise SchemaError(f"negative matrix shape {rows}x{cols}")
    return rows, cols


def matrix_from_json(obj) -> np.ndarray:
    """A matrix in the dense schema."""
    try:
        if "format" in obj:
            raise SchemaError(f"expected the dense matrix schema, got format {obj['format']!r}")
        rows, cols = _shape(obj)
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad matrix object: {exc}") from exc
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"matrix data is not a list of {rows}*{cols} entries")
    if not all(isinstance(p, list) and len(p) == 2 for p in data):
        raise SchemaError("dense matrix entries must be [re, im] pairs")
    return _values([p[0] for p in data], [p[1] for p in data]).reshape(rows, cols)


def _coo_from_json(obj, n: int):
    """An n x n matrix in the COO schema, as a SciPy sparse matrix.  Every
    entry is checked before anything of the named shape is built."""
    try:
        shape = _shape(obj)
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad matrix object: {exc}") from exc
    if shape != (n, n):
        raise SchemaError(f"COO matrix is {shape[0]}x{shape[1]}, but params.n = {n}")
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 4 for e in entries):
        raise SchemaError("COO entries must be [i, j, re, im] lists")
    i, j, re, im = (list(c) for c in zip(*entries)) if entries else ([], [], [], [])
    for x in itertools.chain(i, j):
        if type(x) is not int or not 0 <= x < n:
            raise SchemaError(f"COO index {x!r} is not an integer in [0, {n})")
    values = _values(re, im)
    i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
        raise SchemaError("COO matrix repeats a position")
    from scipy import sparse

    return sparse.coo_array((values[order], (i, j)), shape=shape)


def _instance_matrix(obj, n: int):
    """An instance matrix in the dense or the COO schema."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt is None:
        return matrix_from_json(obj)
    if fmt != "coo":
        raise SchemaError(f"unknown matrix format {fmt!r}")
    return _coo_from_json(obj, n)


def _b_to_json(b):
    """b as a number, or as [re, im] when it has an imaginary part."""
    b = complex(b)
    return [b.real, b.imag] if b.imag else b.real


def _b_from_json(obj):
    if obj is None:
        return None
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise SchemaError("complex b must be [re, im]")
        return complex(_number(obj[0], "b"), _number(obj[1], "b"))
    return _number(obj, "b")


def instance_doc(inst: ProblemInstance) -> dict:
    """The instance schema for ``inst``, each matrix's numbers in a
    :class:`Table`: what :func:`save_json` writes without building a Python
    object per entry."""
    out = {
        "type": inst.kind.value,
        "params": {
            "n": inst.params.n,
            "m": inst.params.m,
            "kappa": inst.params.kappa,
            "epsilon": inst.params.epsilon,
        },
        "matrices": [_matrix_doc(a) for a in inst.forms],
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


def instance_to_json(inst: ProblemInstance) -> dict:
    """:func:`instance_doc` with every table given as its list."""
    doc = instance_doc(inst)
    doc["matrices"] = [_listed(m) for m in doc["matrices"]]
    return doc


def instance_from_json(obj) -> ProblemInstance:
    try:
        kind = Kind(obj["type"])
        p = obj["params"]
        params = ConditionParams(
            n=p["n"], m=p["m"], kappa=_number(p["kappa"], "kappa"), epsilon=_number(p["epsilon"], "epsilon")
        )
        matrices = tuple(_instance_matrix(m, params.n) for m in obj["matrices"])
    except SchemaError:
        raise
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
        targets = tuple(_integer(q, "target") for q in obj.get("targets", ()))
        mats = [matrix_from_json(m) for m in obj.get("matrices", ())]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad gate object: {exc}") from exc
    if kind == "unitary" and len(mats) != 1:
        raise SchemaError("unitary gate needs exactly one matrix")
    if kind == "kraus" and not mats:
        raise SchemaError("kraus gate needs at least one matrix")
    if kind in ("measure", "reset") and len(targets) != 1:
        raise SchemaError(f"{kind} gate acts on exactly one qubit")
    try:
        if kind == "unitary":
            return unitary_gate(mats[0], targets, h)
        if kind == "kraus":
            return kraus_gate(mats, targets, h)
        if kind == "measure":
            return measure_gate(targets[0], h)
        if kind == "reset":
            return reset_gate(targets[0], h)
    except ValueError as exc:  # targets outside 1..h, a shape or a Kraus set that does not fit
        raise SchemaError(f"bad {kind} gate: {exc}") from exc
    raise SchemaError(f"unknown gate kind {kind!r}")


def circuit_from_json(obj) -> GeneralCircuit:
    try:
        h = _integer(obj["qubits"], "qubits")
        merlin = _integer(obj.get("merlin_qubits", 0), "merlin_qubits")
        docs = obj["gates"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad circuit object: {exc}") from exc
    if h < 1:
        raise SchemaError(f"qubits = {h}; a circuit needs at least one qubit")
    if not isinstance(docs, list):
        raise SchemaError("gates must be a list")
    gates = tuple(gate_from_json(g, h) for g in docs)
    try:
        return GeneralCircuit(h, gates, merlin)
    except ValueError as exc:
        raise SchemaError(f"inconsistent circuit: {exc}") from exc


# With an indent, CPython's json encodes in pure Python, one chunk per
# number.  The writer below gives the same text; it walks dicts and lists as
# the stdlib does and renders numeric tables a batch of rows at a time.
_INDENT = " "
_BATCH = 1024  # numbers per rendered table batch, about 30 KB of text
_UNIQUE_MIN = 256  # a shorter column is rendered number by number
_WRITE = 1 << 16  # characters written and hashed at a time, about
_quote = json.encoder.encode_basestring_ascii


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


def _scalar(o) -> str | None:
    """The text of a JSON scalar, tested in the stdlib's order; None for
    anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _enter(o, markers: set) -> None:
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))


def _encode(o, level: int, markers: set):
    """The text of ``o`` at indent ``level``, in pieces."""
    text = _scalar(o)
    if text is not None:
        yield text
    elif isinstance(o, Table):
        yield from _encode_table(o, level)
    elif isinstance(o, (list, tuple)):
        yield from _encode_list(o, level, markers)
    elif isinstance(o, dict):
        yield from _encode_dict(o, level, markers)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _encode_list(lst, level: int, markers: set):
    if not lst:
        yield "[]"
        return
    table = _as_table(lst)
    if table is not None:
        yield from _encode_table(table, level)
        return
    _enter(lst, markers)
    level += 1
    sep = ",\n" + _INDENT * level
    buf = "[" + sep[1:]
    for value in lst:
        yield buf
        yield from _encode(value, level, markers)
        buf = sep
    yield "\n" + _INDENT * (level - 1) + "]"
    markers.discard(id(lst))


def _encode_dict(dct, level: int, markers: set):
    if not dct:
        yield "{}"
        return
    _enter(dct, markers)
    level += 1
    sep = ",\n" + _INDENT * level
    buf = "{" + sep[1:]
    for key, value in sorted(dct.items()):
        name = _scalar(key)
        if name is None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        yield buf + (name if isinstance(key, str) else _quote(name)) + ": "
        yield from _encode(value, level, markers)
        buf = sep
    yield "\n" + _INDENT * (level - 1) + "}"
    markers.discard(id(dct))


def _as_table(lst) -> Table | None:
    """``lst`` as a :class:`Table` when it is a list of lists of one length
    k >= 1 whose every column is all ints that fit int64 or all floats;
    None otherwise."""
    if set(map(type, lst)) != {list}:
        return None
    widths = set(map(len, lst))
    if len(widths) != 1 or 0 in widths:
        return None
    columns = []
    for column in zip(*lst):
        types = set(map(type, column))
        if types == {float}:
            columns.append(np.array(column, dtype=np.float64))
        elif types == {int}:
            try:
                columns.append(np.array(column, dtype=np.int64))
            except OverflowError:
                return None
        else:
            return None
    return Table(*columns)


def _texts(values: np.ndarray, before: str, after: str) -> list[str]:
    """The text of each number of ``values`` between ``before`` and ``after``."""
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        return [before + _float(x) + after for x in values.tolist()]
    # %r gives the stdlib's text of an int and of a finite float
    return list(map((before + "%r" + after).__mod__, values.tolist()))


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct bit patterns of ``column`` (so -0.0 and 0.0 differ) and
    each number's index into them; None for a column under ``_UNIQUE_MIN``
    numbers, or one with more distinct numbers than repeats, which is
    rendered a batch at a time instead."""
    if len(column) < _UNIQUE_MIN:
        return None
    bits, index = np.unique(column.view(np.uint64), return_inverse=True)
    return (bits.view(column.dtype), index) if 2 * len(bits) <= len(column) else None


def _encode_table(table: Table, level: int):
    """The rows of ``table`` at indent ``level``, a batch at a time.  Each
    number's text carries the punctuation that follows it, so a batch is one
    join, and a repetitive column renders each distinct number once."""
    if not len(table):
        yield "[]"
        return
    row = "\n" + _INDENT * (level + 1)
    number = "\n" + _INDENT * (level + 2)
    last = len(table.columns) - 1
    columns = []  # (numbers, affix, texts): with texts, numbers index them
    for k, numbers in enumerate(table.columns):
        affix = ("[" if k == 0 else ",") + number, row + "]," + row if k == last else ""
        texts, distinct = None, _distinct(numbers)
        if distinct is not None:
            values, numbers = distinct
            texts = np.array(_texts(values, *affix), dtype=object)
        columns.append((numbers, affix, texts))
    step = max(1, _BATCH // len(columns))
    yield "[" + row
    for start in range(0, len(table), step):
        rows = slice(start, start + step)
        batch = np.empty((min(step, len(table) - start), len(columns)), dtype=object)
        for k, (numbers, affix, texts) in enumerate(columns):
            batch[:, k] = _texts(numbers[rows], *affix) if texts is None else texts[numbers[rows]]
        text = "".join(batch.ravel().tolist())
        yield text if start + step < len(table) else text[: -len(row) - 1]
    yield "\n" + _INDENT * level + "]"


def _pieces(obj):
    """The text of ``dumps(obj)`` in pieces of about ``_WRITE`` characters."""
    buf, size = [], 0
    for text in _encode(obj, 0, set()):
        buf.append(text)
        size += len(text)
        if size >= _WRITE:
            yield "".join(buf)
            buf, size = [], 0
    yield "".join(buf)


def dumps(obj) -> str:
    """``json.JSONEncoder(indent=1, sort_keys=True).encode(obj)``, with each
    :class:`Table` written as its list."""
    return "".join(_encode(obj, 0, set()))


def digest(obj) -> str:
    """SHA-256 of ``dumps(obj)``, hashed a piece at a time."""
    sha = hashlib.sha256()
    for text in _pieces(obj):
        sha.update(text.encode())
    return sha.hexdigest()


def save_json(obj, path) -> str:
    """Write ``dumps(obj)`` and a newline to ``path``; return ``digest(obj)``.

    The text is encoded, hashed and written a piece at a time, so the whole
    document is never held as one string.
    """
    sha = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _pieces(obj):
            data = text.encode()
            sha.update(data)
            fh.write(data)
        fh.write(b"\n")
    return sha.hexdigest()


def load_json(path) -> tuple[object, str]:
    """The JSON document at ``path`` and its :func:`digest`, taken as it is
    loaded, so that a document that cannot be read or written back is
    refused before any work."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc, digest(doc)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"nested too deeply: {path}") from exc
