"""The benchmark's three workloads over condred's public functions.

A workload is built from a seed: that is its set-up (inputs made by
:mod:`reference`, converted to the program's input types or written as input
files, in a pool of ``POOL_ROUNDS`` rounds).  It then runs rounds.  A round
is a fixed list of items, the same operations in every round; only the
seeded inputs change.  ``Item.run`` calls the program and returns what it
produced; ``Item.check`` compares that with the independent reference,
outside the timed phase, and returns the problems found (empty when
correct).

The program is called through module attributes (``problems.oracle_decide``,
not a name imported from it), so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from condred import circuits, cli, problems, reductions, serialize
from condred.problems import ConditionParams, Kind, ProblemInstance

POOL_ROUNDS = 4
ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _seeds(seed: int, r: int, *more: int) -> np.random.Generator:
    return np.random.default_rng((seed, r % POOL_ROUNDS) + more)


class Workload:
    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one item of round 0, outside the timed phase."""
        self.round(0)[0].run()


# ---------------------------------------------------------------------------
# cycles


class Cycles(Workload):
    """One item walks an instance around its whole reduction cycle and
    decides it at both ends.  A round is 12 One/Zero pairs: 6 scalar MATINV+
    pairs and 6 DET+ pairs, the last DET+ pair at n = 2."""

    def __init__(self, seed: int, workdir: str, small: bool = False):
        pairs = 4 if small else 12
        self.pool = [self._inputs(seed, r, pairs) for r in range(POOL_ROUNDS)]

    @staticmethod
    def _inputs(seed: int, r: int, pairs: int) -> list[tuple[ref.CycleInput, ProblemInstance]]:
        out = []
        for j in range(pairs):
            for want_one in (True, False):
                rng = _seeds(seed, r, j, int(want_one))
                if j % 2 == 0:
                    inp = ref.matinv_plus_input(rng, want_one)
                else:
                    inp = ref.det_plus_input(rng, 2 if j == 11 else 1, want_one)
                out.append((inp, _cycle_instance(inp)))
        return out

    def round(self, r: int) -> list[Item]:
        return [_cycle_item(inp, inst) for inp, inst in self.pool[r % POOL_ROUNDS]]


def _cycle_instance(inp: ref.CycleInput) -> ProblemInstance:
    n = inp.matrix.shape[0]
    params = ConditionParams(n, 1, inp.kappa, inp.epsilon)
    return ProblemInstance(Kind(inp.kind), params, (inp.matrix,), s=inp.s, t=inp.t, b=inp.b)


def _cycle_item(inp: ref.CycleInput, inst: ProblemInstance) -> Item:
    path = reductions.MATINV_PLUS_CYCLE if inp.kind == "MATINV+" else reductions.DET_PLUS_CYCLE

    def run():
        src = problems.oracle_decide(inst)
        out, _ = reductions.chain(inst, path)
        dst = problems.oracle_decide(out, check="gap")
        return src.value.value, dst.value.value, out.kind.value

    def check(got) -> list[str]:
        src, dst, kind = got
        want = ref.closed_form_decision(inp)
        found = []
        if src != want:
            found.append(f"source decided {src}, closed form gives {want}")
        if dst != want:
            found.append(f"cycle end decided {dst}, closed form gives {want}")
        if kind != inp.kind:
            found.append(f"cycle ended at {kind}, not {inp.kind}")
        return found

    return Item(f"{inp.kind} n={inst.params.n}", run, check)


# ---------------------------------------------------------------------------
# circuits


class Circuits(Workload):
    """One item compiles a forced measured circuit to MATINV+ and decides
    it.  A round is 12 circuits on h = 2 qubits (1 or 2 random gates before
    the forcing tail) and 2 on h = 3 (the tail alone); accept and reject
    alternate."""

    def __init__(self, seed: int, workdir: str, small: bool = False):
        shapes = [(2, 1 + (j // 2) % 2) for j in range(4 if small else 12)]
        if not small:
            shapes += [(3, 0), (3, 0)]
        self.pool = [
            [self._input(seed, r, j, h, g) for j, (h, g) in enumerate(shapes)]
            for r in range(POOL_ROUNDS)
        ]

    @staticmethod
    def _input(seed, r, j, h, n_gates):
        ci = ref.forced_circuit(_seeds(seed, r, j), h, n_gates, accept=j % 2 == 0)
        return ci, program_circuit(ci)

    def round(self, r: int) -> list[Item]:
        return [_circuit_item(ci, gc) for ci, gc in self.pool[r % POOL_ROUNDS]]


def program_circuit(ci: ref.CircuitInput) -> circuits.GeneralCircuit:
    """The program's circuit, built from the same local operators."""
    gates = []
    for g in ci.gates:
        if g.kind == "unitary":
            gates.append(circuits.unitary_gate(g.ops[0], g.targets, ci.h))
        else:
            gates.append(circuits.kraus_gate(g.ops, g.targets, ci.h, label=g.kind))
    return circuits.GeneralCircuit(ci.h, tuple(gates))


def _circuit_item(ci: ref.CircuitInput, gc: circuits.GeneralCircuit) -> Item:
    def run():
        circ = circuits.append_cleanup(gc)
        prob = circuits.simulate_acceptance(circ)
        plus, _ = circuits.eliminate_measurements(circ)
        dec = problems.oracle_decide(plus, check="gap")
        return prob, dec.value.value, plus.kind.value

    def check(got) -> list[str]:
        prob, dec, kind = got
        own = ref.simulate(ci)
        forced = "One" if ci.accept else "Zero"
        want = ref.threshold_decision(own)
        found = []
        if want != forced:
            found.append(f"reference acceptance {own:.6f} is not forced to {forced}")
        if abs(prob - own) > ENTRY_TOL:
            found.append(f"simulate_acceptance {prob!r} differs from reference {own!r}")
        if dec != want:
            found.append(f"decided {dec}, reference acceptance gives {want}")
        if kind != "MATINV+":
            found.append(f"compiled to {kind}")
        itm = circuits.circuit_to_itmatprod(circuits.append_cleanup(gc))
        entry = ref.designated_entry(itm.matrices, itm.s, itm.t)
        if abs(entry - own) > ENTRY_TOL:
            found.append(f"designated ITMATPROD entry {entry!r} differs from reference {own!r}")
        return found

    return Item(f"h={ci.h} gates={len(ci.gates)}", run, check)


# ---------------------------------------------------------------------------
# cli


def _log_count(x: float) -> int:
    return math.floor(1.0 + math.log(math.floor(x)))


#: instances made by ``gen``: kind, n, m, kappa, epsilon, decision
GEN = {
    "matinv": ("MATINV", 4, 1, 4.0, 0.05, "one"),
    "matinv_plus": ("MATINV+", 4, 1, 4.0, 0.05, "zero"),
    "det_plus": ("DET+", 4, 1, 2.0, 0.3, "one"),
    "itmatprod": ("ITMATPROD", 4, 6, 2.0, 0.02, "zero"),
}


def _expected_outputs() -> dict[str, tuple]:
    """Kind and (n, m, kappa, epsilon) of every reduced instance the script
    writes, from the parameter maps of the rules applied."""
    _, n, m, kappa, eps, _ = GEN["itmatprod"]
    c = math.ceil(1 + kappa)
    matinv = (n * (m + 1) ** 2, 1, (1 + m * kappa) * c, c * eps)
    k_det = (2 + (2 * m + 1) * kappa**2) ** 3
    e_det = eps**2 / (2 + 2 * kappa**2)
    _, dn, _, dk, de, _ = GEN["det_plus"]
    d_m = math.ceil(dk) * _log_count(2 * dn * dk / de)
    _, mn, _, mk, me, _ = GEN["matinv"]
    return {
        "reduce_matinv": ("MATINV+", (2 * mn, 1, (3 * mk) ** 2, 3 * me)),
        "reduce_itmatprod": ("MATPOW", (n * (m + 1), m, kappa, eps)),
        "reduce_det_plus": ("SUMITMATPROD", (dn * (_log_count(dk) + d_m), d_m, 1.0, de / 2)),
        "chain_matinv_plus": ("MATINV+", (2 * matinv[0], 1, (3 * matinv[2]) ** 2, 3 * matinv[3])),
        "chain_det_plus": ("DET+", (n * (2 * m + 2), 1, k_det**2, e_det / 2)),
    }


def _compiled_params(h: int, n_gates: int) -> tuple:
    """MATINV+ parameters of a compiled circuit with ``n_gates`` gates,
    cleanup included: ITMATPROD(d^2, m, d, 1/3) -> MATPOW -> MATINV -> MATINV+."""
    d = 2**h
    c = math.ceil(1 + d)
    n = d * d * (n_gates + 1) ** 2
    return 2 * n, 1, (3 * (1 + n_gates * d) * c) ** 2, 3 * c * (2.0 / 3.0 - 1.0 / 3.0)


class Cli(Workload):
    """One item is one ``condred.cli.main`` call of a fixed script:
    ``compile-circuit`` of an h = 2 circuit, ``gen`` of four small instances,
    two ``chain`` calls, ``verify`` of the four, three ``reduce --measure``,
    and ``solve`` by oracle and by series on MATINV+ and DET+."""

    def __init__(self, seed: int, workdir: str, small: bool = False):
        self.seed = seed
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.dir = None
        # one classically controlled flip before the forcing tail: a fixed gate
        # kind keeps the compiled instance's sparsity the same for every seed
        h, n_gates = (1, 0) if small else (2, 1)
        self.circuits = []
        for r in range(POOL_ROUNDS):
            ci = ref.forced_circuit(_seeds(seed, r), h, n_gates, accept=r % 2 == 0, pool=("cflip",))
            path = os.path.join(self.workdir, f"circuit{r}.json")
            with open(path, "w") as fh:
                json.dump(ref.circuit_json(ci), fh)
            self.circuits.append((ci, path))
        self.expected = _expected_outputs()

    def _path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def warm_up(self) -> None:
        next(item for item in self.round(0) if item.label == "gen_matinv").run()

    def round(self, r: int) -> list[Item]:
        # every round writes new files: truncating a file written moments
        # before makes the file system flush it first, which would time the disk
        if self.dir is not None:
            shutil.rmtree(self.dir)
        self.dir = tempfile.mkdtemp(prefix="round-", dir=self.workdir)
        for sub in ("in", "out", "rep"):
            os.mkdir(self._path(sub))
        gen_seed = self.seed * POOL_ROUNDS + r % POOL_ROUNDS
        gens = {}
        for name, (kind, n, m, kappa, eps, decision) in GEN.items():
            argv = ["gen", "--kind", kind, "--n", str(n), "--m", str(m), "--kappa", str(kappa),
                    "--epsilon", str(eps), "--seed", str(gen_seed), "--decision", decision]
            gens[name] = self._call(f"gen_{name}", argv, (kind, (n, m, kappa, eps)), out=self._path("in", f"{name}.json"))
        ci, path = self.circuits[r % POOL_ROUNDS]
        n_gates = len(ci.gates) + ci.h  # the cleanup suffix adds h gates
        # the call after one that builds a large document runs with a cold
        # allocator; compile-circuit comes first and the chains follow the
        # ITMATPROD gen, so that cost never falls on the small calls that set
        # item_s_p50
        items = [self._call("compile_circuit", ["compile-circuit", path], ("MATINV+", _compiled_params(ci.h, n_gates)),
                            decision="One" if ci.accept else "Zero", out=self._path("out", "compiled.json"),
                            circuit=ci),
                 gens.pop("itmatprod")]
        for target, rules in (("matinv_plus", "itmatprod_to_matpow,matpow_to_matinv,matinv_to_posmatinv"),
                              ("det_plus", "itmatprod_to_nonneg,nonneg_to_det,det_to_posdet")):
            argv = ["chain", self._path("in", "itmatprod.json"), "--rules", rules]
            items.append(self._call(f"chain_{target}", argv, self.expected[f"chain_{target}"],
                                    decision=_answer("itmatprod"), out=self._path("out", f"chain_{target}.json")))
        items += gens.values()
        items.append(self._call("verify", ["verify", self._path("in")], None, files=len(GEN)))
        for name, rule in (("matinv", "matinv_to_posmatinv"), ("itmatprod", "itmatprod_to_matpow"),
                           ("det_plus", "posdet_to_sumitmatprod")):
            argv = ["reduce", self._path("in", f"{name}.json"), "--rule", rule, "--measure"]
            items.append(self._call(f"reduce_{name}", argv, self.expected[f"reduce_{name}"],
                                    decision=_answer(name), out=self._path("out", f"reduce_{name}.json")))
        for name in ("matinv_plus", "det_plus"):
            for method in ("oracle", "series"):
                argv = ["solve", self._path("in", f"{name}.json"), "--method", method]
                items.append(self._call(f"solve_{name}_{method}", argv, None, decision=_answer(name)))
        return items

    def _call(self, label, argv, output, decision=None, out=None, files=None, circuit=None) -> Item:
        report = self._path("rep", f"{label}.json")
        argv = argv + (["--out", out] if out else []) + ["--report", report]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            return code, err.getvalue()

        def check(got) -> list[str]:
            code, err = got
            if code != 0:
                return [f"exit {code}: {err.strip()}"]
            with open(report) as fh:
                rep = json.load(fh)
            found = _check_report(rep, decision, files, circuit)
            if output is not None:
                found += _check_instance(out, *output)
            return found

        return Item(label, run, check)


def _answer(gen_name: str) -> str:
    return "One" if GEN[gen_name][5] == "one" else "Zero"


def _check_report(rep, decision, files, circuit) -> list[str]:
    found = []
    checks = rep.get("checks", [])
    for f in rep.get("files", []):
        checks = checks + f["checks"]
    failing = [c["name"] for c in checks if not c["pass"]]
    if failing:
        found.append(f"promise checks fail: {failing}")
    if files is not None and len(rep["files"]) != files:
        found.append(f"verified {len(rep['files'])} files, not {files}")
    decisions = rep.get("decisions", {})
    for role, d in decisions.items():
        value = d if isinstance(d, str) else d["value"]
        if value != decision:
            found.append(f"{role} decision {value}, constructed answer {decision}")
    if decision is not None and not decisions:
        found.append("report has no decision")
    if "identity_residual" in rep and not rep["identity_residual"] <= 1e-8:
        found.append(f"identity residual {rep['identity_residual']}")
    for rec in rep.get("provenance", []):
        for b in rec["bounds"]:
            if b["measured"] is None:
                continue
            ok = b["measured"] <= b["declared"] + 1e-7 if b["direction"] == "upper" else b["measured"] >= b["declared"] - 1e-7
            if not ok:
                found.append(f"{rec['rule']}: bound {b['quantity']} measured {b['measured']}")
    if circuit is not None:
        own = ref.simulate(circuit)
        if abs(rep["simulated_acceptance"] - own) > ENTRY_TOL:
            found.append(f"simulated_acceptance {rep['simulated_acceptance']!r} differs from reference {own!r}")
    return found


def _check_instance(path, kind, params) -> list[str]:
    with open(path) as fh:
        inst = serialize.instance_from_json(json.load(fh))
    n, m, kappa, eps = params
    got = inst.params
    found = []
    if inst.kind.value != kind:
        found.append(f"{path}: kind {inst.kind.value}, expected {kind}")
    if (got.n, got.m) != (n, m) or not (math.isclose(got.kappa, kappa) and math.isclose(got.epsilon, eps)):
        found.append(f"{path}: params {got}, expected {(n, m, kappa, eps)}")
    shapes = {a.shape for a in inst.matrices}
    if shapes != {(n, n)}:
        found.append(f"{path}: matrix shapes {shapes}, expected {(n, n)}")
    return found


WORKLOADS = {"cycles": Cycles, "circuits": Circuits, "cli": Cli}
