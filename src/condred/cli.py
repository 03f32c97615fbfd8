"""Batch front end.

Subcommands: ``gen``, ``verify``, ``reduce``, ``chain``, ``compile-circuit``,
``solve``.  Every command can emit a machine-readable run report
(``--report``) that embeds input digests, per-check records and reduction
provenance; re-running the same command reproduces the report byte for byte
except for the wall-time field.

Exit status: 0 success, 1 promise violation detected, 2 usage/schema error,
3 internal error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import reductions, series
from .circuits import ELIMINATION_RULES, append_cleanup, circuit_to_itmatprod, simulate_acceptance
from .matcore import DEFAULT_TOL
from .problems import (
    ConditionParams,
    DecisionValue,
    Kind,
    _output,
    check_promise,
    gen_instance,
    oracle_decide,
)
from .serialize import (
    SchemaError,
    circuit_from_json,
    instance_doc,
    instance_from_json,
    load_json,
    save_json,
)

EXIT_OK = 0
EXIT_PROMISE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _report_checks(report) -> list[dict]:
    return [
        {"name": c.name, "declared": c.declared, "measured": c.measured, "pass": c.passed}
        for c in report.checks
    ]


def _record_to_json(rec: reductions.ReductionRecord) -> dict:
    bounds = [{"quantity": b.quantity, "declared": b.declared, "direction": "upper" if b.upper else "lower",
               "measured": b.measured} for b in rec.declared_bounds]
    return {"rule": rec.rule, "input_params": vars(rec.input_params), "output_params": vars(rec.output_params),
            "answer_map": rec.map.text, "bounds": bounds}


def _emit_report(args, payload: dict) -> None:
    """Write ``payload`` and the time since :func:`main` began to ``--report``,
    if given."""
    if args.report is not None:
        save_json({**payload, "wall_time_s": time.perf_counter() - args.started}, args.report)


def _load(path):
    """The digest of the JSON document at ``path`` and the instance it holds."""
    doc, in_digest = load_json(path)
    return in_digest, instance_from_json(doc)


def _refused(exc: Exception) -> int:
    """Exit status for a rule path or a series that could not be applied: a
    refusal of a promise-violating instance is a promise violation, and any
    other refusal (an unknown or ill-typed rule, a kind with no series) a
    usage error."""
    if isinstance(exc, series.PromiseViolation):
        print(f"promise violation: {exc}", file=sys.stderr)
        return EXIT_PROMISE
    # str() of a KeyError is the repr of its message
    print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
    return EXIT_USAGE


def _decision_json(d, **extra) -> dict:
    w = d.witness_value
    if isinstance(w, complex):
        w = [w.real, w.imag]
    return {"value": d.value.value, "witness_value": w, **extra}


def cmd_gen(args) -> int:
    want = {"one": True, "zero": False, "auto": None}[args.decision]
    try:
        params = ConditionParams(n=args.n, m=args.m, kappa=args.kappa, epsilon=args.epsilon)
        inst = gen_instance(Kind(args.kind), params, args.seed, want_one=want)
    except ValueError as exc:  # invalid or infeasible parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_digest = save_json(instance_doc(inst), args.out)
    report = check_promise(inst, tol=args.tol)
    print(f"wrote {args.out}  kind={inst.kind.value}  promise={'pass' if report.overall else 'FAIL'}")
    _emit_report(args, {
        "command": ["gen", args.kind, f"n={args.n}", f"seed={args.seed}"],
        "output_digest": out_digest,
        "checks": _report_checks(report),
    })
    return EXIT_OK if report.overall else EXIT_PROMISE


def cmd_verify(args) -> int:
    p = Path(args.path)
    paths = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not paths:
        print(f"error: no *.json files under {p}", file=sys.stderr)
        return EXIT_USAGE
    loaded = [(path, *_load(path)) for path in paths]  # a malformed file refuses the batch before any output
    rows = []
    for path, in_digest, inst in loaded:
        report = check_promise(inst, tol=args.tol)
        rows.append((path, in_digest, report))
        verdict = "pass" if report.overall else "VIOLATED: " + ", ".join(report.failing())
        print(f"{path}: {verdict}")
    ok = sum(1 for _, _, r in rows if r.overall)
    if len(rows) > 1:
        print(f"{ok}/{len(rows)} instances pass")
    _emit_report(args, {
        "command": ["verify", str(args.path)],
        "files": [
            {"path": str(path), "input_digest": d, "checks": _report_checks(r)}
            for path, d, r in rows
        ],
    })
    return EXIT_OK if ok == len(rows) else EXIT_PROMISE


def _decide_ends(args, in_digest, inst, out, records, command, head: str, extra: dict) -> int:
    """The tail shared by ``reduce`` and ``chain``: save ``out``, decide the
    source at ``--tol`` and the end's value at the tolerance the chain
    carries there (its other clauses at ``--tol``), print ``head`` and the
    two decisions, and write the report (``extra`` goes first).  Exit 1 when
    the source violates its promise or the ends disagree."""
    out_digest = save_json(instance_doc(out), args.out)
    src_dec = oracle_decide(inst, tol=args.tol, check=args.check)
    value_tol = reductions.carried_tol(records, args.tol)
    dst_dec = oracle_decide(out, tol=args.tol, check=args.check, value_tol=value_tol)
    agree = src_dec.value == dst_dec.value
    print(f"{head}decisions {src_dec.value.value}/{dst_dec.value.value} {'agree' if agree else 'DISAGREE'}")
    _emit_report(args, {
        "command": command,
        "input_digest": in_digest,
        "output_digest": out_digest,
        **extra,
        "decisions": {"source": _decision_json(src_dec), "target": _decision_json(dst_dec, value_tol=value_tol)},
        "provenance": [_record_to_json(r) for r in records],
    })
    if src_dec.value is DecisionValue.PROMISE_VIOLATED or not agree:
        return EXIT_PROMISE
    return EXIT_OK


def cmd_reduce(args) -> int:
    in_digest, inst = _load(args.path)
    try:
        out, (rec,) = reductions.chain(inst, [args.rule])
    except (KeyError, ValueError) as exc:
        return _refused(exc)
    if args.measure:
        rec = reductions.measure_record(rec, inst, out)
    residual = reductions.identity_residual(args.rule, inst, out)
    head = (
        f"{args.rule}: {inst.kind.value} (n={inst.params.n}) -> {out.kind.value} "
        f"(n={out.params.n}); identity residual "
        f"{'undefined' if residual is None else f'{residual:.3e}'}; "
    )
    return _decide_ends(args, in_digest, inst, out, [rec], ["reduce", args.rule], head,
                        {"identity_residual": residual})


def cmd_chain(args) -> int:
    in_digest, inst = _load(args.path)
    path = [r for r in args.rules.split(",") if r] if args.rules else []
    try:
        out, records = reductions.chain(inst, path)
    except (KeyError, ValueError) as exc:
        return _refused(exc)
    head = f"chain of {len(path)} rules: {inst.kind.value} -> {out.kind.value} (n={out.params.n}); "
    return _decide_ends(args, in_digest, inst, out, records, ["chain", args.rules], head, {})


def cmd_compile_circuit(args) -> int:
    doc, in_digest = load_json(args.path)
    circ = append_cleanup(circuit_from_json(doc))
    try:
        src = circuit_to_itmatprod(circ)
    except ValueError as exc:  # a circuit with a proof register
        return _refused(exc)
    prob = simulate_acceptance(circ)
    inst, records = reductions.chain(src, () if args.target == "itmatprod" else ELIMINATION_RULES)
    out_digest = save_json(instance_doc(inst), args.out)
    value_tol = reductions.carried_tol(records, args.tol)
    dec = oracle_decide(inst, tol=args.tol, check=args.check, value_tol=value_tol)
    expected = _output(src, prob).decide(args.tol)  # the acceptance on the encoding's Output clause
    agree = dec.value == expected
    print(
        f"compiled to {inst.kind.value} (n={inst.params.n}, m={inst.params.m}); "
        f"acceptance={prob:.6f}, oracle={dec.value.value}, expected={expected.value}"
        f" {'(agree)' if agree else '(DISAGREE)'}"
    )
    _emit_report(args, {
        "command": ["compile-circuit", args.target],
        "input_digest": in_digest,
        "output_digest": out_digest,
        "simulated_acceptance": prob,
        "decisions": {"expected": expected.value, "oracle": _decision_json(dec, value_tol=value_tol)},
        "provenance": [_record_to_json(r) for r in records],
    })
    if expected is DecisionValue.PROMISE_VIOLATED or not agree:
        return EXIT_PROMISE
    return EXIT_OK


def cmd_solve(args) -> int:
    in_digest, inst = _load(args.path)
    payload: dict = {"command": ["solve", args.method], "input_digest": in_digest}
    if args.method == "oracle":
        dec = oracle_decide(inst, tol=args.tol, check=args.check)
        payload["decisions"] = {"oracle": _decision_json(dec)}
        print(f"oracle: {dec.value.value} (witness {dec.witness_value})")
    else:
        try:
            dec, approx = series.decide(inst, args.tol)
        except ValueError as exc:
            return _refused(exc)
        payload["decisions"] = {"series": {"value": dec.value.value}}
        payload["series"] = {
            "value": dec.witness_value,
            "terms_used": approx.terms_used,
            "certified_error": approx.certified_error,
        }
        print(
            f"series: {dec.value.value} (value {dec.witness_value:.12g}, {approx.terms_used} terms, "
            f"certified error {approx.certified_error:.3g})"
        )
    _emit_report(args, payload)
    return EXIT_PROMISE if dec.value is DecisionValue.PROMISE_VIOLATED else EXIT_OK


def _tolerance(text: str) -> float:
    """The ``--tol`` type: a finite number >= 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``condred`` parser, built once per process.  Each subcommand's
    ``func`` looks its ``cmd_*`` up when it is called, so the parser still
    runs a ``cmd_*`` replaced later (a tracer's wrapper, a test's spy)."""
    parser = argparse.ArgumentParser(
        prog="condred",
        description="well-conditioned matrix promise problems: generation, "
        "verification, reductions and circuit compilation",
    )
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help=f"numeric tolerance (default {DEFAULT_TOL})")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--kind", required=True, choices=[k.value for k in Kind])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decision", choices=["one", "zero", "auto"], default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda args: cmd_gen(args))

    p = sub.add_parser("verify", help="check every promise clause of an instance file or directory")
    p.add_argument("path")
    p.set_defaults(func=lambda args: cmd_verify(args))

    p = sub.add_parser("reduce", help="apply one reduction rule")
    p.add_argument("path")
    p.add_argument("--rule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--measure", action="store_true", help="measure declared bounds (slower)")
    p.add_argument("--check", choices=["full", "gap", "none"], default="full")
    p.set_defaults(func=lambda args: cmd_reduce(args))

    p = sub.add_parser("chain", help="apply a comma-separated rule path")
    p.add_argument("path")
    p.add_argument("--rules", required=True, help="e.g. itmatprod_to_matpow,matpow_to_matinv")
    p.add_argument("--out", required=True)
    p.add_argument("--check", choices=["full", "gap", "none"], default="gap")
    p.set_defaults(func=lambda args: cmd_chain(args))

    p = sub.add_parser("compile-circuit", help="compile a circuit JSON to an instance")
    p.add_argument("path")
    p.add_argument("--target", choices=["itmatprod", "matinv_plus"], default="matinv_plus")
    p.add_argument("--out", required=True)
    p.add_argument("--check", choices=["full", "gap", "none"], default="gap")
    p.set_defaults(func=lambda args: cmd_compile_circuit(args))

    p = sub.add_parser("solve", help="decide an instance by oracle or certified series")
    p.add_argument("path")
    p.add_argument("--method", choices=["oracle", "series"], default="oracle")
    p.add_argument("--check", choices=["full", "gap", "none"], default="full",
                   help="promise clauses checked before an oracle decision (--method oracle only; "
                   "the series always checks the spectral clauses its certificate needs)")
    p.set_defaults(func=lambda args: cmd_solve(args))

    for p in sub.choices.values():  # every command writes its report (_emit_report)
        p.add_argument("--report", help="write a JSON run report to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    args.started = time.perf_counter()
    try:
        for path in (getattr(args, "out", None), args.report):  # refused before any work
            if path is not None and Path(path).is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
        with np.errstate(all="ignore"):  # an input that overflows ends as a verdict, not a warning
            return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing file, or a path that names a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, never a verdict
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
