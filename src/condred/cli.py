"""Batch front end.

Subcommands: ``gen``, ``verify``, ``reduce``, ``chain``, ``compile-circuit``,
``solve``.  Every command can emit a machine-readable run report
(``--report``) that embeds input digests, per-check records and reduction
provenance; re-running the same command reproduces the report byte for byte
except for the wall-time field.

Exit status: 0 success, 1 promise violation detected, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import reductions
from .circuits import append_cleanup, circuit_to_itmatprod, eliminate_measurements, simulate_acceptance
from .problems import (
    ConditionParams,
    DecisionValue,
    Kind,
    check_promise,
    gen_instance,
    oracle_decide,
)
from .serialize import (
    SchemaError,
    circuit_from_json,
    digest,
    instance_from_json,
    instance_to_json,
    load_json,
    save_json,
)
from .series import PromiseViolation, logdet_series, neumann_inverse_entry

EXIT_OK = 0
EXIT_PROMISE = 1
EXIT_USAGE = 2


def _report_checks(report) -> list[dict]:
    return [
        {"name": c.name, "declared": c.declared, "measured": c.measured, "pass": c.passed}
        for c in report.checks
    ]


def _record_to_json(rec: reductions.ReductionRecord) -> dict:
    return {
        "rule": rec.rule,
        "input_params": vars(rec.input_params),
        "output_params": vars(rec.output_params),
        "answer_map": rec.answer_map,
        "bounds": [
            {
                "quantity": b.quantity,
                "declared": b.declared,
                "direction": "upper" if b.upper else "lower",
                "measured": b.measured,
            }
            for b in rec.declared_bounds
        ],
    }


def _emit_report(path, payload: dict, started: float) -> None:
    if path is None:
        return
    payload = dict(payload)
    payload["wall_time_s"] = time.perf_counter() - started
    save_json(payload, path)


def _decision_json(d) -> dict:
    w = d.witness_value
    if isinstance(w, complex):
        w = [w.real, w.imag]
    return {"value": d.value.value, "witness_value": w}


def cmd_gen(args) -> int:
    want = {"one": True, "zero": False, "auto": None}[args.decision]
    started = time.perf_counter()
    try:
        params = ConditionParams(n=args.n, m=args.m, kappa=args.kappa, epsilon=args.epsilon)
        inst = gen_instance(Kind(args.kind), params, args.seed, want_one=want)
    except ValueError as exc:  # invalid or infeasible parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_digest = save_json(instance_to_json(inst), args.out)
    report = check_promise(inst, tol=args.tol)
    print(f"wrote {args.out}  kind={inst.kind.value}  promise={'pass' if report.overall else 'FAIL'}")
    _emit_report(
        args.report,
        {
            "command": ["gen", args.kind, f"n={args.n}", f"seed={args.seed}"],
            "output_digest": out_digest,
            "checks": _report_checks(report),
        },
        started,
    )
    return EXIT_OK if report.overall else EXIT_PROMISE


def cmd_verify(args) -> int:
    started = time.perf_counter()
    paths = []
    p = Path(args.path)
    if p.is_dir():
        paths = sorted(p.glob("*.json"))
        if not paths:
            print(f"error: no *.json files under {p}", file=sys.stderr)
            return EXIT_USAGE
    else:
        paths = [p]
    rows = []
    any_fail = False
    for path in paths:
        inst = instance_from_json(load_json(path))
        report = check_promise(inst, tol=args.tol)
        any_fail |= not report.overall
        rows.append((path, digest(instance_to_json(inst)), report))
        verdict = "pass" if report.overall else "VIOLATED: " + ", ".join(report.failing())
        print(f"{path}: {verdict}")
    if len(rows) > 1:
        ok = sum(1 for _, _, r in rows if r.overall)
        print(f"{ok}/{len(rows)} instances pass")
    _emit_report(
        args.report,
        {
            "command": ["verify", str(args.path)],
            "files": [
                {"path": str(path), "input_digest": d, "checks": _report_checks(r)}
                for path, d, r in rows
            ],
        },
        started,
    )
    return EXIT_PROMISE if any_fail else EXIT_OK


def cmd_reduce(args) -> int:
    started = time.perf_counter()
    doc = load_json(args.path)
    inst = instance_from_json(doc)
    try:
        out, rec = reductions.apply_rule(args.rule, inst)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.measure:
        rec = reductions.measure_record(rec, inst, out)
    residual = reductions.identity_residual(args.rule, inst, out)
    out_digest = save_json(instance_to_json(out), args.out)
    src_dec = oracle_decide(inst, tol=args.tol, check=args.check)
    dst_dec = oracle_decide(out, tol=args.tol, check=args.check)
    agree = src_dec.value == dst_dec.value
    print(
        f"{args.rule}: {inst.kind.value} (n={inst.params.n}) -> {out.kind.value} "
        f"(n={out.params.n}); identity residual {residual:.3e}; decisions "
        f"{src_dec.value.value}/{dst_dec.value.value} {'agree' if agree else 'DISAGREE'}"
    )
    _emit_report(
        args.report,
        {
            "command": ["reduce", args.rule],
            "input_digest": digest(doc),
            "output_digest": out_digest,
            "identity_residual": residual,
            "decisions": {"source": _decision_json(src_dec), "target": _decision_json(dst_dec)},
            "provenance": [_record_to_json(rec)],
        },
        started,
    )
    if src_dec.value is DecisionValue.PROMISE_VIOLATED or not agree:
        return EXIT_PROMISE
    return EXIT_OK


def cmd_chain(args) -> int:
    started = time.perf_counter()
    doc = load_json(args.path)
    inst = instance_from_json(doc)
    path = [r for r in args.rules.split(",") if r] if args.rules else []
    try:
        out, records = reductions.chain(inst, path)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_digest = save_json(instance_to_json(out), args.out)
    src_dec = oracle_decide(inst, tol=args.tol, check=args.check)
    dst_dec = oracle_decide(out, tol=args.tol, check=args.check)
    agree = src_dec.value == dst_dec.value
    print(
        f"chain of {len(path)} rules: {inst.kind.value} -> {out.kind.value} (n={out.params.n}); "
        f"decisions {src_dec.value.value}/{dst_dec.value.value} {'agree' if agree else 'DISAGREE'}"
    )
    _emit_report(
        args.report,
        {
            "command": ["chain", args.rules],
            "input_digest": digest(doc),
            "output_digest": out_digest,
            "decisions": {"source": _decision_json(src_dec), "target": _decision_json(dst_dec)},
            "provenance": [_record_to_json(r) for r in records],
        },
        started,
    )
    if src_dec.value is DecisionValue.PROMISE_VIOLATED or not agree:
        return EXIT_PROMISE
    return EXIT_OK


def cmd_compile_circuit(args) -> int:
    started = time.perf_counter()
    doc = load_json(args.path)
    circ = circuit_from_json(doc)
    circ = append_cleanup(circ)
    prob = simulate_acceptance(circ)
    if args.target == "itmatprod":
        inst = circuit_to_itmatprod(circ)
        records = []
    else:
        inst, records = eliminate_measurements(circ)
    out_digest = save_json(instance_to_json(inst), args.out)
    dec = oracle_decide(inst, tol=args.tol, check=args.check)
    expected = (
        DecisionValue.ONE
        if prob >= 2.0 / 3.0
        else DecisionValue.ZERO
        if prob <= 1.0 / 3.0
        else DecisionValue.PROMISE_VIOLATED
    )
    agree = dec.value == expected
    print(
        f"compiled to {inst.kind.value} (n={inst.params.n}, m={inst.params.m}); "
        f"acceptance={prob:.6f}, oracle={dec.value.value}, expected={expected.value}"
        f" {'(agree)' if agree else '(DISAGREE)'}"
    )
    _emit_report(
        args.report,
        {
            "command": ["compile-circuit", args.target],
            "input_digest": digest(doc),
            "output_digest": out_digest,
            "simulated_acceptance": prob,
            "decisions": {"expected": expected.value, "oracle": _decision_json(dec)},
            "provenance": [_record_to_json(r) for r in records],
        },
        started,
    )
    if expected is DecisionValue.PROMISE_VIOLATED or not agree:
        return EXIT_PROMISE
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.perf_counter()
    doc = load_json(args.path)
    inst = instance_from_json(doc)
    payload: dict = {"command": ["solve", args.method], "input_digest": digest(doc)}
    if args.method == "oracle":
        dec = oracle_decide(inst, tol=args.tol, check=args.check)
        payload["decisions"] = {"oracle": _decision_json(dec)}
        print(f"oracle: {dec.value.value} (witness {dec.witness_value})")
        _emit_report(args.report, payload, started)
        return EXIT_PROMISE if dec.value is DecisionValue.PROMISE_VIOLATED else EXIT_OK
    # certified-series route, for the positive definite kinds only
    if inst.kind not in (Kind.DET_PLUS, Kind.MATINV_PLUS):
        print("error: --method series needs a DET+ or MATINV+ instance", file=sys.stderr)
        return EXIT_USAGE
    p = inst.params
    try:
        if inst.kind is Kind.DET_PLUS:
            approx = logdet_series(inst.matrix, p.kappa, p.epsilon, tol=args.tol)
            # one-sided certificate: value >= ln det H, so compare at b
            value = float(np.real(approx.value))
            decided = DecisionValue.ONE if value >= float(np.real(inst.b)) else DecisionValue.ZERO
        else:
            approx = neumann_inverse_entry(inst.matrix, inst.s, inst.t, p.kappa, p.epsilon, tol=args.tol)
            value = float(abs(approx.value))
            decided = (
                DecisionValue.ONE
                if value >= float(np.real(inst.b)) - p.epsilon / 4.0
                else DecisionValue.ZERO
            )
    except PromiseViolation as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return EXIT_PROMISE
    payload["decisions"] = {"series": {"value": decided.value}}
    payload["series"] = {
        "value": value,
        "terms_used": approx.terms_used,
        "certified_error": approx.certified_error,
    }
    print(
        f"series: {decided.value} (value {value:.12g}, {approx.terms_used} terms, "
        f"certified error {approx.certified_error:.3g})"
    )
    _emit_report(args.report, payload, started)
    return EXIT_OK


def run_self_test(tol: float) -> int:
    """Quick invariant battery over every subsystem; one table row each."""
    from . import selftest

    rows = selftest.run_all(tol)
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, detail in rows:
        status = "ok" if ok else "FAIL"
        failures += not ok
        print(f"{name:<{width}}  {status:<4}  {detail}")
    print(f"{len(rows) - failures}/{len(rows)} self-test groups pass")
    return EXIT_OK if failures == 0 else EXIT_PROMISE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condred",
        description="well-conditioned matrix promise problems: generation, "
        "verification, reductions and circuit compilation",
    )
    parser.add_argument("--self-test", action="store_true", help="run the invariant suite and exit")
    parser.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance (default 1e-9)")
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
    p.add_argument("--report")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check every promise clause of an instance file or directory")
    p.add_argument("path")
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="apply one reduction rule")
    p.add_argument("path")
    p.add_argument("--rule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--measure", action="store_true", help="measure declared bounds (slower)")
    p.add_argument("--check", choices=["full", "gap", "none"], default="full")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("chain", help="apply a comma-separated rule path")
    p.add_argument("path")
    p.add_argument("--rules", required=True, help="e.g. itmatprod_to_matpow,matpow_to_matinv")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--check", choices=["full", "gap", "none"], default="gap")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("compile-circuit", help="compile a circuit JSON to an instance")
    p.add_argument("path")
    p.add_argument("--target", choices=["itmatprod", "matinv_plus"], default="matinv_plus")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--check", choices=["full", "gap", "none"], default="gap")
    p.set_defaults(func=cmd_compile_circuit)

    p = sub.add_parser("solve", help="decide an instance by oracle or certified series")
    p.add_argument("path")
    p.add_argument("--method", choices=["oracle", "series"], default="oracle")
    p.add_argument("--report")
    p.add_argument("--check", choices=["full", "gap", "none"], default="full")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test(args.tol)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
