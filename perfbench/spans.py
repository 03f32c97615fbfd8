"""Span tracer that wraps condred's public functions from the outside.

``Tracer.install`` replaces each traced function, wherever a condred module
holds a reference to it, by a wrapper that records a span (name, start,
end, parent, item id), and replaces every entry of ``reductions.RULES`` so
that each rule application is a span named after its rule.  Spans are kept
in memory and written once, at the end of the run.  The program's source is
not touched; ``uninstall`` puts the original functions back.

Memory per layer: reductions and problems spans run under ``tracemalloc``,
started at the outermost such span and stopped when it ends, which costs
little because their memory is numpy buffers.  JSON encoding builds millions
of small Python objects, which ``tracemalloc`` slows about sixfold, so a
serialize span instead reports how far it raised the process's peak RSS
above the RSS it started at (spans that do not raise the peak report
nothing).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import sys
import time
import tracemalloc

import numpy as np

#: (module, function, span name); a span name's first part is its layer
TRACED = (
    ("problems", "oracle_decide", "problems.oracle"),
    ("problems", "check_promise", "problems.check_promise"),
    ("problems", "gen_instance", "problems.gen"),
    ("reductions", "identity_residual", "reductions.identity_residual"),
    ("reductions", "measure_record", "reductions.measure_record"),
    ("circuits", "circuit_to_itmatprod", "circuits.encode"),
    ("circuits", "simulate_acceptance", "circuits.simulate"),
    ("series", "logdet_series", "series.solve"),
    ("series", "neumann_inverse_entry", "series.solve"),
    ("serialize", "instance_to_json", "serialize.to_json"),
    ("serialize", "dumps", "serialize.to_json"),
    ("serialize", "digest", "serialize.to_json"),
    ("serialize", "save_json", "serialize.save"),
    ("serialize", "load_json", "serialize.load"),
    ("serialize", "instance_from_json", "serialize.from_json"),
    ("serialize", "circuit_from_json", "serialize.from_json"),
    ("cli", "cmd_gen", "cli.gen"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_reduce", "cli.reduce"),
    ("cli", "cmd_chain", "cli.chain"),
    ("cli", "cmd_solve", "cli.solve"),
    ("cli", "cmd_compile_circuit", "cli.compile_circuit"),
)
TRACEMALLOC_LAYERS = ("reductions", "problems")
MB = 1024.0 * 1024.0
PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


def _peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclasses.dataclass
class _Open:
    name: str
    start: float
    parent: int | None
    mem_base: int | None = None  # tracemalloc current at entry
    mem_seen: int = 0  # tracemalloc peak folded in from before child resets
    rss_base: int | None = None
    hwm_base: int = 0
    owns_tracing: bool = False


class Tracer:
    """Records spans while ``active``; counts are taken at the same calls."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.stack: list[tuple[int, _Open]] = []
        self.item: str | None = None
        self.active = False
        self.maxima: dict[str, float] = {}
        self.sums: dict[str, float] = {}
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> _Open:
        layer = name.split(".")[0]
        frame = _Open(name, 0.0, self.stack[-1][0] if self.stack else None)
        if layer in TRACEMALLOC_LAYERS:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                frame.owns_tracing = True
            cur, peak = tracemalloc.get_traced_memory()
            self._fold(peak)
            tracemalloc.reset_peak()
            frame.mem_base = cur
        elif layer == "serialize":
            frame.rss_base, frame.hwm_base = _rss(), _peak_rss()
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents before children
        self.stack.append((index, frame))
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Open) -> None:
        end = time.perf_counter()
        index, _ = self.stack.pop()
        self.spans[index] = (frame.name, frame.start, end, frame.parent, self.item)
        layer = frame.name.split(".")[0]
        if frame.mem_base is not None:
            _, peak = tracemalloc.get_traced_memory()
            self.maximum(f"{layer}.peak_alloc", max(frame.mem_seen, peak) - frame.mem_base)
            self._fold(peak)
            if frame.owns_tracing:
                tracemalloc.stop()
        elif frame.rss_base is not None:
            hwm = _peak_rss()
            if hwm > frame.hwm_base:
                self.maximum(f"{layer}.peak_alloc", hwm - frame.rss_base)

    def _fold(self, peak: int) -> None:
        for _, f in self.stack:
            if f.mem_base is not None:
                f.mem_seen = max(f.mem_seen, peak)

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                observe(result, *args)
            return result

        return wrapper

    def run_item(self, item_id: str, fn):
        """Run one benchmark item under a root span named ``item``."""
        if not self.active:
            return fn()
        self.item = item_id
        frame = self._enter("item")
        try:
            return fn()
        finally:
            self._exit(frame)
            self.item = None

    # -- counts --------------------------------------------------------------

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def _rule_output(self, result, *_):
        out = result[0]
        self.maximum("reductions.out_dim", out.params.n)
        self.maximum("reductions.out_nnz", sum(int(np.count_nonzero(a)) for a in out.matrices))
        self.maximum("reductions.out_bytes", sum(a.nbytes for a in out.matrices))

    def _superops(self, result, *_):
        self.maximum("circuits.superop_bytes", sum(a.nbytes for a in result.matrices))

    def _terms(self, result, *_):
        self.add("series.terms", result.terms_used)

    def _written(self, _result, _obj, path):
        self.add("serialize.bytes_written", os.path.getsize(path))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        from condred import reductions

        modules = [m for name, m in sys.modules.items() if name == "condred" or name.startswith("condred.")]
        observers = {
            "circuits.encode": self._superops,
            "series.solve": self._terms,
            "serialize.save": self._written,
        }
        for mod_name, attr, name in TRACED:
            original = getattr(sys.modules[f"condred.{mod_name}"], attr)
            wrapped = self.span(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        saved = dict(reductions.RULES)
        for key, rule in saved.items():
            reductions.RULES[key] = dataclasses.replace(
                rule, apply=self.span(f"reductions.{key}", rule.apply, self._rule_output)
            )
        self._undo.append((reductions.RULES, None, saved))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if key is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out


def layer_metrics(tracer: Tracer, items: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark; 0 where the workload does not
    reach the layer.  Times are seconds per item finished: self time, except
    ``cli.*``, which is the whole command."""
    own = tracer.self_times()
    whole = tracer.totals()
    rules = {k[len("reductions.") :]: v for k, v in own.items() if k.startswith("reductions.")}
    rule_names = [k for k in rules if k not in ("identity_residual", "measure_record")]
    per_item = lambda seconds: (seconds / items, "s/item")
    m, x, s = {}, tracer.maxima, tracer.sums
    m["reductions.build_s"] = per_item(sum(rules[k] for k in rule_names))
    for rule in ("det_to_posdet", "nonneg_to_det", "matinv_to_posmatinv", "matpow_to_matinv"):
        m[f"reductions.{rule}_s"] = per_item(rules.get(rule, 0.0))
    m["reductions.out_dim_max"] = (x.get("reductions.out_dim", 0), "count")
    m["reductions.out_nnz_max"] = (x.get("reductions.out_nnz", 0), "count")
    m["reductions.out_bytes_max"] = (x.get("reductions.out_bytes", 0), "B")
    m["reductions.peak_alloc_mb"] = (x.get("reductions.peak_alloc", 0) / MB, "MB")
    m["reductions.identity_residual_s"] = per_item(rules.get("identity_residual", 0.0))
    m["reductions.measure_record_s"] = per_item(rules.get("measure_record", 0.0))
    m["problems.oracle_s"] = per_item(own.get("problems.oracle", 0.0))
    m["problems.check_promise_s"] = per_item(own.get("problems.check_promise", 0.0))
    m["problems.gen_s"] = per_item(own.get("problems.gen", 0.0))
    m["problems.peak_alloc_mb"] = (x.get("problems.peak_alloc", 0) / MB, "MB")
    m["circuits.encode_s"] = per_item(own.get("circuits.encode", 0.0))
    m["circuits.simulate_s"] = per_item(own.get("circuits.simulate", 0.0))
    m["circuits.superop_bytes"] = (x.get("circuits.superop_bytes", 0), "B")
    m["series.solve_s"] = per_item(own.get("series.solve", 0.0))
    m["series.terms"] = (s.get("series.terms", 0) / rounds, "count")
    for part in ("to_json", "save", "load", "from_json"):
        m[f"serialize.{part}_s"] = per_item(own.get(f"serialize.{part}", 0.0))
    m["serialize.bytes_written"] = (s.get("serialize.bytes_written", 0) / items, "B/item")
    m["serialize.peak_alloc_mb"] = (x.get("serialize.peak_alloc", 0) / MB, "MB")
    for cmd in ("gen", "verify", "reduce", "chain", "solve", "compile_circuit"):
        m[f"cli.{cmd}_s"] = per_item(whole.get(f"cli.{cmd}", 0.0))
    return m
