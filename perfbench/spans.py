"""Span recording around the public functions of greenpremium's modules.

The benchmark does not edit the library. To trace it, `Tracer.install`
replaces each function listed in `LAYERS` by a wrapper in every loaded
greenpremium module that holds it, so calls made inside the library
(premium_series -> resolve_scenario, compare_models -> ga_fit, ...) are
recorded too. `Tracer.uninstall` puts the originals back.

A span is (op, name, start, end, parent, attrs): `op` is shared by every
span of one benchmark operation, `parent` is the index of the enclosing
span (-1 at the root) and `attrs` holds counts taken from a call's result.
Spans stay in memory and are written out once, at the end of a run.
Times are `time.perf_counter()` seconds, which on Linux is one monotonic
clock for all processes, so spans from child processes merge directly.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter


def _fit_attrs(args, kwargs, result) -> dict:
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    hist = result.history
    improving = sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    return {"generations": result.generations_run,
            "genomes": cfg.population_size * (result.generations_run + 1),
            "improving": improving}


def _len_attrs(args, kwargs, result) -> dict:
    return {"years": len(result)}


def _points_attrs(args, kwargs, result) -> dict:
    return {"years": len(result.points)}


# (module, function, span name, attrs taken from the result). A span name
# of None makes the function a counter instead: its calls are counted
# against the innermost open span, which keeps hot leaf calls cheap.
LAYERS = (
    ("greenpremium.cli", "write_csv", "cli.write_csv", None),
    ("greenpremium.cli", "load_sales_csv", "cli.load_sales_csv", None),
    ("greenpremium.cli", "load_params_csv", "cli.load_params_csv", None),
    ("greenpremium.config", "load_schedule", "config.load_schedule", None),
    ("greenpremium.config", "schedule_digest", "config.schedule_digest", None),
    ("greenpremium.trajectory", "resolve_scenario", "trajectory.resolve_scenario", None),
    ("greenpremium.trajectory", "premium_series", "trajectory.premium_series",
     _points_attrs),
    ("greenpremium.costmodel", "tco_npv", None, None),
    ("greenpremium.sensitivity", "sensitivity_table", "sensitivity.sensitivity_table", None),
    ("greenpremium.sensitivity", "perturb", "sensitivity.perturb", None),
    ("greenpremium.fitting", "compare_models", "fitting.compare_models", None),
    ("greenpremium.fitting", "ga_fit", "fitting.ga_fit", _fit_attrs),
    ("greenpremium.fitting", "objective", "fitting.objective", None),
    ("greenpremium.fitting", "predictions", "fitting.predictions", None),
    ("greenpremium.diffusion", "simulate", "diffusion.simulate", _len_attrs),
)


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()   # (op, enclosing span name, counter name)
        self.op = None
        self._patched: list = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = attrs
        self.stack.pop()

    def add(self, spans: list, parent: int) -> None:
        """Adopt spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for _, name, start, end, par, attrs in spans:
            self.spans.append([self.op, name, start, end,
                               parent if par < 0 else base + par, attrs])

    def add_counts(self, counts: list) -> None:
        for where, what, n in counts:
            self.counts[(self.op, where, what)] += n

    # -- patching --------------------------------------------------------
    def _wrap_span(self, fn, name, attrs_fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, attrs_fn(args, kwargs, result)
                         if attrs_fn and result is not None else None)
        return traced

    def _wrap_count(self, fn, what):
        def counted(*args, **kwargs):
            where = self.spans[self.stack[-1]][1] if self.stack else None
            self.counts[(self.op, where, what)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for module_name, *_ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "greenpremium" or key.startswith("greenpremium.")]
        for module_name, func, name, attrs_fn in LAYERS:
            original = getattr(importlib.import_module(module_name), func)
            short = module_name.rsplit(".", 1)[1]
            wrapper = (self._wrap_count(original, f"{short}.{func}") if name is None
                       else self._wrap_span(original, name, attrs_fn))
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)
                    self._patched.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": [[where, what, n] for (_, where, what), n in self.counts.items()]}

    def write_jsonl(self, path) -> None:
        """One line per span, then one line per (op, enclosing span, counter)."""
        with open(path, "w") as f:
            for op, name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                    "parent": parent, "attrs": attrs}) + "\n")
            for (op, where, what), n in self.counts.items():
                f.write(json.dumps({"op": op, "in": where, "count": what, "n": n}) + "\n")


# --- per-layer metrics ------------------------------------------------------

def _median_ms(spans, name):
    values = [(s[3] - s[2]) * 1e3 for s in spans if s[1] == name]
    return statistics.median(values) if values else None


def _per_op(spans, name, key=None):
    ops = {s[0] for s in spans}
    hits = [s for s in spans if s[1] == name]
    if not hits:
        return None
    total = sum(s[5][key] for s in hits) if key else len(hits)
    return total / len(ops)


def _fit_totals(spans):
    fits = [s for s in spans if s[1] == "fitting.ga_fit"]
    if not fits:
        return None
    gens = sum(s[5]["generations"] for s in fits)
    return {"fits": len(fits), "generations": gens,
            "genomes": sum(s[5]["genomes"] for s in fits),
            "improving": sum(s[5]["improving"] for s in fits),
            "seconds": sum(s[3] - s[2] for s in fits)}


def layer_metrics(spans: list, counts: Counter, count_ops: set) -> dict:
    """Every per-layer metric this span set can give.

    Times are medians over all calls. Counts are per op, taken over the ops
    in `count_ops` only, so a run of a given seed repeats them exactly
    whatever number of ops the time budget allowed.
    """
    counted = [s for s in spans if s[0] in count_ops]
    out = {
        "cli.import_ms": _median_ms(spans, "cli.import"),
        "cli.write_csv_ms": _median_ms(spans, "cli.write_csv"),
        "cli.load_sales_ms": _median_ms(spans, "cli.load_sales_csv"),
        "config.load_schedule_ms": _median_ms(spans, "config.load_schedule"),
        "config.schedule_digest_ms": _median_ms(spans, "config.schedule_digest"),
        "config.load_schedule_calls": _per_op(counted, "config.load_schedule"),
        "trajectory.resolve_scenario_ms": _median_ms(spans, "trajectory.resolve_scenario"),
        "trajectory.premium_series_ms": _median_ms(spans, "trajectory.premium_series"),
        "trajectory.years_evaluated": _per_op(counted, "trajectory.premium_series", "years"),
        "sensitivity.table_ms": _median_ms(spans, "sensitivity.sensitivity_table"),
        "sensitivity.perturb_calls": _per_op(counted, "sensitivity.perturb"),
        "fitting.ga_fit_ms": _median_ms(spans, "fitting.ga_fit"),
        "fitting.objective_ms": _median_ms(spans, "fitting.objective"),
        "diffusion.simulate_ms": _median_ms(spans, "diffusion.simulate"),
        "diffusion.years_simulated": _per_op(counted, "diffusion.simulate", "years"),
    }
    years = sum(s[5]["years"] for s in counted if s[1] == "trajectory.premium_series")
    if years:
        calls = sum(n for (op, where, what), n in counts.items()
                    if op in count_ops and where == "trajectory.premium_series"
                    and what == "costmodel.tco_npv")
        out["costmodel.tco_npv_calls_per_year"] = calls / years
    fits = _fit_totals(counted)
    if fits:
        out["fitting.generations"] = fits["generations"] / fits["fits"]
        out["fitting.genomes_evaluated"] = fits["genomes"] / fits["fits"]
        out["fitting.improving_gen_frac"] = fits["improving"] / fits["generations"]
    timed = _fit_totals(spans)
    if timed:
        out["fitting.gen_ms"] = timed["seconds"] * 1e3 / timed["generations"]
    return {k: v for k, v in out.items() if v is not None}


def self_times_ms(spans: list, select) -> dict:
    """Total self time per span name over the spans `select` accepts.

    A span's self time is its duration minus the time its children cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    totals: Counter = Counter()
    for i, s in enumerate(spans):
        if select(s):
            totals[s[1]] += (s[3] - s[2] - child_time[i]) * 1e3
    return dict(totals)
