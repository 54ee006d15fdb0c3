"""The greenpremium benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    every workload, one process
    python3 perfbench/run.py --smoke               a few ops of each workload,
                                                   checked against BENCHMARK.json

Run it from the repository root; the library is imported from `src/`.
The loop is closed with one client: each op starts when the previous one
has ended, and at most one child process runs at a time.

BENCHMARK.json lists the workloads that regression runs use. report-cli
(one CLI subprocess per op) runs only on request: its start-up path is
already in every workload's setup_s, and leaving it out of the regression
set buys longer runs, which a shared 2-vCPU host needs for steady figures.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
first runs untraced for half the time, then traced (spans around the calls
into each module's public functions) for the other half, with the same
inputs, and reports the per-layer metrics, each layer's self time and the
tracing overhead (traced minus untraced median op time). Spans are written
to .perfbench/trace-WORKLOAD.jsonl at the end.

Output: readable lines, then one JSON line with the run report (workload,
seed, op count, tail percentile, environment, ...), then the result as the
last line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import Tracer, layer_metrics, self_times_ms
from workloads import CHILD, ROOT, SRC, WORKLOADS, child_env, probe

# The median op time is in the run report, not here: on a host whose speed
# flips between two states for tens of seconds, the median of equal-cost ops
# jumps between them from run to run, while ops_per_s (a mean) moves smoothly.
END_TO_END = {"setup_s": "s", "op_ms_tail": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_ms": "ms", "cli.write_csv_ms": "ms", "cli.load_sales_ms": "ms",
    "config.load_schedule_ms": "ms", "config.schedule_digest_ms": "ms",
    "config.load_schedule_calls": "count",
    "trajectory.resolve_scenario_ms": "ms", "trajectory.premium_series_ms": "ms",
    "trajectory.years_evaluated": "count", "costmodel.tco_npv_calls_per_year": "count",
    "sensitivity.table_ms": "ms", "sensitivity.perturb_calls": "count",
    "fitting.ga_fit_ms": "ms", "fitting.generations": "count", "fitting.gen_ms": "ms",
    "fitting.genomes_evaluated": "count", "fitting.improving_gen_frac": "fraction",
    "fitting.objective_ms": "ms",
    "diffusion.simulate_ms": "ms", "diffusion.years_simulated": "count",
}
COLD_STARTS = 9
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
MAX_ERRORS = 5


def environment() -> dict:
    import numpy
    import yaml
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


class ColdStarts:
    """Fresh interpreters that import the CLI and load the workload's inputs.

    The host's speed drifts over seconds, so the measured starts are spread
    over the timed window (see `closed_loop`) rather than run back to back.
    One unmeasured start runs first, so bytecode caches exist as they do
    for a user who has run the tool before.
    """

    def __init__(self, wl, tracer: Tracer | None, count: int) -> None:
        self.count = count
        self.cmd = [sys.executable, str(CHILD), "setup", wl.name, str(wl.seed),
                    str(wl.workdir), "1" if tracer else "0"]
        self.env = child_env()
        self.tracer = tracer
        self.walls: list[float] = []
        self.import_ms: list[float] = []
        self.run(record=False)

    def run(self, record: bool = True) -> None:
        tracer = self.tracer
        if tracer:
            tracer.op = f"setup{len(self.walls)}" if record else "warmup"
            root = tracer.begin("setup")
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        out = json.loads(proc.stdout)
        if tracer:
            tracer.add(out["trace"]["spans"], parent=root)
            tracer.add_counts(out["trace"]["counts"])
            tracer.end(root)
        if record:
            self.walls.append(wall)
            self.import_ms.append(out["import_ms"])

    def due(self, active: float, seconds: float) -> bool:
        """Whether the next start is due, `active` seconds into the window."""
        done = len(self.walls)
        return done < self.count and active >= done * seconds / self.count

    def finish(self) -> None:
        while len(self.walls) < self.count:
            self.run()


def closed_loop(wl, seconds: float, tracer: Tracer | None = None,
                cold: ColdStarts | None = None) -> dict:
    """Run ops back to back for `seconds` of op time (and at least
    wl.min_ops), then repeat op 0 and require identical output.

    The cold starts run between ops, evenly spaced in op time; their time
    and the input preparation are left out of the op wall time.
    """
    durations, errors = [], []
    failed = 0
    first = None
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        t = time.perf_counter()
        wl.prepare(i)
        paused += time.perf_counter() - t
        active = time.perf_counter() - start - paused
        if cold and cold.due(active, seconds):
            t = time.perf_counter()
            cold.run()
            paused += time.perf_counter() - t
            continue
        if i >= wl.min_ops and active >= seconds:
            break
        if tracer:
            tracer.op = i
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # any failure of an op is counted, not fatal
            failed += 1
            out = None
            if len(errors) < MAX_ERRORS:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(root)
        if i == 0:
            first = out
        i += 1
    wall = time.perf_counter() - start - paused
    if cold:
        cold.finish()
    if tracer:
        tracer.op = "rerun"
        root = tracer.begin("op")
    try:
        again = wl.op(0)
    except Exception as exc:
        again = exc
    if tracer:
        tracer.end(root)
    if first is None or again != first:
        failed += 1
        errors.append("op 0 repeated with the same inputs gave different output")
    return {"durations": durations, "wall": wall, "attempted": len(durations) + 1,
            "failed": failed, "errors": errors}


TAIL_MIN_BEYOND = 10     # samples beyond the tail percentile, at least
TAIL_BEYOND_SHARE = 20   # and at least 1/20 of all samples: a p95 cap


def tail(durations: list[float]) -> tuple[float, float]:
    """(ms, percentile): the highest percentile with at least ten samples
    beyond it, capped at p95.

    Without the cap, a workload of some thousand short ops reports its
    11th-slowest op, which on a shared host is set by how often the host
    preempts the benchmark, not by the program.
    """
    ordered = sorted(durations)
    n = len(ordered)
    beyond = max(TAIL_MIN_BEYOND, -(-n // TAIL_BEYOND_SHARE))
    if n <= beyond:
        return ordered[-1] * 1e3, 100.0
    return ordered[n - 1 - beyond] * 1e3, 100.0 * (n - beyond) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 cold: int = COLD_STARTS, min_ops: int | None = None) -> tuple[dict, dict]:
    """One run: (the result for the last output line, the run report)."""
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, workdir)
        if min_ops is not None:
            wl.min_ops = min_ops
        wl.generate()
        tracer = Tracer() if traced else None
        starts = ColdStarts(wl, tracer, cold)
        wl.load()
        if traced:
            runs, metrics, extra = traced_run(wl, seconds, tracer, starts)
        else:
            runs = [closed_loop(wl, seconds, cold=starts)]
            metrics = end_to_end(runs[0], starts.walls, children=(name == "report-cli"))
            extra = {}
        durations = runs[-1]["durations"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        report = {
            "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
            "trace": int(traced), "ops": len(durations),
            "op_ms_p50": statistics.median(durations) * 1e3,
            "op_ms_tail_percentile": tail(durations)[1], "op_ms_tail_samples": len(durations),
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "errors": [e for r in runs for e in r["errors"]][:MAX_ERRORS],
            "setup_samples_s": starts.walls,
            "import_ms_p50": statistics.median(starts.import_ms),
            **wl.summary(len(durations)), **extra, "env": environment()}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(wl, seconds: float, tracer: Tracer,
               starts: ColdStarts) -> tuple[list, dict, dict]:
    """Untraced then traced halves with the same inputs, then the probe."""
    plain = closed_loop(wl, seconds / 2)
    wl.tracer = tracer
    tracer.install()
    try:
        run = closed_loop(wl, seconds / 2, tracer, cold=starts)
        tracer.op = "probe"
        root = tracer.begin("probe")
        probe(wl.workdir)
        tracer.end(root)
    finally:
        tracer.uninstall()
        wl.tracer = None
    metrics, sources = per_layer(tracer, wl.min_ops)
    ops = len(run["durations"])
    plain_p50 = statistics.median(plain["durations"]) * 1e3
    traced_p50 = statistics.median(run["durations"]) * 1e3
    trace_file = WORK / f"trace-{wl.name}.jsonl"
    tracer.write_jsonl(trace_file)
    extra = {
        "layer_source": sources,
        "self_ms_per_op": {k: v / ops for k, v in sorted(self_times_ms(
            tracer.spans, lambda s: isinstance(s[0], int)).items())},
        "trace_overhead": {"op_ms_p50_untraced": plain_p50, "op_ms_p50_traced": traced_p50,
                           "ms": traced_p50 - plain_p50,
                           "pct": 100.0 * (traced_p50 - plain_p50) / plain_p50},
        "trace_file": str(trace_file.relative_to(ROOT))}
    return [plain, run], metrics, extra


def end_to_end(run: dict, setup_walls: list[float], children: bool) -> dict:
    values = {"setup_s": statistics.median(setup_walls),
              "op_ms_tail": tail(run["durations"])[0],
              "ops_per_s": len(run["durations"]) / run["wall"],
              "peak_rss_mb": peak_rss_mb(children)}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(tracer: Tracer, min_ops: int) -> tuple[dict, dict]:
    """Each layer metric from the workload's own ops if they reach the
    layer, else from the cold starts, else from the reference probe."""
    spans = tracer.spans
    sources = [
        ("ops", [s for s in spans if isinstance(s[0], int)], set(range(min_ops))),
        ("setup", [s for s in spans if str(s[0]).startswith("setup")],
         {s[0] for s in spans if str(s[0]).startswith("setup")}),
        ("probe", [s for s in spans if s[0] == "probe"], {"probe"}),
    ]
    found = [(label, layer_metrics(group, tracer.counts, ids)) for label, group, ids in sources]
    metrics, where = {}, {}
    for name, unit in PER_LAYER.items():
        label, values = next(((l, v) for l, v in found if name in v), (None, {}))
        if label is None:
            raise RuntimeError(f"no span gives per-layer metric {name}")
        metrics[name] = {"value": values[name], "unit": unit}
        where[name] = label
    return metrics, where


def show(name: str, result: dict, report: dict) -> None:
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    if not report["trace"]:
        rows.insert(1, ("op_ms_p50", report["op_ms_p50"], "ms"))
    for metric, value, unit in rows:
        print(f"{name:15s} {metric:32s} {value:14.4f} {unit}")
    print(f"{name:15s} {'failed/attempted':32s} {result['failed']:>8d}/{result['attempted']}")


def smoke() -> int:
    """A few ops of every workload, traced and not; every metric named in
    BENCHMARK.json must come out with its unit and a finite value."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS or w["why"] != WORKLOADS[w["name"]].why:
            problems.append(f"BENCHMARK.json workload {w['name']!r} differs from the benchmark's")
    for name in WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(name, seed=1, seconds=0.0, traced=traced,
                                     cold=1, min_ops=3)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(traced)}: metrics {got} != {want}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{name} trace={int(traced)}: non-finite metric value")
            if not result["correct"]:
                problems.append(f"{name} trace={int(traced)}: {result['failed']} failed ops")
            print(f"smoke {name} trace={int(traced)}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "greenpremium" / "__init__.py").is_file():
        print(f"error: no greenpremium package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        show(name, result, report)
        print(json.dumps({"report": report}), flush=True)
        if len(names) == 1:
            print(json.dumps(result))
            return 0
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
