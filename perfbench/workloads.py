"""The benchmark's workloads: seeded inputs, one operation each, and checks.

Every workload derives its inputs from the run's seed alone. The library is
imported lazily, inside methods, so that a cold-start child can time the
import of `greenpremium.cli` before anything else of the library loads.

The correctness checks compare against figures quoted in the README, not
against output of the code under test:
  * 2021 levelized cost of driving (RMB/km): ICEV 1.80, long-range EV 1.52,
    short-range EV 1.41;
  * parity years lifecycle/acquisition/production: 2018/2029/2030
    (long-range) and 2018/2026/2028 (short-range);
  * fitted parameters are finite and inside the default GA bounds;
  * an operation repeated with the same inputs gives identical output bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "greenpremium" / "data"
SALES = DATA / "china_bev_sales.csv"
SCENARIOS = {"long-range": DATA / "long_range.yaml",
             "short-range": DATA / "short_range.yaml"}
CHILD = Path(__file__).resolve().parent / "child.py"

README_LCOD_2021 = {"long-range": (1.52, 1.80), "short-range": (1.41, 1.80)}  # (EV, ICEV)
README_PARITY = {
    "long-range": {"lifecycle": 2018, "acquisition": 2029, "production": 2030},
    "short-range": {"lifecycle": 2018, "acquisition": 2026, "production": 2028},
}
# A scenario-batch variant moves every anchor by at most PERTURB, so its 2021
# LCOD stays within this share of the README figure for its vehicle class.
PERTURB = 0.03
VARIANT_LCOD_TOL = 0.10


class CheckFailed(AssertionError):
    """An output disagrees with a README figure or a stated invariant."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def child_env() -> dict:
    """The environment for child interpreters: the library from `src/`, and
    no user config directory that could shadow the shipped scenarios."""
    env = {k: v for k, v in os.environ.items() if k != "GREENPREMIUM_CONFIG_DIR"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_params(params, with_beta: bool) -> None:
    from greenpremium.fitting import DEFAULT_BOUNDS
    names = ("p", "q", "m", "beta") if with_beta else ("p", "q", "m")
    for name in names:
        value = getattr(params, name)
        lo, hi = DEFAULT_BOUNDS[name]
        check(math.isfinite(value) and lo <= value <= hi,
              f"fitted {name}={value!r} outside bounds [{lo}, {hi}]")
    if not with_beta:
        check(params.beta == 0.0, f"vanilla fit has beta={params.beta!r}")


def _digest(*parts) -> bytes:
    return hashlib.sha256(repr(parts).encode()).digest()


class Workload:
    """Seeded inputs plus one repeatable operation.

    `generate` and `prepare` make the inputs (benchmark work, untimed).
    `load` is the library-side set-up a user pays before the first
    operation; cold-start children time it together with the import.
    `op(i)` runs operation i and returns a fingerprint of its output; it
    raises on a failed check.
    """

    name = ""
    why = ""           # one line: what the workload stresses
    min_ops = 1        # always run at least this many; counts use these ops

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = None

    def generate(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        """Make op i's inputs exist; called outside the op's timing."""

    def load(self) -> None:
        pass

    def op(self, i: int) -> bytes:
        raise NotImplementedError

    def summary(self, ops: int) -> dict:
        return {}


# --- report-cli ----------------------------------------------------------

def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(l for l in text.splitlines() if l and not l.startswith("#")))


def _check_tco(text: str, scenario: str) -> None:
    values = {r[0]: float(r[1]) for r in _rows(text)[1:]}
    ev, icev = README_LCOD_2021[scenario]
    check(round(values["lcod_ev"], 2) == ev, f"{scenario} lcod_ev {values['lcod_ev']} != {ev}")
    check(round(values["lcod_icev"], 2) == icev,
          f"{scenario} lcod_icev {values['lcod_icev']} != {icev}")


def _check_series(text: str, scenario: str) -> None:
    rows = _rows(text)
    check(len(rows) == 22, f"premium-series has {len(rows) - 1} rows, expected 21")
    by_year = {r[0]: r for r in rows[1:]}
    ev, icev = README_LCOD_2021[scenario]
    check(round(float(by_year["2021"][4]), 2) == ev, f"{scenario} 2021 lcod_ev mismatch")
    check(round(float(by_year["2021"][5]), 2) == icev, f"{scenario} 2021 lcod_icev mismatch")


def _check_parity(text: str, scenario: str) -> None:
    got = {r[0]: int(r[1]) for r in _rows(text)[1:]}
    check(got == README_PARITY[scenario], f"{scenario} parity {got}")


def _check_sensitivity(text: str, scenario: str) -> None:
    from greenpremium.sensitivity import default_factors
    rows = _rows(text)[1:]
    skipped = sum(1 for l in text.splitlines() if l.startswith("# skipped_"))
    check(len(rows) + skipped == len(default_factors()),
          f"sensitivity has {len(rows)} rows and {skipped} skipped factors")
    check(all(_finite(*map(float, r[3:])) for r in rows), "non-finite sensitivity value")


def _check_forecast(text: str, scenario: str) -> None:
    rows = _rows(text)[1:]
    check([int(r[0]) for r in rows] == list(range(2010, 2031)), "forecast years")
    check(all(_finite(*map(float, r[1:])) and float(r[1]) >= 0 for r in rows),
          "forecast has a negative or non-finite value")


class ReportCli(Workload):
    name = "report-cli"
    why = ("one CLI subprocess per op over tco, premium-series, parity, "
           "sensitivity and forecast; start-up and import dominate, no GA")
    min_ops = 9

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.params = self.workdir / "params.csv"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.params.write_text(
            "# seeded adoption parameters for the forecast command\n"
            "p,q,beta,m\n"
            f"{rng.uniform(1e-3, 1e-2)!r},{rng.uniform(0.2, 0.6)!r},"
            f"{rng.uniform(-1.0, 0.0)!r},{rng.uniform(30_000.0, 120_000.0)!r}\n")
        self.commands = []
        for scenario in SCENARIOS:
            self.commands += [
                (["tco", "--scenario", scenario, "--year", "2021"], _check_tco, scenario),
                (["premium-series", "--scenario", scenario], _check_series, scenario),
                (["parity", "--scenario", scenario], _check_parity, scenario),
                (["sensitivity", "--scenario", scenario, "--year", "2021"],
                 _check_sensitivity, scenario),
            ]
        self.commands.append((["forecast", "--params", str(self.params),
                               "--scenario", rng.choice(list(SCENARIOS))],
                              _check_forecast, None))
        self.offset = rng.randrange(len(self.commands))
        self.env = child_env()

    def load(self) -> None:
        from greenpremium import cli
        cli.load_params_csv(str(self.params))

    def op(self, i: int) -> bytes:
        argv, checker, scenario = self.commands[(self.offset + i) % len(self.commands)]
        spans_file = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "greenpremium.cli", *argv]
        else:
            spans_file = self.workdir / "cli_spans.json"
            cmd = [sys.executable, str(CHILD), "cli", str(spans_file), *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if spans_file is not None and spans_file.exists():
            dump = json.loads(spans_file.read_text())
            self.tracer.add(dump["spans"], parent=self.tracer.stack[-1])
            self.tracer.add_counts(dump["counts"])
            spans_file.unlink()
        check(proc.returncode == 0,
              f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        checker(proc.stdout, scenario)
        return proc.stdout.encode()


# --- scenario-batch -------------------------------------------------------

def _yaml_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = repr(value)
        return text if "e" not in text else f"{value:.15f}"
    return str(value)


def _variant_text(doc: dict, rng: random.Random) -> str:
    """The scenario with every numeric anchor moved by up to +-PERTURB."""
    lines = [f"name: {doc['name']}", f"vehicle_class: {doc['vehicle_class']}",
             f"span: [{doc['span'][0]}, {doc['span'][1]}]",
             "interpolation:", f"  step: [{', '.join(doc['interpolation']['step'])}]",
             "entries:"]
    for entry in doc["entries"]:
        lead = "  - "
        for key, value in entry.items():
            if key not in ("year", "lifecycle_years") and not isinstance(value, bool):
                value = value * (1.0 + rng.uniform(-PERTURB, PERTURB))
            lines.append(f"{lead}{key}: {_yaml_scalar(value)}")
            lead = "    "
    return "\n".join(lines) + "\n"


def scenario_pipeline(path: str, vehicle_class: str, exact: bool) -> bytes:
    """Load, digest, full-span premium series, parity, and 2021 sensitivity."""
    from greenpremium import config
    from greenpremium import sensitivity as sn
    from greenpremium import trajectory as tj
    sched = config.load_schedule(path)
    digest = config.schedule_digest(path)
    series = tj.premium_series(sched, range(sched.span[0], sched.span[1] + 1))
    parity = tj.parity_years(series)
    factors = sn.default_factors()
    rows, errors = sn.sensitivity_table(tj.resolve_scenario(sched, 2021), factors)

    check(len(series.points) == 21, f"{path}: {len(series.points)} series points")
    point = series.point(2021)
    ev, icev = README_LCOD_2021[vehicle_class]
    if exact:
        check((round(point.lcod_ev, 2), round(point.lcod_icev, 2)) == (ev, icev),
              f"{path}: 2021 LCOD {point.lcod_ev:.3f}/{point.lcod_icev:.3f}")
        check(parity == README_PARITY[vehicle_class], f"{path}: parity {parity}")
    else:
        check(abs(point.lcod_ev / ev - 1) < VARIANT_LCOD_TOL
              and abs(point.lcod_icev / icev - 1) < VARIANT_LCOD_TOL,
              f"{path}: 2021 LCOD {point.lcod_ev:.3f}/{point.lcod_icev:.3f} far from README")
        check(all(y is None or 2010 <= y <= 2030 for y in parity.values()),
              f"{path}: parity {parity}")
    check(len(rows) + len(errors) == len(factors), f"{path}: sensitivity rows missing")
    check(all(_finite(r.coefficient, *r.changes) for r in rows),
          f"{path}: non-finite sensitivity value")
    return _digest(digest, series.points, parity,
                   [(r.factor, r.changes, r.coefficient) for r in rows], sorted(errors))


class ScenarioBatch(Workload):
    name = "scenario-batch"
    why = ("in-process YAML load, premium series, parity and sensitivity on a "
           "distinct seeded scenario variant per op; no input repeats, no GA")
    min_ops = 20
    BATCH = 200

    def generate(self) -> None:
        import yaml   # the benchmark parses the shipped files once, to template them
        self.docs = {name: yaml.safe_load(path.read_text()) for name, path in SCENARIOS.items()}
        self.rng = random.Random(self.seed)
        self.variant(0).parent.mkdir(parents=True, exist_ok=True)
        # The first two ops run the shipped scenarios themselves, checked
        # exactly against the README; the rest are perturbed variants.
        self.inputs = [(str(path), name, True) for name, path in SCENARIOS.items()]
        self.prepare(len(self.inputs))   # the first variant, for `load`

    def prepare(self, i: int) -> None:
        """Variants are written in batches, in order, from one seeded stream."""
        names = list(SCENARIOS)
        while len(self.inputs) <= i:
            for k in range(len(self.inputs), len(self.inputs) + self.BATCH):
                name = names[k % 2]
                path = self.variant(k)
                path.write_text(_variant_text(self.docs[name], self.rng))
                self.inputs.append((str(path), name, False))

    def variant(self, k: int) -> Path:
        return self.workdir / "variants" / f"variant_{k}.yaml"

    def load(self) -> None:
        from greenpremium import config
        config.load_schedule(str(self.variant(len(SCENARIOS))))

    def op(self, i: int) -> bytes:
        return scenario_pipeline(*self.inputs[i])


# --- fit-seeds and fit-wide -------------------------------------------------

def _fmt17(value: float) -> str:
    return format(value, ".17g")


def fit_pipeline(ga_seed: int, outdir: Path) -> tuple[bytes, float, float]:
    """`compare` plus `forecast` in one process, with both CSVs written.

    Returns the CSV bytes, and the generalized and vanilla objectives.
    """
    from greenpremium import cli, config, diffusion, fitting
    from greenpremium import trajectory as tj
    ref = str(SCENARIOS["long-range"])
    obs = cli.load_sales_csv(str(SALES))
    sched = config.load_schedule(ref)
    premiums = tj.premium_series(sched, range(sched.span[0], sched.span[1] + 1))
    cfg = fitting.FitConfig(rng_seed=ga_seed)
    vanilla, generalized = fitting.compare_models(obs, premiums, cfg)
    predicted = fitting.predictions(generalized.params, obs, premiums)
    states = diffusion.simulate(generalized.params, premiums, 2010, 21)

    _check_params(vanilla.params, with_beta=False)
    _check_params(generalized.params, with_beta=True)
    check(_finite(*predicted, generalized.objective, vanilla.objective),
          "non-finite prediction or objective")
    check(all(_finite(s.new_adopters) and s.new_adopters >= 0 for s in states),
          "forecast has a negative or non-finite flow")

    manifest = cli.RunManifest(command="compare", config_ref=ref,
                               config_digest=config.schedule_digest(ref), seed=ga_seed)
    rows = [[label, *(_fmt17(getattr(r.params, k)) for k in ("p", "q", "beta", "m")),
             _fmt17(r.objective), _fmt17(r.r_squared), str(r.generations_run)]
            for label, r in (("vanilla", vanilla), ("generalized", generalized))]
    cli.write_csv(str(outdir / "compare.csv"), manifest,
                  ["model", "p", "q", "beta", "m", "objective", "r_squared",
                   "generations_run"], rows)
    cli.write_csv(str(outdir / "forecast.csv"), manifest,
                  ["year", "predicted_annual", "predicted_cumulative"],
                  [[str(s.year), _fmt17(s.new_adopters),
                    _fmt17(s.cumulative + s.new_adopters)] for s in states])
    written = (outdir / "compare.csv").read_bytes() + (outdir / "forecast.csv").read_bytes()
    return written, generalized.objective, vanilla.objective


def _fit_summary(objectives: dict, ops: int) -> dict:
    """Fit quality over the first `ops` ops, a fixed seed list per run seed."""
    gen = [objectives[i][0] for i in range(ops) if i in objectives]
    if not gen:
        return {}
    out = {"fit_obj_p50": statistics.median(gen), "fit_seeds_counted": len(gen)}
    vanilla = [objectives[i][1] for i in range(ops) if i in objectives]
    if all(v is not None for v in vanilla):
        out["gen_worse_frac"] = sum(g > v for g, v in zip(gen, vanilla)) / len(gen)
    return out


class SeededFits(Workload):
    """A GA seed per op, drawn in order from one stream seeded by the run."""

    def generate(self) -> None:
        self.rng = random.Random(self.seed)
        self.ga_seeds: list[int] = []
        self.objectives: dict = {}

    def prepare(self, i: int) -> None:
        while len(self.ga_seeds) <= i:
            self.ga_seeds.append(self.rng.randrange(2**31))

    def summary(self, ops: int) -> dict:
        return _fit_summary(self.objectives, min(ops, self.min_ops))


class FitSeeds(SeededFits):
    name = "fit-seeds"
    why = ("compare plus forecast in-process, one GA seed per op, default "
           "800-genome early-stop fit; fixed cost per evaluation dominates")
    min_ops = 24

    def generate(self) -> None:
        super().generate()
        self.outdir = self.workdir / "fit"
        self.outdir.mkdir(parents=True, exist_ok=True)

    def load(self) -> None:
        from greenpremium import cli, config
        cli.load_sales_csv(str(SALES))
        config.load_schedule(str(SCENARIOS["long-range"]))

    def op(self, i: int) -> bytes:
        written, gen, van = fit_pipeline(self.ga_seeds[i], self.outdir)
        self.objectives.setdefault(i, (gen, van))
        return written


class FitWide(SeededFits):
    name = "fit-wide"
    why = ("one generalized GA fit of 6400 genomes for a fixed 100 generations"
           " per op; array work dominates each evaluation")
    min_ops = 8
    POPULATION = 6400       # 8 x 800: the batched 8-restart population
    GENERATIONS = 100

    def load(self) -> None:
        from greenpremium import cli, config
        from greenpremium import trajectory as tj
        self.obs = cli.load_sales_csv(str(SALES))
        sched = config.load_schedule(str(SCENARIOS["long-range"]))
        self.premiums = tj.premium_series(sched, range(2010, 2022))

    def op(self, i: int) -> bytes:
        from greenpremium import fitting
        cfg = fitting.FitConfig(population_size=self.POPULATION,
                                max_generations=self.GENERATIONS,
                                early_stop=False, rng_seed=self.ga_seeds[i])
        result = fitting.ga_fit(self.obs, self.premiums, cfg)
        check(result.generations_run == self.GENERATIONS,
              f"ran {result.generations_run} generations, expected {self.GENERATIONS}")
        _check_params(result.params, with_beta=True)
        check(_finite(result.objective, result.r_squared), "non-finite objective")
        self.objectives.setdefault(i, (result.objective, None))
        return _digest(result.params, result.objective, result.history)


WORKLOADS = {w.name: w for w in (ReportCli, ScenarioBatch, FitSeeds, FitWide)}


def probe(workdir: Path, objective_calls: int = 200) -> None:
    """One reference pass through every layer, on the shipped inputs.

    A traced run reports each per-layer metric from its own ops when they
    reach that layer, and from this pass otherwise. It also times single-
    genome objective calls, which probe the fixed cost of one evaluation.
    """
    from greenpremium import cli, config, diffusion, fitting
    from greenpremium import trajectory as tj
    scenario_pipeline(str(SCENARIOS["long-range"]), "long-range", exact=True)
    outdir = Path(workdir) / "probe"
    outdir.mkdir(parents=True, exist_ok=True)
    fit_pipeline(0, outdir)
    obs = cli.load_sales_csv(str(SALES))
    sched = config.load_schedule(str(SCENARIOS["long-range"]))
    premiums = tj.premium_series(sched, range(2010, 2022))
    cfg = fitting.FitConfig()
    mid = {k: (lo + hi) / 2 for k, (lo, hi) in cfg.bounds.items()}
    params = diffusion.BassParams(**mid)
    for _ in range(objective_calls):
        fitting.objective(params, obs, premiums, cfg)
