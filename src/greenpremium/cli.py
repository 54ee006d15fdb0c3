"""Command-line front end.

Every subcommand reads scenario/sales inputs, runs the corresponding library
pipeline and writes one CSV table (stdout by default, or --out). Output files
start with '#' comment lines carrying the run manifest: tool version,
command, config digest and seed. Timestamps are deliberately kept out of the
output so that identical inputs and seed produce byte-identical files; they
are logged to stderr instead.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import secrets
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, config
from . import sensitivity as sn
from . import trajectory as tj
from .costmodel import PREMIUM_KINDS

# diffusion and fitting import numpy, so only the fit commands import them.
if TYPE_CHECKING:
    from .diffusion import BassParams
    from .fitting import FitConfig, FitResult, ObservationSeries

REPORT_DIGITS = 6    # report columns
EXACT_DIGITS = 17    # fitted parameters and predictions (round-trippable)


class CliError(ValueError):
    """User-facing validation problem."""


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded as comments in every output file."""

    command: str
    config_ref: str | None
    config_digest: str | None
    seed: int | None
    extra: tuple[tuple[str, str], ...] = ()

    def comment_lines(self) -> list[str]:
        lines = [f"# greenpremium {__version__}", f"# command: {self.command}"]
        if self.config_ref is not None:
            lines.append(f"# scenario: {self.config_ref} sha256:{self.config_digest}")
        if self.seed is not None:
            lines.append(f"# seed: {self.seed}")
        lines.extend(f"# {key}: {value}" for key, value in self.extra)
        return lines


def _fmt(value, digits: int = REPORT_DIGITS) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def write_csv(out: str | None, manifest: RunManifest, header: list[str],
              rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    for line in manifest.comment_lines():
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="")


def load_sales_csv(path: str) -> ObservationSeries:
    """Parse a `year,annual_sales` file; comment lines start with '#'.

    `ObservationSeries` checks the values; an error it raises is reported
    here at the line of the offending row.
    """
    from .fitting import ObservationError, ObservationSeries
    p = Path(path)
    if not p.exists():
        raise CliError(f"sales file not found: {path}")
    points: list[tuple[int, float]] = []
    linenos: list[int] = []
    header_ok = False
    with p.open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_ok:
                cols = [c.strip() for c in line.split(",")]
                if cols != ["year", "annual_sales"]:
                    raise CliError(
                        f"{path}:{lineno}: expected header 'year,annual_sales'")
                header_ok = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CliError(f"{path}:{lineno}: expected two fields")
            try:
                points.append((int(parts[0]), float(parts[1])))
            except ValueError:
                raise CliError(f"{path}:{lineno}: malformed row {line!r}") from None
            linenos.append(lineno)
    if not header_ok or not points:
        raise CliError(f"{path}: no data rows")
    try:
        return ObservationSeries(tuple(points))
    except ObservationError as exc:
        first = "" if exc.first is None else f" (first at line {linenos[exc.first]})"
        raise CliError(f"{path}:{linenos[exc.index]}: {exc.reason}{first}") from None


def load_params_csv(path: str) -> BassParams:
    """Read fitted parameters back from a `fit` output file."""
    from .diffusion import BassParams
    p = Path(path)
    if not p.exists():
        raise CliError(f"params file not found: {path}")
    lines = [l for l in p.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    if len(lines) < 2:
        raise CliError(f"{path}: expected a header and one data row")
    if len(lines) > 2:
        raise CliError(f"{path}: expected one data row, found {len(lines) - 1}; "
                       "pass a single-row `fit` output")
    reader = csv.DictReader(lines)
    row = next(iter(reader))
    try:
        return BassParams(p=float(row["p"]), q=float(row["q"]),
                          m=float(row["m"]), beta=float(row["beta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: not a fitted-parameters file ({exc})") from exc


def _manifest(command: str, scenario: str | None, seed: int | None = None,
              **extra) -> RunManifest:
    return RunManifest(
        command=command,
        config_ref=scenario,
        config_digest=config.schedule_digest(scenario) if scenario else None,
        seed=seed,
        extra=tuple((k, str(v)) for k, v in extra.items()),
    )


def _years(args) -> range:
    """The years --from..--to, both included."""
    if args.year_to < args.year_from:
        raise CliError("--to must not precede --from")
    return range(args.year_from, args.year_to + 1)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    print(f"seed: {seed} (chosen randomly; pass --seed {seed} to reproduce)",
          file=sys.stderr)
    return seed


def _fit_config(args, seed: int) -> FitConfig:
    from .fitting import FitConfig
    kwargs = dict(rng_seed=seed, m_value=args.m_value)
    if args.population is not None:
        kwargs["population_size"] = args.population
    if args.generations is not None:
        kwargs["max_generations"] = args.generations
    if args.late_weight is not None:
        kwargs["late_weight"] = args.late_weight
    if getattr(args, "no_early_stop", False):
        kwargs["early_stop"] = False
    return FitConfig(**kwargs)


def _fit_settings(cfg: FitConfig) -> dict[str, object]:
    """The settings a `fit` or `compare` manifest records, in order."""
    return dict(population=cfg.population_size, generations=cfg.max_generations,
                late_weight=cfg.late_weight,
                m_mode="free" if cfg.m_value is None else "fixed")


def _fit_rows(result: FitResult) -> tuple[list[str], list[list[str]]]:
    header = ["p", "q", "beta", "m", "objective", "r_squared",
              "generations_run", "converged"]
    row = [_fmt(result.params.p, EXACT_DIGITS), _fmt(result.params.q, EXACT_DIGITS),
           _fmt(result.params.beta, EXACT_DIGITS), _fmt(result.params.m, EXACT_DIGITS),
           _fmt(result.objective, EXACT_DIGITS), _fmt(result.r_squared, EXACT_DIGITS),
           str(result.generations_run), _fmt(result.converged)]
    return header, [row]


def _report_bounds(model: str, result: FitResult) -> None:
    """One stderr line per fitted parameter that ended on a bound."""
    for gene, side in result.at_bounds:
        value = _fmt(getattr(result.params, gene), EXACT_DIGITS)
        print(f"warning: {model} fit: {gene} = {value} is at its {side} bound",
              file=sys.stderr)


# --- subcommand implementations ------------------------------------------

def cmd_tco(args) -> None:
    sched = config.load_schedule(args.scenario)
    sc = tj.resolve_scenario(sched, args.year)
    point = tj.evaluate_year(sc)
    rows = [
        ["ev_price", _fmt(sc.prices.ev_price)],
        ["icev_price", _fmt(sc.prices.icev_price)],
        ["tco_ev", _fmt(point.tco_ev)],
        ["tco_icev", _fmt(point.tco_icev)],
        ["lcod_ev", _fmt(point.lcod_ev)],
        ["lcod_icev", _fmt(point.lcod_icev)],
        ["production_premium", _fmt(point.production)],
        ["acquisition_premium", _fmt(point.acquisition)],
        ["lifecycle_premium", _fmt(point.lifecycle)],
    ]
    manifest = _manifest("tco", args.scenario, year=args.year,
                         units="RMB; lcod in RMB/km; premiums are fractions")
    write_csv(args.out, manifest, ["quantity", "value"], rows)


def cmd_premium_series(args) -> None:
    sched = config.load_schedule(args.scenario)
    series = tj.premium_series(sched, _years(args))
    rows = [[str(p.year), _fmt(p.production), _fmt(p.acquisition),
             _fmt(p.lifecycle), _fmt(p.lcod_ev), _fmt(p.lcod_icev)]
            for p in series.points]
    manifest = _manifest("premium-series", args.scenario,
                         units="premiums are fractions; lcod in RMB/km")
    write_csv(args.out, manifest,
              ["year", "production_premium", "acquisition_premium",
               "lifecycle_premium", "lcod_ev", "lcod_icev"], rows)


def cmd_parity(args) -> None:
    sched = config.load_schedule(args.scenario)
    series = tj.premium_series(sched, _years(args))
    years = (tj.parity_years(series) if args.which == "all"
             else {args.which: tj.parity_year(series, args.which)})
    rows = [[kind, "none" if year is None else str(year)] for kind, year in years.items()]
    manifest = _manifest("parity", args.scenario)
    write_csv(args.out, manifest, ["premium", "parity_year"], rows)


def _sales_and_premiums(args, with_premiums: bool = True
                        ) -> tuple[ObservationSeries, tj.PremiumSeries | None]:
    """The sales file, and the scenario's premium series over its years."""
    obs = load_sales_csv(args.data)
    if not with_premiums:
        return obs, None
    sched = config.load_schedule(args.scenario)
    return obs, tj.premium_series(sched, range(obs.years[0], obs.years[-1] + 1))


def cmd_fit(args) -> None:
    import numpy as np
    from .fitting import ga_fit
    obs, premiums = _sales_and_premiums(args, with_premiums=not args.vanilla)
    seed = _resolve_seed(args)
    cfg = _fit_config(args, seed)
    result = ga_fit(obs, premiums, cfg)
    _report_bounds("vanilla" if args.vanilla else "generalized", result)
    header, rows = _fit_rows(result)
    # A vanilla fit reads no scenario, so its manifest names none.
    manifest = _manifest("fit", None if args.vanilla else args.scenario, seed=seed,
                         model="vanilla" if args.vanilla else "generalized",
                         data=args.data, **_fit_settings(cfg), numpy=np.__version__)
    write_csv(args.out, manifest, header, rows)


def cmd_forecast(args) -> None:
    from .diffusion import decision_coefficient, simulate
    params = load_params_csv(args.params)
    sched = config.load_schedule(args.scenario)
    years = _years(args)
    series = tj.premium_series(sched, years)
    try:
        states = simulate(params, series, args.year_from, len(years))
    except ValueError as exc:
        raise CliError(f"{args.params}: {exc}") from exc
    rows = []
    for s in states:
        dp3 = series.lifecycle(s.year)
        rows.append([str(s.year),
                     _fmt(s.new_adopters, EXACT_DIGITS),
                     _fmt(s.cumulative + s.new_adopters, EXACT_DIGITS),
                     _fmt(dp3, EXACT_DIGITS),
                     _fmt(decision_coefficient(dp3, params.beta), EXACT_DIGITS)])
    manifest = _manifest("forecast", args.scenario, params_file=args.params,
                         units="sales in thousand vehicles")
    write_csv(args.out, manifest,
              ["year", "predicted_annual", "predicted_cumulative",
               "lifecycle_premium", "decision_coefficient"], rows)


def cmd_sensitivity(args) -> None:
    sched = config.load_schedule(args.scenario)
    base = tj.resolve_scenario(sched, args.year)
    rows_out, errors = sn.sensitivity_table(base, sn.default_factors(), args.target)
    rows = [[r.factor, r.group, r.base_label,
             _fmt(r.changes[0]), _fmt(r.changes[1]), _fmt(r.changes[2]),
             _fmt(r.changes[3]), _fmt(r.coefficient)]
            for r in rows_out]
    extra = {"target": args.target, "year": args.year}
    for fid, msg in errors.items():
        extra[f"skipped_{fid}"] = msg
    manifest = _manifest("sensitivity", args.scenario, **extra)
    write_csv(args.out, manifest,
              ["factor", "group", "base", "change_-20%", "change_-10%",
               "change_+10%", "change_+20%", "coefficient"], rows)


def cmd_compare(args) -> None:
    import numpy as np
    from .fitting import compare_models
    obs, premiums = _sales_and_premiums(args)
    seed = _resolve_seed(args)
    cfg = _fit_config(args, seed)
    vanilla, generalized = compare_models(obs, premiums, cfg)
    rows = []
    for label, res in (("vanilla", vanilla), ("generalized", generalized)):
        _report_bounds(label, res)
        _, fit_rows = _fit_rows(res)
        rows.append([label] + fit_rows[0])
    if generalized.objective > vanilla.objective:
        print(f"warning: generalized fit: objective = "
              f"{_fmt(generalized.objective, EXACT_DIGITS)} is above the vanilla fit's "
              f"{_fmt(vanilla.objective, EXACT_DIGITS)}, which it nests", file=sys.stderr)
    manifest = _manifest("compare", args.scenario, seed=seed, data=args.data,
                         **_fit_settings(cfg), numpy=np.__version__)
    write_csv(args.out, manifest,
              ["model", "p", "q", "beta", "m", "objective", "r_squared",
               "generations_run", "converged"], rows)


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenpremium",
        description="EV cost-gap economics and market diffusion forecasting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", default="long-range",
                       help="built-in scenario name or YAML path")
        p.add_argument("--out", default="-", help="output CSV file (default stdout)")

    def add_years(p):   # read by _years
        p.add_argument("--from", dest="year_from", type=int, default=2010)
        p.add_argument("--to", dest="year_to", type=int, default=2030)

    p = sub.add_parser("tco", help="cost snapshot for one model year")
    add_common(p)
    p.add_argument("--year", type=int, default=2021)
    p.set_defaults(func=cmd_tco)

    p = sub.add_parser("premium-series", help="per-year premiums and LCOD")
    add_common(p)
    add_years(p)
    p.set_defaults(func=cmd_premium_series)

    p = sub.add_parser("parity", help="first years each premium reaches zero")
    add_common(p)
    add_years(p)
    p.add_argument("--which", default="all",
                   choices=["all", *PREMIUM_KINDS])
    p.set_defaults(func=cmd_parity)

    def add_fit_options(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--population", type=int, default=None)
        p.add_argument("--generations", type=int, default=None)
        p.add_argument("--m-value", dest="m_value", type=float, default=None)
        p.add_argument("--late-weight", dest="late_weight", type=float, default=None)
        p.add_argument("--no-early-stop", dest="no_early_stop", action="store_true")

    p = sub.add_parser("fit", help="estimate adoption parameters from sales data")
    add_common(p)
    p.add_argument("--data", required=True, help="sales CSV (year,annual_sales)")
    p.add_argument("--vanilla", action="store_true",
                   help="fit without the cost-gap term")
    add_fit_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="simulate adoption from fitted parameters")
    add_common(p)
    p.add_argument("--params", required=True, help="fit output CSV")
    add_years(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("sensitivity", help="one-at-a-time factor sensitivity table")
    add_common(p)
    p.add_argument("--year", type=int, default=2021)
    p.add_argument("--target", default="lifecycle",
                   choices=PREMIUM_KINDS)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("compare", help="vanilla vs generalized fit on one dataset")
    add_common(p)
    p.add_argument("--data", required=True)
    add_fit_options(p)
    p.set_defaults(func=cmd_compare)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are validation
        # problems under this tool's contract (runtime failures keep 2).
        return 0 if exc.code in (0, None) else 1
    start = time.perf_counter()
    try:
        args.func(args)
    except ValueError as exc:   # each input error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"done in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
