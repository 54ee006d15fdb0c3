"""Command-line front end.

Every subcommand reads scenario/sales inputs, runs the corresponding library
pipeline and returns one CSV table, which `run` writes (stdout by default, or
--out) after '#' comment lines carrying the run manifest: tool version,
command, config digest and seed. Timestamps are deliberately kept out of the
output so that identical inputs and seed produce byte-identical files; they
are logged to stderr instead.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
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
    from .fitting import FitResult, ObservationSeries

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
    return f"{value:.{digits}g}"


def write_csv(out: str, manifest: RunManifest, header: list[str],
              rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    for line in manifest.comment_lines():
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="")
    except OSError as exc:
        raise CliError(f"cannot write --out {out}: {exc.strerror}") from None


def _check_out(out: str) -> None:
    """Reject an --out path that cannot be a file before any work is done."""
    if out == "-":
        return
    path = Path(out)
    try:
        if path.is_dir():
            raise CliError(f"--out {out}: is a directory")
        if not path.parent.is_dir():
            raise CliError(f"--out {out}: directory {path.parent} not found")
    except OSError as exc:      # e.g. a parent directory that cannot be searched
        raise CliError(f"--out {out}: {exc.strerror}") from None


def _input_lines(path: str, what: str) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """An input file's non-blank lines, stripped and numbered from 1: the
    data lines, then the '#' comment lines."""
    text, _ = config.read_input(path, what)
    lines = [(lineno, line) for lineno, raw in enumerate(text.split("\n"), start=1)
             if (line := raw.strip())]
    return ([(n, line) for n, line in lines if not line.startswith("#")],
            [(n, line) for n, line in lines if line.startswith("#")])


def load_sales_csv(path: str) -> ObservationSeries:
    """Parse a `year,annual_sales` file; comment lines start with '#'.

    `ObservationSeries` checks the values; an error it raises is reported
    here at the line of the offending row.
    """
    from .fitting import ObservationError, ObservationSeries
    lines, _ = _input_lines(path, "sales")
    if lines and [c.strip() for c in lines[0][1].split(",")] != ["year", "annual_sales"]:
        raise CliError(f"{path}:{lines[0][0]}: expected header 'year,annual_sales'")
    rows = lines[1:]
    if not rows:
        raise CliError(f"{path}: no data rows")
    points: list[tuple[int, float]] = []
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 2:
            raise CliError(f"{path}:{lineno}: expected two fields")
        try:
            points.append((int(parts[0]), float(parts[1])))
        except ValueError:
            raise CliError(f"{path}:{lineno}: malformed row {line!r}") from None
    try:
        return ObservationSeries(tuple(points))
    except ObservationError as exc:
        first = "" if exc.first is None else f" (first at line {rows[exc.first][0]})"
        raise CliError(f"{path}:{rows[exc.index][0]}: {exc.reason}{first}") from None


def load_params_csv(path: str) -> tuple[BassParams, int | None]:
    """Read fitted parameters back from a `fit` output file, with the year its
    `# adoption_from:` manifest line names (None without one). A missing
    column is reported at the header's line, any other fault at the data row's."""
    from .diffusion import BassParams
    lines, comments = _input_lines(path, "params")
    adoption_from = None
    for lineno, line in comments:
        key, _, value = line[1:].partition(":")
        if key.strip() != "adoption_from":
            continue
        if adoption_from is not None:
            raise CliError(f"{path}:{lineno}: adoption_from given twice")
        if not re.fullmatch(r"[0-9]{1,9}", value := value.strip()):
            raise CliError(f"{path}:{lineno}: adoption_from: expected a year, "
                           f"got {tj.shown(value)}")
        adoption_from = int(value)
    if len(lines) < 2:
        raise CliError(f"{path}: expected a header and one data row")
    if len(lines) > 2:
        raise CliError(f"{path}: expected one data row, found {len(lines) - 1}; "
                       "pass a single-row `fit` output")
    (header_no, _), (row_no, _) = lines
    row = next(csv.DictReader(line for _, line in lines))   # a short row fills in None
    values = {}
    for name in ("p", "q", "beta", "m"):
        if name not in row:
            raise CliError(f"{path}:{header_no}: not a fitted-parameters file: no column {name}")
        try:
            values[name] = float(row[name])
        except (TypeError, ValueError):
            problem = "no value" if row[name] is None else f"expected a number, got {row[name]!r}"
            raise CliError(f"{path}:{row_no}: column {name}: {problem}") from None
    try:
        return BassParams(**values), adoption_from
    except ValueError as exc:
        raise CliError(f"{path}:{row_no}: {exc}") from None


def _manifest(command: str, scenario: str, sched: tj.ScenarioSchedule | None,
              seed: int | None = None, **extra) -> RunManifest:
    """`sched` was loaded from `scenario`; a command that loads none names none.
    A path or a built-in is named as typed, a file found in
    $GREENPREMIUM_CONFIG_DIR by its path."""
    read = Path(sched.source) if sched else None
    if read and read != Path(scenario) and read.parent != config.DATA_DIR:
        scenario = sched.source
    return RunManifest(
        command=command,
        config_ref=scenario if sched else None,
        config_digest=sched.digest if sched else None,
        seed=seed,
        extra=tuple((k, str(v)) for k, v in extra.items()),
    )


def _years(args) -> range:
    """The years --from..--to, both included."""
    if args.year_to < args.year_from:
        raise CliError("--to must not precede --from")
    return range(args.year_from, args.year_to + 1)


FIT_HEADER = ["p", "q", "beta", "m", "objective", "r_squared", "generations_run", "converged"]


def _fit_row(result: FitResult) -> list[str]:
    exact = (result.params.p, result.params.q, result.params.beta, result.params.m,
             result.objective, result.r_squared)
    return [*(_fmt(v, EXACT_DIGITS) for v in exact), str(result.generations_run),
            _fmt(result.converged)]


def _report_bounds(model: str, result: FitResult) -> None:
    """One stderr line per fitted parameter that ended on a bound."""
    for gene, side in result.at_bounds:
        value = _fmt(getattr(result.params, gene), EXACT_DIGITS)
        print(f"warning: {model} fit: {gene} = {value} is at its {side} bound",
              file=sys.stderr)


# --- subcommand implementations ------------------------------------------
# Each returns (its scenario or None, manifest fields, CSV header, rows) to `run`.

def cmd_tco(args) -> tuple:
    sched = config.load_schedule(args.scenario)
    sc, point = tj.evaluate(sched, args.year)
    rows = [
        ["ev_price", _fmt(sc.ev_price)],
        ["icev_price", _fmt(sc.icev_price)],
        ["tco_ev", _fmt(point.tco_ev)],
        ["tco_icev", _fmt(point.tco_icev)],
        ["lcod_ev", _fmt(point.lcod_ev)],
        ["lcod_icev", _fmt(point.lcod_icev)],
        ["production_premium", _fmt(point.production)],
        ["acquisition_premium", _fmt(point.acquisition)],
        ["lifecycle_premium", _fmt(point.lifecycle)],
    ]
    fields = dict(year=args.year, units="RMB; lcod in RMB/km; premiums are fractions")
    return sched, fields, ["quantity", "value"], rows


def cmd_premium_series(args) -> tuple:
    sched = config.load_schedule(args.scenario)
    series = tj.premium_series(sched, _years(args))
    rows = [[str(p.year), _fmt(p.production), _fmt(p.acquisition),
             _fmt(p.lifecycle), _fmt(p.lcod_ev), _fmt(p.lcod_icev)]
            for p in series.points]
    return (sched, dict(units="premiums are fractions; lcod in RMB/km"),
            ["year", "production_premium", "acquisition_premium",
             "lifecycle_premium", "lcod_ev", "lcod_icev"], rows)


def cmd_parity(args) -> tuple:
    sched = config.load_schedule(args.scenario)
    series = tj.premium_series(sched, _years(args))
    rows = [[kind, "none" if year is None else str(year)]
            for kind, year in tj.parity_years(series).items()]
    return sched, {}, ["premium", "parity_year"], rows


def _run_fit(args, fit, with_premiums: bool = True) -> tuple:
    """(scenario, manifest fields every fit output shares, result) of `fit` run
    on the sales and the scenario's premium series over the fit window, checked
    before the scenario is read; a fit error names the sales file."""
    import numpy as np
    from .fitting import FitConfig, fit_window
    obs = load_sales_csv(args.data)
    try:
        window = fit_window(obs)
    except ValueError as exc:
        raise CliError(f"{args.data}: {exc}") from exc
    sched = premiums = None
    if with_premiums:
        sched = config.load_schedule(args.scenario)
        premiums = tj.premium_series(sched, window)
    seed = args.seed
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed} (chosen randomly; pass --seed {seed} to reproduce)",
              file=sys.stderr)
    chosen = dict(population_size=args.population, max_generations=args.generations,
                  late_weight=args.late_weight)
    cfg = FitConfig(rng_seed=seed, m_value=args.m_value, early_stop=not args.no_early_stop,
                    **{k: v for k, v in chosen.items() if v is not None})
    fields = dict(seed=seed, data=args.data, adoption_from=window.start,
                  population=cfg.population_size, generations=cfg.max_generations,
                  late_weight=cfg.late_weight,
                  m_mode="free" if cfg.m_value is None else "fixed",
                  numpy=np.__version__)
    try:
        return sched, fields, fit(obs, premiums, cfg)
    except ValueError as exc:
        raise CliError(f"{args.data}: {exc}") from exc


def cmd_fit(args) -> tuple:
    from .fitting import ga_fit
    model = "vanilla" if args.vanilla else "generalized"
    sched, fields, result = _run_fit(args, ga_fit, with_premiums=not args.vanilla)
    _report_bounds(model, result)
    return sched, {"model": model, **fields}, FIT_HEADER, [_fit_row(result)]


def cmd_forecast(args) -> tuple:
    from .diffusion import decision_coefficients, simulate
    params, start = load_params_csv(args.params)
    sched = config.load_schedule(args.scenario)
    # Adoption starts in the fit's first sales year, else in the span's first;
    # --from only selects rows, and a row before the start has no flow.
    if start is None:
        start = sched.span[0]
    elif not sched.span[0] <= start <= sched.span[1]:
        raise CliError(f"{args.params}: adoption_from {start} outside the span "
                       f"{sched.span[0]}..{sched.span[1]} of scenario {sched.source}")
    years = _years(args)
    series = tj.premium_series(sched, range(min(start, args.year_from), years.stop))
    dp3 = series.lifecycles(series.years)
    horizon = years.stop - start
    try:
        coefficients = decision_coefficients(dp3, series.years, params.beta)
        states = simulate(params, series, start, horizon) if horizon > 0 else ()
    except ValueError as exc:
        raise CliError(f"{args.params}: {exc}") from exc
    by_year = {s.year: (s.new_adopters, s.cumulative + s.new_adopters) for s in states}
    rows = []
    for year, premium, x in zip(series.years, dp3, coefficients):
        if year in years:
            new, total = by_year.get(year, (0.0, 0.0))
            rows.append([str(year), *(_fmt(v, EXACT_DIGITS) for v in (new, total, premium, x))])
    return (sched, dict(params_file=args.params, units="sales in thousand vehicles"),
            ["year", "predicted_annual", "predicted_cumulative",
             "lifecycle_premium", "decision_coefficient"], rows)


def cmd_sensitivity(args) -> tuple:
    sched = config.load_schedule(args.scenario)
    base = tj.resolve_scenario(sched, args.year)
    try:
        rows_out, errors = sn.sensitivity_table(base, sn.default_factors(), args.target)
    except ValueError as exc:
        raise tj.year_error(sched, args.year, exc) from exc
    rows = [[r.factor, r.group, r.base_label,
             _fmt(r.changes[0]), _fmt(r.changes[1]), _fmt(r.changes[2]),
             _fmt(r.changes[3]), _fmt(r.coefficient)]
            for r in rows_out]
    fields = {"target": args.target, "year": args.year}
    for fid, msg in errors.items():
        fields[f"skipped_{fid}"] = msg
    return (sched, fields,
            ["factor", "group", "base", "change_-20%", "change_-10%",
             "change_+10%", "change_+20%", "coefficient"], rows)


def cmd_compare(args) -> tuple:
    from .fitting import compare_models
    sched, fields, (vanilla, generalized) = _run_fit(args, compare_models)
    rows = []
    for label, res in (("vanilla", vanilla), ("generalized", generalized)):
        _report_bounds(label, res)
        rows.append([label, *_fit_row(res)])
    if generalized.objective > vanilla.objective:
        print(f"warning: generalized fit: objective = "
              f"{_fmt(generalized.objective, EXACT_DIGITS)} is above the vanilla fit's "
              f"{_fmt(vanilla.objective, EXACT_DIGITS)}, which it nests", file=sys.stderr)
    return sched, fields, ["model", *FIT_HEADER], rows


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
        _check_out(args.out)
        sched, fields, header, rows = args.func(args)
        write_csv(args.out, _manifest(args.command, args.scenario, sched, **fields),
                  header, rows)
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
