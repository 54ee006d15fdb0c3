import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from greenpremium import config, fitting
from greenpremium import sensitivity as sn
from greenpremium import trajectory as tj
from greenpremium.cli import (CliError, load_params_csv, load_sales_csv, run)
from greenpremium.fitting import r_squared


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    assert code == 0, f"command failed: {args}"
    return out


def parse_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


# --- sales-file parsing -----------------------------------------------------

def test_load_sample_sales_file():
    obs = load_sales_csv(str(config.sample_sales_path()))
    assert len(obs) == 12
    assert obs.years[0] == 2010 and obs.years[-1] == 2021


def test_load_sales_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(CliError, match="no data"):
        load_sales_csv(str(p))


def test_load_sales_order_invariant(tmp_path):
    p = tmp_path / "shuffled.csv"
    p.write_text("year,annual_sales\n2020,5\n2018,3\n2019,4\n")
    obs = load_sales_csv(str(p))
    assert obs.years == (2018, 2019, 2020)
    assert obs.sales == (3.0, 4.0, 5.0)


def test_load_sales_error_messages_carry_line_numbers(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("year,annual_sales\n2020,5\n2020,6\n")
    with pytest.raises(CliError, match=r"dup.csv:3: duplicate year 2020 \(first at line 2\)"):
        load_sales_csv(str(dup))

    neg = tmp_path / "neg.csv"
    neg.write_text("year,annual_sales\n2020,-5\n")
    with pytest.raises(CliError, match="neg.csv:2: negative"):
        load_sales_csv(str(neg))

    bad = tmp_path / "bad.csv"
    bad.write_text("year,annual_sales\n2020,abc\n")
    with pytest.raises(CliError, match="bad.csv:2: malformed"):
        load_sales_csv(str(bad))

    for name, text in (("nan", "nan"), ("inf", "inf")):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"year,annual_sales\n2011,1\n2012,{text}\n")
        with pytest.raises(CliError, match=f"{name}.csv:3: non-finite sales"):
            load_sales_csv(str(path))

    header = tmp_path / "header.csv"
    header.write_text("foo,bar\n2020,5\n")
    with pytest.raises(CliError, match="header"):
        load_sales_csv(str(header))


@pytest.mark.parametrize("value, shown", [('"abc"', "'abc'"), (".nan", "nan")])
def test_scenario_value_that_is_not_a_finite_number_names_file_entry_and_field(
        tmp_path, capsys, value, shown):
    text = config.scenario_path("long-range").read_text()
    assert "  - year: 2010\n    battery_unit_cost: 7500\n" in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("battery_unit_cost: 7500",
                                f"battery_unit_cost: {value}", 1))
    assert run(["tco", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert (f"{bad}: entry 2010: battery_unit_cost: expected a finite number, "
            f"got {shown}") in err


def test_value_check_failing_while_a_year_resolves_names_file_and_year(tmp_path, capsys):
    text = config.scenario_path("long-range").read_text()
    assert "    ev_price_margin: 0.4115\n" in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("ev_price_margin: 0.4115", "ev_price_margin: -2.0", 1))
    out = tmp_path / "series.csv"
    assert run(["premium-series", "--scenario", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: year 2010: prices must be non-negative\n" in err
    assert not out.exists()


@pytest.mark.parametrize("edits", [
    [("engine_intake_exhaust_cost: 16000", "engine_intake_exhaust_cost: 1.0e+308"),
     ("transmission_cost: 11000", "transmission_cost: 1.0e+308")],
    [("battery_unit_cost: 7500", "battery_unit_cost: 1.0e+308")],
], ids=["icev-costs", "battery-cost"])
@pytest.mark.parametrize("command", [["tco", "--year", "2010"], ["sensitivity", "--year", "2010"],
                                     ["premium-series"], ["parity"]],
                         ids=["tco", "sensitivity", "premium-series", "parity"])
def test_year_that_evaluates_to_a_non_finite_value_exits_1_naming_file_and_year(
        tmp_path, capsys, command, edits):
    text = config.scenario_path("long-range").read_text()
    for old, new in edits:      # the first occurrence is in the 2010 entry
        assert text.index(old) < text.index("  - year: 2013")
        text = text.replace(old, new, 1)
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    out = tmp_path / "out.csv"
    assert run([*command, "--scenario", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: year 2010: " in err
    assert not out.exists()


def _long_range_with(tmp_path, old, new):
    text = config.scenario_path("long-range").read_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.yaml"
    path.write_text(text.replace(old, new))
    return path


@pytest.mark.parametrize("command, year", [("tco", 2021), ("premium-series", 2010)])
def test_domain_error_while_a_year_evaluates_names_file_and_year(tmp_path, capsys,
                                                                command, year):
    bad = _long_range_with(tmp_path, "icev_residual: 65000", "icev_residual: 300000000")
    out = tmp_path / "out.csv"
    assert run([command, "--scenario", str(bad), "--out", str(out)]) == 1
    assert (f"error: {bad}: year {year}: lifecycle premium undefined: ICEV TCO must be "
            "positive\n" in capsys.readouterr().err)
    assert not out.exists()


ICEV_COSTS = r"(engine_intake_exhaust_cost|transmission_cost|common_base_cost): \d+"


def test_zero_icev_cost_exits_1_on_the_production_premium_first(tmp_path, capsys):
    """With no ICEV production cost the production premium, priced first, is undefined."""
    text = config.scenario_path("long-range").read_text()
    bad = tmp_path / "zero_icev.yaml"
    bad.write_text(re.sub(ICEV_COSTS, r"\1: 0", text))
    out = tmp_path / "out.csv"
    assert run(["tco", "--year", "2021", "--scenario", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {bad}: year 2021: production premium undefined for zero ICEV cost\n")
    assert not out.exists()


def test_sensitivity_row_that_is_not_finite_exits_1_naming_file_year_and_factor(
        tmp_path, capsys):
    # The base year evaluates, but +20% of the EV residual overflows.
    text = config.scenario_path("long-range").read_text()
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("ev_residual: 35000", "ev_residual: 1.6e+308", 1))
    out = tmp_path / "out.csv"
    assert run(["sensitivity", "--year", "2010", "--scenario", str(bad),
                "--out", str(out)]) == 1
    assert (f"error: {bad}: year 2010: ev_residual: a perturbed lifecycle premium is "
            "not finite\n" in capsys.readouterr().err)
    assert not out.exists()


def test_sensitivity_point_that_cannot_be_priced_names_file_year_and_factor(
        tmp_path, capsys):
    bad = _long_range_with(tmp_path, "discount_rate: 0.05", "discount_rate: -0.5")
    out = tmp_path / "out.csv"
    assert run(["sensitivity", "--year", "2021", "--scenario", str(bad),
                "--out", str(out)]) == 1
    assert (f"error: {bad}: year 2021: battery_800: lifecycle premium undefined: "
            "ICEV TCO must be positive\n" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("old, new, target", [
    ("discount_rate: 0.05", "discount_rate: -0.5", "production"),
    ("discount_rate: 0.05", "discount_rate: -0.5", "acquisition"),
    ("annual_km: 15000", "annual_km: 0", "lifecycle"),
    ("annual_km: 15000", "annual_km: 0", "production"),
    ("annual_km: 15000", "annual_km: 0", "acquisition"),
], ids=["discount-production", "discount-acquisition", "no-km-lifecycle",
        "no-km-production", "no-km-acquisition"])
def test_sensitivity_does_not_price_premiums_it_does_not_report(tmp_path, old, new, target):
    """A lifecycle or LCOD error in the base year fails only a table that needs it."""
    edited = _long_range_with(tmp_path, old, new)
    out = run_to_file(tmp_path, "out.csv", ["sensitivity", "--year", "2021", "--scenario",
                                            str(edited), "--target", target])
    base = tj.resolve_scenario(config.load_schedule(str(edited)), 2021)
    rows, errors = sn.sensitivity_table(base, sn.default_factors(), target)
    assert not errors
    assert [list(r.values()) for r in parse_csv(out)] == [
        [r.factor, r.group, r.base_label, *(f"{v:.6g}" for v in (*r.changes, r.coefficient))]
        for r in rows]


@pytest.mark.parametrize("command", ["tco", "fit"])
def test_year_outside_the_span_names_the_scenario_file(tmp_path, capsys, command):
    sales = tmp_path / "sales.csv"
    sales.write_text("year,annual_sales\n2005,1\n2010,2\n")
    argv = (["tco", "--year", "2040"] if command == "tco"
            else ["fit", "--data", str(sales), "--seed", "0"])
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 1
    year = 2040 if command == "tco" else 2005
    path = config.scenario_path("long-range")
    assert (f"error: {path}: year {year} outside schedule span 2010..2030\n"
            in capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(tj.SpanError, match=f"^{re.escape(str(path))}: year {year} "):
        tj.resolve_scenario(config.load_schedule("long-range"), year)


def _tco(tmp_path, scenario, year):
    out = run_to_file(tmp_path, "tco.csv", ["tco", "--scenario", scenario, "--year", year])
    return {r["quantity"]: r["value"] for r in parse_csv(out)}


def test_consumer_battery_replacements_first_anchored_late_are_counted(tmp_path):
    text = config.scenario_path("long-range").read_text()
    assert text.rsplit("  - year: ", 1)[1].startswith("2030\n")   # the last entry
    late = tmp_path / "late.yaml"
    late.write_text(text + "    consumer_battery_replacements: 3\n")
    assert _tco(tmp_path, str(late), "2029") == _tco(tmp_path, "long-range", "2029")
    shipped, changed = _tco(tmp_path, "long-range", "2030"), _tco(tmp_path, str(late), "2030")
    assert shipped["lifecycle_premium"] == "-0.303781"
    assert changed["lifecycle_premium"] == "0.0157325"
    assert changed["acquisition_premium"] == shipped["acquisition_premium"]


@pytest.mark.parametrize("old, new, year, key", [
    ("    cafc_threshold: 3.9\n", "    cafc_threshold: 3.9\n    ev_price: 1.0\n",
     2030, "ev_price"),
    ("    icev_price_margin: 0.358\n", "    icev_price_margin: 0.358\n    icev_price: 1.0e+5\n",
     2010, "icev_price"),
    ("    ev_price_margin: 0.4115\n", "    ev_price: 2.5e+5\n", 2021, "ev_price_margin"),
], ids=["later-price", "first-entry-both", "later-margin"])
def test_price_key_the_schedule_does_not_use_exits_1(tmp_path, capsys, old, new, year, key):
    text = config.scenario_path("long-range").read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new, 1))
    assert run(["tco", "--scenario", str(bad), "--year", "2030"]) == 1
    assert f"error: {bad}: entry {year}: {key}: this schedule uses " in capsys.readouterr().err


# --- commands ----------------------------------------------------------------

def test_premium_series_shape(tmp_path):
    out = run_to_file(tmp_path, "series.csv",
                      ["premium-series", "--scenario", "long-range",
                       "--from", "2010", "--to", "2030"])
    rows = parse_csv(out)
    assert len(rows) == 21
    assert list(rows[0]) == ["year", "production_premium", "acquisition_premium",
                             "lifecycle_premium", "lcod_ev", "lcod_icev"]
    assert rows[0]["year"] == "2010" and rows[-1]["year"] == "2030"


def test_premium_series_numbers_parse_back(tmp_path):
    out = run_to_file(tmp_path, "series.csv", ["premium-series"])
    for row in parse_csv(out):
        for key in ("production_premium", "lifecycle_premium", "lcod_ev"):
            float(row[key])  # six-significant-digit decimal text


def test_tco_and_parity_commands(tmp_path):
    tco = parse_csv(run_to_file(tmp_path, "tco.csv", ["tco", "--year", "2021"]))
    values = {r["quantity"]: float(r["value"]) for r in tco}
    assert values["lcod_ev"] == pytest.approx(1.52, abs=0.05)
    parity = parse_csv(run_to_file(
        tmp_path, "parity.csv", ["parity", "--scenario", "short-range"]))
    assert {r["premium"]: r["parity_year"] for r in parity}["lifecycle"] == "2018"


@pytest.mark.parametrize("command", ["premium-series", "parity", "forecast"])
def test_to_before_from_exits_1_naming_both_flags(tmp_path, capsys, command):
    params = tmp_path / "params.csv"
    params.write_text("p,q,beta,m\n0.001,0.5,0,80000\n")
    extra = ["--params", str(params)] if command == "forecast" else []
    out = tmp_path / "out.csv"
    assert run([command, *extra, "--from", "2030", "--to", "2010", "--out", str(out)]) == 1
    assert "error: --to must not precede --from" in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_command(tmp_path):
    out = run_to_file(tmp_path, "sens.csv", ["sensitivity", "--year", "2021"])
    rows = parse_csv(out)
    assert {r["factor"] for r in rows} >= {"battery_800", "tax_rate", "oil_price"}


def test_sensitivity_names_each_skipped_factor_in_the_manifest(tmp_path, monkeypatch):
    table = sn.sensitivity_table
    skipped = {"credit": "credit: base premium 1.00e-13 too small to normalise",
               "oil_price": "oil_price: base premium 0.00e+00 too small to normalise"}

    def skipping(base, factors, target):
        rows, _ = table(base, factors, target)
        return [r for r in rows if r.factor not in skipped], skipped
    monkeypatch.setattr(sn, "sensitivity_table", skipping)
    out = run_to_file(tmp_path, "sens.csv", ["sensitivity", "--year", "2021"])
    lines = out.read_text().splitlines()
    start = lines.index("# target: lifecycle")
    assert lines[start:start + 4] == [
        "# target: lifecycle", "# year: 2021",
        "# skipped_credit: credit: base premium 1.00e-13 too small to normalise",
        "# skipped_oil_price: oil_price: base premium 0.00e+00 too small to normalise"]
    assert {r["factor"] for r in parse_csv(out)}.isdisjoint(skipped)


def test_tco_prints_an_integer_price_anchor_as_it_prints_a_float_one(tmp_path):
    text = config.scenario_path("long-range").read_text()
    outputs = []
    for price in ("12345678", "12345678.0"):
        path = tmp_path / f"price-{price}.yaml"
        path.write_text(re.sub(r"\bev_price_margin: [0-9.]+", f"ev_price: {price}", text))
        out = run_to_file(tmp_path, f"tco-{price}.csv",
                          ["tco", "--scenario", str(path), "--year", "2010"])
        outputs.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
    assert "ev_price,1.23457e+07" in outputs[0]
    assert outputs[0] == outputs[1]


# SHA-256 of each scenario command's output after its `# greenpremium <version>`
# line. These commands write 6-digit report columns and use no numpy, so the
# digests hold across hosts; a refactor of the scenario path must keep them.
# The default-option outputs are pinned whole by the golden files below.
_PINNED_OUTPUTS = {
    ("long-range", "tco", "--year", "2015"):
        "731a62060b6e1402af577ee959d8c65142ed643e8648c51da831afc9ecdd4d93",
    ("long-range", "sensitivity", "--year", "2015", "--target", "acquisition"):
        "5994e36d02bf9e375aacb4d607f0d6c5b82dfcd12d1f15307bfcca9ea3f7bbec",
    ("long-range", "sensitivity", "--year", "2015", "--target", "production"):
        "b31703f57eed8f9107e322903947c86b4f94db053c8f6a7ac038f6dcc5116914",
    ("short-range", "tco", "--year", "2015"):
        "ccc3a4222cd3273d78a3e52cf52510ab95523a286d3690f1a40dc4c26c5c4555",
    ("short-range", "sensitivity", "--year", "2015", "--target", "acquisition"):
        "63ee48647a8e3038e2643179ebd2b435994ffe77d9ec9a3f8be1cda90d4d4b8b",
    ("short-range", "sensitivity", "--year", "2015", "--target", "production"):
        "7f16c1c5bb3fd9a2c06d952924dc2bda0cc623e91c3943db49efae810655b07e",
}


@pytest.mark.parametrize("case", list(_PINNED_OUTPUTS), ids=" ".join)
def test_scenario_command_output_matches_its_pinned_digest(tmp_path, case):
    scenario, *command = case
    out = run_to_file(tmp_path, "out.csv", [*command, "--scenario", scenario])
    body = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == _PINNED_OUTPUTS[case]


# Each scenario command's whole output, manifest included, on both shipped
# scenarios with the default options: tests/golden/<command>_<scenario>.csv.
_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("scenario", ["long-range", "short-range"])
@pytest.mark.parametrize("command", ["tco", "premium-series", "parity", "sensitivity"])
def test_scenario_command_output_matches_its_golden_file(tmp_path, command, scenario):
    out = run_to_file(tmp_path, "out.csv", [command, "--scenario", scenario])
    assert out.read_bytes() == (_GOLDEN / f"{command}_{scenario}.csv").read_bytes()


def test_forecast_of_the_seed_0_fit_matches_its_golden_file(tmp_path, monkeypatch):
    """The default forecast of `fit --seed 0` on the shipped sales, as written
    before fits recorded `# adoption_from:`: adoption starts in 2010 either way."""
    monkeypatch.chdir(tmp_path)
    sales = str(config.sample_sales_path())
    assert run(["fit", "--data", sales, "--seed", "0", "--out", "fit.csv"]) == 0
    assert "# adoption_from: 2010\n" in Path("fit.csv").read_text()
    assert run(["forecast", "--params", "fit.csv", "--out", "forecast.csv"]) == 0
    assert (Path("forecast.csv").read_bytes()
            == (_GOLDEN / "forecast_long-range.csv").read_bytes())


def test_forecast_starts_adoption_in_the_fits_first_sales_year(tmp_path):
    """A fit of sales from 2012 on: forecast's rows are the fit's own
    predictions from 2012, and the rows before 2012 have no flow."""
    text = config.sample_sales_path().read_text()
    sales = tmp_path / "sales_2012.csv"
    sales.write_text("".join(l for l in text.splitlines(True)
                             if not l.startswith(("2010,", "2011,"))))
    fitted = run_to_file(tmp_path, "fit.csv", ["fit", "--vanilla", "--data", str(sales),
                                               "--seed", "0"])
    assert "# adoption_from: 2012" in fitted.read_text().splitlines()
    rows = parse_csv(run_to_file(tmp_path, "forecast.csv", ["forecast", "--params",
                                                            str(fitted), "--to", "2021"]))
    obs = load_sales_csv(str(sales))
    predicted = fitting.predictions(load_params_csv(str(fitted))[0], obs, None)
    assert [r["predicted_annual"] for r in rows] == ["0", "0", *(f"{v:.17g}" for v in predicted)]
    assert [r["predicted_cumulative"] for r in rows[:2]] == ["0", "0"]
    late = parse_csv(run_to_file(tmp_path, "late.csv", ["forecast", "--params", str(fitted),
                                                        "--from", "2015", "--to", "2021"]))
    assert late == rows[5:]


@pytest.mark.parametrize("line, message", [
    ("# adoption_from: 2009", "adoption_from 2009 outside the span 2010..2030 of scenario "),
    ("# adoption_from: 2031", "adoption_from 2031 outside the span 2010..2030 of scenario "),
    ("# adoption_from: x", "1: adoption_from: expected a year, got 'x'"),
    ("# adoption_from: 2012.0", "1: adoption_from: expected a year, got '2012.0'"),
    ("# adoption_from:", "1: adoption_from: expected a year, got ''"),
    ("# adoption_from: " + "9" * 5000, "1: adoption_from: expected a year, got '99999"),
    ("# adoption_from: 2012\n# adoption_from: 2012", "2: adoption_from given twice"),
], ids=["before-span", "after-span", "word", "fraction", "empty", "5000-digits", "twice"])
def test_forecast_rejects_a_bad_adoption_from_line(tmp_path, capsys, line, message):
    params = tmp_path / "params.csv"
    params.write_text(f"{line}\np,q,beta,m\n0.001,0.5,0,80000\n")
    out = tmp_path / "forecast.csv"
    assert run(["forecast", "--params", str(params), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {params}") and message in err and len(err) < 200
    assert not out.exists()


def test_forecast_from_a_later_year_selects_rows_of_the_full_run(tmp_path, capsys):
    """Adoption starts in the fit's first sales year whatever --from says; a
    --from before that year still exits 1 naming the scenario file."""
    fitted = run_to_file(tmp_path, "fitted.csv",
                         ["fit", "--data", str(config.sample_sales_path()), "--seed", "0"])
    full = run_to_file(tmp_path, "full.csv", ["forecast", "--params", str(fitted)])
    late = run_to_file(tmp_path, "late.csv", ["forecast", "--params", str(fitted),
                                              "--from", "2021"])
    rows = [line for line in full.read_text().splitlines() if not line.startswith("#")]
    late_rows = [line for line in late.read_text().splitlines() if not line.startswith("#")]
    assert late_rows[0] == rows[0]          # the header
    assert late_rows[1:] == rows[12:] and rows[12].startswith("2021,")
    capsys.readouterr()
    assert run(["forecast", "--params", str(fitted), "--from", "2005"]) == 1
    assert (f"error: {config.scenario_path('long-range')}: year 2005 outside schedule "
            "span 2010..2030\n" in capsys.readouterr().err)


def test_fit_forecast_round_trip(tmp_path, china_sales):
    sales = str(config.sample_sales_path())
    fitted = run_to_file(tmp_path, "fitted.csv",
                         ["fit", "--data", sales, "--seed", "0"])
    fit_row = parse_csv(fitted)[0]
    stored_r2 = float(fit_row["r_squared"])

    forecast = run_to_file(tmp_path, "forecast.csv",
                           ["forecast", "--params", str(fitted),
                            "--from", "2010", "--to", "2030"])
    rows = parse_csv(forecast)
    assert list(rows[0]) == ["year", "predicted_annual", "predicted_cumulative",
                             "lifecycle_premium", "decision_coefficient"]
    predicted = {int(r["year"]): float(r["predicted_annual"]) for r in rows}
    in_sample = [predicted[y] for y in china_sales.years]
    assert r_squared(in_sample, china_sales.sales) == pytest.approx(
        stored_r2, abs=1e-9)


def test_same_seed_byte_identical(tmp_path):
    sales = str(config.sample_sales_path())
    a = run_to_file(tmp_path, "a.csv", ["fit", "--data", sales, "--seed", "42",
                                        "--population", "60", "--generations", "30"])
    b = run_to_file(tmp_path, "b.csv", ["fit", "--data", sales, "--seed", "42",
                                        "--population", "60", "--generations", "30"])
    assert a.read_bytes() == b.read_bytes()


def test_missing_seed_is_chosen_and_reported(tmp_path, capsys):
    sales = str(config.sample_sales_path())
    out = tmp_path / "fit.csv"
    code = run(["fit", "--data", sales, "--population", "40",
                "--generations", "10", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "seed:" in err
    assert "# seed:" in out.read_text()


def test_manifest_comments_present(tmp_path):
    out = run_to_file(tmp_path, "series.csv", ["premium-series"])
    text = out.read_text()
    assert text.startswith("# greenpremium")
    assert "# command: premium-series" in text
    assert "# scenario: long-range sha256:" in text
    assert "# numpy:" not in text
    # A fit's bytes depend on numpy's random stream, so fit manifests name it,
    # and fit and compare both record the fit settings, in the same order.
    sales = str(config.sample_sales_path())
    for options, settings in (
            ([], ["# population: 20", "# generations: 3", "# late_weight: 4.0",
                  "# m_mode: free"]),
            (["--late-weight", "2", "--m-value", "30000"],
             ["# population: 20", "# generations: 3", "# late_weight: 2.0",
              "# m_mode: fixed"])):
        for command in ("fit", "compare"):
            out = run_to_file(tmp_path, f"{command}.csv",
                              [command, "--data", sales, "--seed", "0",
                               "--population", "20", "--generations", "3", *options])
            lines = out.read_text().splitlines()
            assert f"# numpy: {np.__version__}" in lines
            start = lines.index(settings[0])
            assert lines[start:start + 4] == settings


def test_vanilla_fit_reads_no_scenario_and_names_none(tmp_path):
    out = run_to_file(tmp_path, "vanilla.csv",
                      ["fit", "--vanilla", "--data", str(config.sample_sales_path()),
                       "--seed", "0", "--population", "20", "--generations", "3",
                       "--scenario", str(tmp_path / "nonexistent.yaml")])
    text = out.read_text()
    assert "# model: vanilla" in text
    assert "# scenario:" not in text


def test_load_sales_reports_the_offending_line_past_comments(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("# sales\nyear,annual_sales\n2010,1\n\n# note\n2011,nan\n")
    with pytest.raises(CliError, match="gaps.csv:6: non-finite sales$"):
        load_sales_csv(str(path))


def test_forecast_rejects_a_compare_output_as_params(tmp_path, capsys):
    sales = str(config.sample_sales_path())
    compared = run_to_file(tmp_path, "cmp.csv",
                           ["compare", "--data", sales, "--seed", "0",
                            "--population", "20", "--generations", "3"])
    capsys.readouterr()
    out = tmp_path / "forecast.csv"
    assert run(["forecast", "--params", str(compared), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(compared) in err and "single-row `fit` output" in err
    assert not out.exists()


def test_forecast_skips_an_indented_comment_in_the_params_file(tmp_path):
    sales = str(config.sample_sales_path())
    params = run_to_file(tmp_path, "fit.csv", ["fit", "--data", sales, "--seed", "0",
                                               "--population", "20", "--generations", "3"])
    plain = run_to_file(tmp_path, "plain.csv", ["forecast", "--params", str(params)])
    header, row = params.read_text().rsplit("\n", 2)[:2]
    params.write_text(f"{header}\n  # note\n{row}\n")
    noted = run_to_file(tmp_path, "noted.csv", ["forecast", "--params", str(params)])
    assert noted.read_bytes() == plain.read_bytes()


def test_sales_and_params_files_with_a_byte_order_mark_load_as_the_plain_files(tmp_path):
    sales = config.sample_sales_path()
    marked = tmp_path / "sales.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + sales.read_bytes())
    assert load_sales_csv(str(marked)) == load_sales_csv(str(sales))
    params = run_to_file(tmp_path, "fit.csv", ["fit", "--data", str(sales), "--seed", "0",
                                               "--population", "20", "--generations", "3"])
    # a spreadsheet's re-save: the comment lines gone, a mark before the header
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(l for l in params.read_text().splitlines(True)
                             if not l.startswith("#")))
    marked = tmp_path / "params.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_params_csv(str(marked)) == (load_params_csv(str(params))[0], None)


def test_vanilla_fit_refuses_a_window_it_cannot_simulate(tmp_path, capsys, monkeypatch):
    """So do `fit` and `compare`, before they price a year of the scenario."""
    from greenpremium import costmodel as cm
    evaluated, priced = [], []
    monkeypatch.setattr(fitting._FitProblem, "evaluate", lambda self, g: evaluated.append(g))
    monkeypatch.setattr(cm, "tco_npv", lambda sc, kind: priced.append(kind))
    text = config.sample_sales_path().read_text()
    assert "\n2021," in text
    typo = tmp_path / "typo.csv"
    typo.write_text(text.replace("\n2021,", "\n20210,"))
    out = tmp_path / "fit.csv"
    for command in (["fit", "--vanilla"], ["fit"], ["compare"]):
        assert run([*command, "--data", str(typo), "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {typo}: observations span 2010 to 20210, more than the "
            f"{fitting.MAX_WINDOW_YEARS} years a fit may simulate\n")
        assert evaluated == [] and priced == [] and not out.exists()


def test_tco_prices_each_vehicle_once(tmp_path, monkeypatch):
    from greenpremium import costmodel as cm
    calls = []
    original = cm.tco_npv
    monkeypatch.setattr(cm, "tco_npv", lambda sc, kind: calls.append(kind) or original(sc, kind))
    run_to_file(tmp_path, "tco.csv", ["tco", "--year", "2021"])
    assert sorted(calls) == [cm.VehicleKind.EV, cm.VehicleKind.ICEV]


def test_load_params_csv_rejects_wrong_file(tmp_path):
    p = tmp_path / "not_params.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(CliError):
        load_params_csv(str(p))


@pytest.mark.parametrize("header, row, message", [
    ("p,q,beta,m", "0.001,0.3", "3: column beta: no value"),
    ("p,q,beta,m", "0.001,abc,0.5,100", "3: column q: expected a number, got 'abc'"),
    ("p,q,m", "0.001,0.3,100", "2: not a fitted-parameters file: no column beta"),
    ("p,q,beta,m", "0,0.3,0.5,100", "3: p must be > 0"),
    ("p,q,beta,m", "0.001,-0.3,0.5,100", "3: q must be >= 0"),
], ids=["short-row", "word", "no-beta", "out-of-range", "q-negative"])
def test_bad_params_file_names_the_line_and_the_column(tmp_path, capsys, header, row, message):
    params = tmp_path / "params.csv"
    params.write_text(f"# fit output\n{header}\n{row}\n")
    assert run(["forecast", "--params", str(params)]) == 1
    assert capsys.readouterr().err == f"error: {params}:{message}\n"


def test_config_dir_env_var(tmp_path, monkeypatch):
    custom = config.scenario_path("long-range").read_text().replace(
        "name: long-range", "name: custom-lr")
    (tmp_path / "my_case.yaml").write_text(custom)
    monkeypatch.setenv(config.CONFIG_DIR_ENV, str(tmp_path))
    sched = config.load_schedule("my-case")
    assert sched.name == "custom-lr"
    out = tmp_path / "series.csv"
    assert run(["premium-series", "--scenario", "my-case",
                "--out", str(out)]) == 0


_BUILTIN = config.DATA_DIR / "long_range.yaml"


@pytest.mark.parametrize("ref, files, chosen", [
    ("long-range", ["long-range", "conf/long-range.yaml"], "long-range"),
    ("long-range", ["conf/long-range.yaml", "conf/long_range.yaml"], "conf/long-range.yaml"),
    ("long-range", ["conf/long_range.yaml"], "conf/long_range.yaml"),
    ("long-range", ["conf/other.yaml"], None),
    ("long_range", [], None),
    ("no-such", ["conf/other.yaml"], "unknown"),
], ids=["path-wins-without-suffix", "config-dir-name", "config-dir-underscored",
        "built-in", "built-in-underscored", "unknown"])
def test_scenario_lookup_order(tmp_path, capsys, monkeypatch, ref, files, chosen):
    """An existing path, then $GREENPREMIUM_CONFIG_DIR/<ref>.yaml, then the
    same with - as _, then the built-in; the manifest hash is of the file
    read, and a file from the config directory is named by its path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf").mkdir()
    monkeypatch.setenv(config.CONFIG_DIR_ENV, str(tmp_path / "conf"))
    for name in files:
        (tmp_path / name).write_text(_BUILTIN.read_text().replace(
            "name: long-range", f"name: long-range  # {name}"))
    code = run(["tco", "--scenario", ref, "--out", "tco.csv"])
    if chosen == "unknown":
        assert code == 1
        assert f"error: unknown scenario {ref!r}" in capsys.readouterr().err
        return
    read = _BUILTIN if chosen is None else tmp_path / chosen
    digest = hashlib.sha256(read.read_bytes()).hexdigest()[:12]
    assert code == 0
    named = ref if chosen in (None, ref) else read
    assert f"# scenario: {named} sha256:{digest}" in (tmp_path / "tco.csv").read_text()


_FIT_OPTIONS = ["--data", str(config.sample_sales_path()), "--seed", "0",
                "--population", "20", "--generations", "3"]


@pytest.mark.parametrize("command", [
    ["tco"], ["premium-series"], ["parity"], ["sensitivity"],
    ["forecast", "--params", "params.csv"], ["fit", *_FIT_OPTIONS], ["compare", *_FIT_OPTIONS],
    ["fit", "--vanilla", *_FIT_OPTIONS],
], ids=["tco", "premium-series", "parity", "sensitivity", "forecast", "fit", "compare",
        "fit-vanilla"])
def test_scenario_is_looked_up_and_read_once(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("params.csv").write_text("p,q,beta,m\n0.001,0.3,0,80000\n")
    scenario = tmp_path / "s.yaml"
    scenario.write_bytes(_BUILTIN.read_bytes())
    lookups, reads = [], []
    lookup, open_ = config.scenario_path, Path.open
    monkeypatch.setattr(config, "scenario_path", lambda ref: lookups.append(ref) or lookup(ref))

    def counted_open(self, *args, **kwargs):
        if self == scenario:
            reads.append(self)
        return open_(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_open)
    run_to_file(tmp_path, "out.csv", [*command, "--scenario", str(scenario)])
    once = 0 if "--vanilla" in command else 1    # a vanilla fit reads no scenario
    assert (len(lookups), len(reads)) == (once, once)


@pytest.mark.parametrize("where", ["path", "config-dir"])
def test_scenario_below_an_unsearchable_directory_exits_1_naming_it(
        tmp_path, capsys, monkeypatch, where):
    """What a directory without +x does to a process that is not root: every
    stat or open below it fails with EACCES."""
    monkeypatch.chdir(tmp_path)
    Path("locked/conf").mkdir(parents=True)

    def locked(real):
        def call(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and "locked" in Path(path).parts:
                raise PermissionError(13, "Permission denied", str(path))
            return real(path, *args, **kwargs)
        return call

    for owner, name in ((os, "stat"), (Path, "stat"), (Path, "open")):
        monkeypatch.setattr(owner, name, locked(getattr(owner, name)))
    if where == "path":
        ref = "locked/x.yaml"
        message = f"{ref}: cannot read scenario file: Permission denied"
    else:
        monkeypatch.setenv(config.CONFIG_DIR_ENV, "locked/conf")
        ref, message = "my-case", "unknown scenario 'my-case'"
    assert run(["tco", "--scenario", ref, "--out", "tco.csv"]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "runtime error" not in err
    assert not Path("tco.csv").exists()


def test_manifest_hashes_the_bytes_the_command_parsed(tmp_path, monkeypatch):
    """A byte-order mark and CRLF lines are hashed as they are on disk, and a
    file replaced after it was read does not change the hash."""
    scenario = tmp_path / "crlf.yaml"
    original = b"\xef\xbb\xbf" + _BUILTIN.read_bytes().replace(b"\n", b"\r\n")
    scenario.write_bytes(original)
    digest = hashlib.sha256(original).hexdigest()[:12]
    assert config.schedule_digest(str(scenario)) == digest
    assert config.load_schedule(str(scenario)).digest == digest
    reader = config.read_input

    def read_then_replace(path, what):
        read = reader(path, what)
        scenario.write_bytes(b"# replaced\n" + original)
        return read

    monkeypatch.setattr(config, "read_input", read_then_replace)
    out = run_to_file(tmp_path, "tco.csv", ["tco", "--scenario", str(scenario)])
    plain = run_to_file(tmp_path, "plain.csv", ["tco"])
    lines = out.read_text().splitlines()
    assert f"# scenario: {scenario} sha256:{digest}" in lines
    assert lines[3:] == plain.read_text().splitlines()[3:]


# --- exit codes ----------------------------------------------------------------

def test_exit_codes(tmp_path):
    assert run(["parity", "--scenario", "no-such-scenario"]) == 1
    assert run(["fit", "--data", str(tmp_path / "missing.csv")]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["fit", "--data", "x", "--bogus-flag"]) == 1
    assert run(["--version"]) == 0


def permission_denied(self, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(self))


@pytest.mark.parametrize("command", [
    ["fit", "--data", str(config.sample_sales_path()), "--seed", "0"],
    ["premium-series"],
], ids=["fit", "premium-series"])
@pytest.mark.parametrize("where", ["missing-directory", "directory", "unsearchable"])
def test_unwritable_out_exits_1_naming_the_path_before_any_work(
        tmp_path, capsys, monkeypatch, command, where):
    fits = []
    monkeypatch.setattr(fitting, "ga_fit", lambda *args: fits.append(args))
    out = tmp_path / "no-such-dir" / "out.csv" if where == "missing-directory" else tmp_path
    if where == "unsearchable":
        # what Path.is_dir does on Python 3.10-3.12 below a directory without +x
        monkeypatch.setattr(Path, "is_dir", permission_denied)
        out = tmp_path / "locked" / "out.csv"
    assert run([*command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: --out {out}: " in err and "runtime error" not in err
    assert fits == []     # the fit command stops before its GA


@pytest.mark.parametrize("option, command", [
    ("--data", ["fit", "--seed", "0"]),
    ("--params", ["forecast"]),
    ("--scenario", ["tco"]),
], ids=["data", "params", "scenario"])
@pytest.mark.parametrize("fault", ["directory", "permission-denied"])
def test_unreadable_input_exits_1_naming_the_path(
        tmp_path, capsys, monkeypatch, option, command, fault):
    path = tmp_path / "input.yaml"     # a YAML name, which --scenario takes as a path
    if fault == "directory":
        path.mkdir()
    else:
        path.write_text("")
        monkeypatch.setattr(Path, "read_bytes", permission_denied)
    out = tmp_path / "out.csv"
    assert run([*command, option, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: cannot read " in err and "runtime error" not in err
    assert not out.exists()


def test_out_write_failure_exits_1_naming_the_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Path, "write_text", permission_denied)
    out = tmp_path / "series.csv"
    assert run(["premium-series", "--out", str(out)]) == 1
    assert f"error: cannot write --out {out}: Permission denied" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("options, field", [
    (["--late-weight", "nan"], "late_weight"),
    (["--late-weight", "-1"], "late_weight"),
    (["--m-value", "0"], "m_value"),
    (["--generations", "-1"], "max_generations"),
    (["--seed", "-1"], "rng_seed"),
    (["--population", "1000000000000", "--generations", "0"], "population_size"),
], ids=["late-weight-nan", "late-weight-negative", "m-value-zero", "generations-negative",
        "seed-negative", "population-too-large"])
def test_fit_rejects_invalid_settings_before_fitting(tmp_path, capsys, options, field):
    out = tmp_path / "fit.csv"
    code = run(["fit", "--data", str(config.sample_sales_path()), "--seed", "0",
                *options, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert field in err
    assert str(config.sample_sales_path()) not in err     # a setting, not the sales, is at fault
    assert not out.exists()


@pytest.mark.parametrize("option, field", [("--m-value", "m_value"),
                                           ("--late-weight", "late_weight")])
def test_fit_setting_that_overflows_the_squared_error_exits_1_naming_it(
        tmp_path, capsys, option, field):
    out = tmp_path / "fit.csv"
    code = run(["fit", "--data", str(config.sample_sales_path()), "--seed", "0",
                "--population", "10", "--generations", "2", option, "1e308",
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "overflows" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("sales, message", [
    ("5,5,5,5", "observations are all equal"),
    ("0,0,0,1e-320", "observations vary too little"),
], ids=["all-equal", "underflow"])
def test_fit_with_undefined_r_squared_exits_1_before_fitting(tmp_path, capsys, monkeypatch,
                                                             command, sales, message):
    from greenpremium import fitting

    def evaluate(self, genomes):
        raise AssertionError("a genome was evaluated")
    monkeypatch.setattr(fitting._FitProblem, "evaluate", evaluate)
    data = tmp_path / "sales.csv"
    data.write_text("year,annual_sales\n" + "".join(
        f"{2015 + i},{s}\n" for i, s in enumerate(sales.split(","))))
    out = tmp_path / "out.csv"
    code = run([command, "--data", str(data), "--seed", "0", "--population", "20000",
                "--generations", "200", "--no-early-stop", "--out", str(out)])
    assert code == 1
    assert f"error: {data}: R^2 undefined: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("sales, message", [
    ("5,6,7", "need at least 4 observations"),
    ("0,0,0,0", "degenerate fit: all observations are zero"),
], ids=["three-rows", "all-zero"])
def test_fit_error_about_the_sales_names_the_sales_file(tmp_path, capsys, command, sales,
                                                        message):
    data = tmp_path / "sales.csv"
    data.write_text("year,annual_sales\n" + "".join(
        f"{2015 + i},{s}\n" for i, s in enumerate(sales.split(","))))
    out = tmp_path / "out.csv"
    assert run([command, "--data", str(data), "--seed", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_m_value_with_free_m_mode_is_rejected(tmp_path, capsys, command):
    # --m-value is the one way to pin m; --m-mode is no longer an option.
    out = tmp_path / "out.csv"
    for mode in (["--m-mode", "free", "--m-value", "30000"], ["--m-mode", "fixed"]):
        code = run([command, "--data", str(config.sample_sales_path()), "--seed", "0",
                    *mode, "--out", str(out)])
        assert code == 1
        assert f"unrecognized arguments: --m-mode {mode[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options, m, mode", [
    ([], None, "free"),
    (["--m-value", "30000"], "30000", "fixed"),
], ids=["default", "value"])
def test_fit_m_flags_pin_m_and_name_the_mode(tmp_path, options, m, mode):
    out = run_to_file(tmp_path, "fit.csv",
                      ["fit", "--data", str(config.sample_sales_path()), "--seed", "0",
                       "--population", "40", "--generations", "5", *options])
    assert f"# m_mode: {mode}" in out.read_text().splitlines()
    if m is not None:
        assert parse_csv(out)[0]["m"] == m


def test_compare_command(tmp_path):
    sales = str(config.sample_sales_path())
    out = run_to_file(tmp_path, "cmp.csv",
                      ["compare", "--data", sales, "--seed", "0",
                       "--population", "120", "--generations", "60"])
    rows = parse_csv(out)
    assert [r["model"] for r in rows] == ["vanilla", "generalized"]
    assert float(rows[0]["beta"]) == 0.0
    assert "# adoption_from: 2010" in out.read_text().splitlines()


@pytest.mark.parametrize("p, q, m", [("0.001", "nan", "80000"),
                                     ("inf", "0.5", "80000"),
                                     ("0.001", "0.5", "inf")])
def test_forecast_rejects_non_finite_params(tmp_path, capsys, p, q, m):
    params = tmp_path / "params.csv"
    params.write_text(f"p,q,beta,m\n{p},{q},0,{m}\n")
    out = tmp_path / "forecast.csv"
    assert run(["forecast", "--params", str(params), "--out", str(out)]) == 1
    assert str(params) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", ["1e308", "-1e308"])
def test_forecast_rejects_a_beta_whose_decision_coefficient_overflows(tmp_path, capsys, beta):
    params = tmp_path / "params.csv"
    params.write_text(f"p,q,beta,m\n0.001,0.5,{beta},80000\n")
    out = tmp_path / "forecast.csv"
    assert run(["forecast", "--params", str(params), "--out", str(out)]) == 1
    assert (f"{params}: decision coefficient 1 + premium * beta is not finite in 2010"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_forecast_checks_the_decision_coefficient_of_rows_before_adoption_starts(
        tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("# adoption_from: 2011\np,q,beta,m\n0.001,0.5,-1e308,80000\n")
    out = tmp_path / "forecast.csv"
    assert run(["forecast", "--params", str(params), "--out", str(out)]) == 1
    assert (f"{params}: decision coefficient 1 + premium * beta is not finite in 2010"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_forecast_rejects_params_whose_flow_is_nan(tmp_path, capsys):
    # p*(m - N) overflows in 2010, where this beta makes x exactly 0
    series = tj.premium_series(config.load_schedule("long-range"), range(2010, 2011))
    beta = -1 / series.points[0].lifecycle
    params = tmp_path / "params.csv"
    params.write_text(f"p,q,beta,m\n2.0,0.0,{beta!r},1e308\n")
    assert run(["forecast", "--params", str(params)]) == 1
    out, err = capsys.readouterr()
    assert f"error: {params}: adoption flow is NaN in 2010" in err
    assert "nan" not in out.lower()


def test_compare_reports_parameter_on_bound(tmp_path, capsys):
    sales = str(config.sample_sales_path())
    out = run_to_file(tmp_path, "cmp.csv", ["compare", "--data", sales, "--seed", "0"])
    err = capsys.readouterr().err
    assert "warning: generalized fit: m = 150000 is at its upper bound" in err
    assert "above the vanilla fit" not in err
    generalized = parse_csv(out)[1]
    assert generalized["model"] == "generalized" and float(generalized["m"]) == 150000
    assert "warning" not in out.read_text()


def test_compare_warns_when_the_generalized_fit_is_worse_than_the_vanilla_fit(
        tmp_path, capsys):
    sales = str(config.sample_sales_path())
    out = run_to_file(tmp_path, "cmp.csv", ["compare", "--data", sales, "--seed", "0",
                                            "--population", "50", "--generations", "5"])
    vanilla, generalized = (row["objective"] for row in parse_csv(out))
    assert float(generalized) > float(vanilla)
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "above the vanilla fit" in line]
    assert warnings == [f"warning: generalized fit: objective = {generalized} is above "
                        f"the vanilla fit's {vanilla}, which it nests"]
    assert "warning" not in out.read_text()


def test_scenario_commands_do_not_import_numpy(tmp_path):
    script = (
        "import sys\n"
        "import greenpremium.cli as cli\n"
        "for cmd in ('tco', 'premium-series', 'parity', 'sensitivity'):\n"
        "    assert cli.run([cmd, '--out', cmd + '.csv']) == 0, cmd\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "from greenpremium.fitting import ga_fit\n"
        "assert 'numpy' in sys.modules and callable(ga_fit)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- fuzzing the sales and params files through the CLI -----------------------

_junk = st.one_of(st.text(max_size=6), st.sampled_from(["", "nan", "-inf", "1e999", "0x10",
                                                        "1,2", "  3 ", "true"]))
_real = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                  st.sampled_from([0, -1, 5e-324, 1e-300, 1e15, 1e154, 1e200, 1e308, 10**400]))


def _cell(chaos: int, scale: float = 1.0):
    """A sane number times `scale` with odds 40 - chaos in 40; otherwise any
    number, or junk one time in four."""
    return st.integers(0, 39).flatmap(
        lambda roll: st.floats(0.0, 1e4).map(lambda v: v * scale) if roll >= chaos else (
            _real.map(str) if roll % 4 else _junk))


@st.composite
def _sales_texts(draw):
    chaos = draw(st.sampled_from([0, 1, 4, 20]))
    # Sales in the wrong unit: scales whose squares overflow a double.
    scale = draw(st.sampled_from([1.0, 1.0, 1e6, 1e150, 1e200, 1e300]))
    start = draw(st.integers(2000, 2030))
    years = list(range(start, start + draw(st.integers(0, 16))))
    if draw(st.integers(0, 39)) < chaos:
        years = draw(st.lists(st.integers(1990, 2040), max_size=14))
    lines = ["year,annual_sales" if draw(st.integers(0, 39)) >= chaos
             else draw(st.sampled_from(["year, annual_sales", "year;annual_sales", "x,y", ""]))]
    for year in years:
        value = draw(_cell(chaos, scale))
        lines.append(f"{year},{value}")
        if draw(st.integers(0, 39)) < chaos:
            lines.append(draw(st.sampled_from(["# note", "", f"{year}", f"{year},1,2"])))
    return "\n".join(lines) + "\n"


def _written_values_are_finite(path, skip=()):
    rows = parse_csv(path)
    assert rows
    assert all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k not in skip)


@given(text=_sales_texts() | st.text(max_size=200), vanilla=st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_fuzzed_sales_file_fits_cleanly_with_finite_output(text, vanilla, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    sales = workdir / "sales.csv"
    sales.write_text(text)
    out = workdir / "fit.csv"
    code = run(["fit", "--data", str(sales), "--seed", "0", "--population", "8",
                "--generations", "3", *(["--vanilla"] if vanilla else []), "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 1)
    if code == 0:
        _written_values_are_finite(out, skip=("converged",))


@st.composite
def _params_texts(draw):
    chaos = draw(st.sampled_from([0, 1, 4, 20]))
    names = ["p", "q", "beta", "m", "objective"]
    if draw(st.integers(0, 39)) < chaos:
        names = draw(st.permutations(names + ["x"]))[:draw(st.integers(0, 6))]
    # A finite beta so large that 1 + beta * premium overflows is still a float.
    sane = {"p": st.floats(1e-4, 0.02), "q": st.floats(0.05, 0.8),
            "beta": st.floats(-8.0, 2.0) | st.sampled_from([-1e308, 1e300, 1e308]),
            "m": st.floats(21_000.0, 150_000.0)}
    rows = [",".join(names)]
    for _ in range(1 if draw(st.integers(0, 39)) >= chaos else draw(st.integers(0, 3))):
        rows.append(",".join(
            str(draw(sane[n])) if n in sane and draw(st.integers(0, 39)) >= chaos
            else draw(_real.map(str) | _junk) for n in names))
    # The fit's first sales year: in the span, or out of it, or junk.
    manifest = ["# greenpremium fit"] + draw(st.lists(st.builds(
        "# adoption_from: {}".format, st.integers(2010, 2030) if draw(st.integers(0, 39)) >= chaos
        else _real.map(str) | _junk), max_size=1 if chaos < 4 else 2))
    return "\n".join(manifest + rows) + "\n"


@given(text=_params_texts() | st.text(max_size=200))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_fuzzed_params_file_forecasts_cleanly_with_finite_output(text, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    params = workdir / "params.csv"
    params.write_text(text)
    out = workdir / "forecast.csv"
    code = run(["forecast", "--params", str(params), "--out", str(out)])
    event(f"exit {code}")
    assert code in (0, 1)
    if code == 0:
        _written_values_are_finite(out)
