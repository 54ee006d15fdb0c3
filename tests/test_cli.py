import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greenpremium import config
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


def test_sensitivity_command(tmp_path):
    out = run_to_file(tmp_path, "sens.csv", ["sensitivity", "--year", "2021"])
    rows = parse_csv(out)
    assert {r["factor"] for r in rows} >= {"battery_800", "tax_rate", "oil_price"}


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
    # A fit's bytes depend on numpy's random stream, so fit manifests name it.
    sales = str(config.sample_sales_path())
    for command in ("fit", "compare"):
        out = run_to_file(tmp_path, f"{command}.csv",
                          [command, "--data", sales, "--seed", "0",
                           "--population", "20", "--generations", "3"])
        assert f"# numpy: {np.__version__}" in out.read_text().splitlines()


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


# --- exit codes ----------------------------------------------------------------

def test_exit_codes(tmp_path):
    assert run(["parity", "--scenario", "no-such-scenario"]) == 1
    assert run(["fit", "--data", str(tmp_path / "missing.csv")]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["fit", "--data", "x", "--bogus-flag"]) == 1
    assert run(["--version"]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("options, field", [
    (["--late-weight", "nan"], "late_weight"),
    (["--late-weight", "-1"], "late_weight"),
    (["--m-mode", "fixed", "--m-value", "0"], "m_value"),
    (["--generations", "-1"], "max_generations"),
], ids=["late-weight-nan", "late-weight-negative", "m-value-zero", "generations-negative"])
def test_fit_rejects_invalid_settings_before_fitting(tmp_path, capsys, options, field):
    out = tmp_path / "fit.csv"
    code = run(["fit", "--data", str(config.sample_sales_path()), "--seed", "0",
                *options, "--out", str(out)])
    assert code == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_compare_command(tmp_path):
    sales = str(config.sample_sales_path())
    out = run_to_file(tmp_path, "cmp.csv",
                      ["compare", "--data", sales, "--seed", "0",
                       "--population", "120", "--generations", "60"])
    rows = parse_csv(out)
    assert [r["model"] for r in rows] == ["vanilla", "generalized"]
    assert float(rows[0]["beta"]) == 0.0


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


def test_compare_reports_parameter_on_bound(tmp_path, capsys):
    sales = str(config.sample_sales_path())
    out = run_to_file(tmp_path, "cmp.csv", ["compare", "--data", sales, "--seed", "0"])
    err = capsys.readouterr().err
    assert "warning: generalized fit: m = 150000 is at its upper bound" in err
    generalized = parse_csv(out)[1]
    assert generalized["model"] == "generalized" and float(generalized["m"]) == 150000
    assert "warning" not in out.read_text()


def test_scenario_commands_do_not_import_numpy(tmp_path):
    script = (
        "import sys\n"
        "import greenpremium.cli as cli\n"
        "for cmd in ('tco', 'premium-series', 'parity', 'sensitivity'):\n"
        "    assert cli.run([cmd, '--out', cmd + '.csv']) == 0, cmd\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "import greenpremium\n"
        "from greenpremium import BassParams, ga_fit\n"
        "assert greenpremium.BassParams is BassParams and callable(ga_fit)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
