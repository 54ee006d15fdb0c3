import math

import pytest

from greenpremium import trajectory as tj
from greenpremium.diffusion import BassParams, decision_coefficient, simulate
from greenpremium.fitting import (DEFAULT_BOUNDS, FitConfig, FitError,
                                  ObservationSeries, compare_models, ga_fit,
                                  objective, predictions, r_squared)


def flat_series(years, lifecycle):
    return tj.PremiumSeries(points=tuple(
        tj.PremiumPoint(y, 0.0, 0.0, lifecycle, 1.0, 1.0) for y in years))


def synthetic_obs(params, series, start, horizon):
    states = simulate(params, series, start, horizon)
    return ObservationSeries(tuple((s.year, s.new_adopters) for s in states))


@pytest.fixture(scope="module")
def smooth_window(long_range):
    """Premium slice over which the decision coefficient stays positive."""
    return tj.premium_series(long_range, range(2015, 2027))


# --- ObservationSeries ------------------------------------------------------

def test_observations_sorted_and_validated():
    obs = ObservationSeries(((2012, 3.0), (2010, 1.0), (2011, 2.0)))
    assert obs.years == (2010, 2011, 2012)
    with pytest.raises(ValueError, match="duplicate"):
        ObservationSeries(((2010, 1.0), (2010, 2.0)))
    with pytest.raises(ValueError, match="non-negative"):
        ObservationSeries(((2010, -1.0),))


# --- objective ---------------------------------------------------------------

def independent_objective(params, obs, series, cfg):
    """Single-pass recomputation of the loss, written without the library's
    evaluation machinery."""
    years = obs.years
    sales = dict(obs.points)
    total = 0.0
    penalty = 0.0
    cumulative = 0.0
    for year in range(years[0], years[-1] + 1):
        x = 1.0
        if series is not None:
            x = decision_coefficient(series.lifecycle(year), params.beta)
        remaining = params.m - cumulative
        raw = (params.p * remaining
               + params.q * (cumulative / params.m) * remaining) * x
        flow = min(max(raw, 0.0), remaining)
        penalty += max(-raw, 0.0) ** 2
        if year in sales:
            weight = cfg.late_weight if year >= cfg.late_weight_from_year else 1.0
            total += weight * (flow - sales[year]) ** 2
        cumulative += flow
    return total + cfg.penalty_weight * penalty


def test_objective_zero_for_perfect_predictions(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(m_mode="fixed", m_value=21000)
    assert objective(truth, obs, smooth_window, cfg) == pytest.approx(0.0, abs=1e-15)


def test_objective_matches_independent_recomputation(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=30000, beta=-1.3)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(m_mode="fixed", m_value=30000)
    expected = independent_objective(params, obs, smooth_window, cfg)
    assert objective(params, obs, smooth_window, cfg) == pytest.approx(expected, rel=1e-12)


def test_objective_late_weight_scales_only_late_residuals(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=21000, beta=-1.0)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    base_cfg = FitConfig(m_mode="fixed", m_value=21000, late_weight=4.0,
                         penalty_weight=0.0)
    double_cfg = FitConfig(m_mode="fixed", m_value=21000, late_weight=8.0,
                           penalty_weight=0.0)
    pre_2018 = ObservationSeries(tuple(pt for pt in obs.points if pt[0] < 2018))
    early_part = objective(params, pre_2018, smooth_window, base_cfg)
    total_base = objective(params, obs, smooth_window, base_cfg)
    total_double = objective(params, obs, smooth_window, double_cfg)
    late_base = total_base - early_part
    late_double = total_double - early_part
    assert late_double == pytest.approx(2.0 * late_base, rel=1e-9)
    assert total_double - total_base == pytest.approx(late_base, rel=1e-9)


def test_objective_invariant_under_observation_order(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=21000, beta=-1.0)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    shuffled = ObservationSeries(tuple(reversed(obs.points)))
    cfg = FitConfig(m_mode="fixed", m_value=21000)
    assert objective(params, obs, smooth_window, cfg) == objective(
        params, shuffled, smooth_window, cfg)


def test_objective_requires_premiums_when_beta_nonzero():
    params = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError):
        objective(params, obs, None, FitConfig())


def test_objective_penalises_negative_raw_flows():
    # strongly negative decision coefficient drives the raw flow negative
    params = BassParams(p=0.01, q=0.4, m=1000, beta=-2.0)
    years = range(2015, 2021)
    series = flat_series(years, 2.0)  # x = -3
    obs = ObservationSeries(tuple((y, 10.0) for y in years))
    with_pen = FitConfig(m_mode="fixed", m_value=1000, penalty_weight=1e4)
    no_pen = FitConfig(m_mode="fixed", m_value=1000, penalty_weight=0.0)
    assert objective(params, obs, series, with_pen) > objective(
        params, obs, series, no_pen)


# --- r_squared ----------------------------------------------------------------

def test_r_squared_perfect_and_mean():
    observed = [1.0, 2.0, 3.0, 4.0]
    assert r_squared(observed, observed) == 1.0
    assert r_squared([2.5] * 4, observed) == pytest.approx(0.0)


def test_r_squared_validation():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [3.0, 3.0])


# --- ga_fit -------------------------------------------------------------------

def test_ga_fit_is_deterministic(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=11, population_size=60, max_generations=40,
                    m_mode="fixed", m_value=21000)
    assert ga_fit(obs, smooth_window, cfg) == ga_fit(obs, smooth_window, cfg)


def test_ga_fit_best_objective_never_worsens(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=3, population_size=80, max_generations=60,
                    m_mode="fixed", m_value=21000)
    result = ga_fit(obs, smooth_window, cfg)
    assert all(later <= earlier + 1e-15 for earlier, later
               in zip(result.history, result.history[1:]))


def test_ga_fit_respects_bounds(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    for seed in (0, 5):
        cfg = FitConfig(rng_seed=seed, population_size=50, max_generations=30)
        result = ga_fit(obs, smooth_window, cfg)
        for name, value in (("p", result.params.p), ("q", result.params.q),
                            ("beta", result.params.beta), ("m", result.params.m)):
            lo, hi = cfg.bounds[name]
            assert lo <= value <= hi


def test_ga_fit_preconditions(smooth_window):
    with pytest.raises(FitError, match="at least 4"):
        ga_fit(ObservationSeries(((2019, 1.0), (2020, 2.0), (2021, 3.0))),
               None, FitConfig())
    zeros = ObservationSeries(tuple((2015 + i, 0.0) for i in range(6)))
    with pytest.raises(FitError, match="zero"):
        ga_fit(zeros, None, FitConfig())
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError, match="bounds"):
        ga_fit(obs, None, FitConfig(bounds={"p": (1e-4, 0.02)}))
    with pytest.raises(FitError):
        FitConfig(bounds={"p": (0.02, 1e-4), "q": (0.05, 0.8),
                          "beta": (-8, 2), "m": (21000, 150000)})


def test_ga_fit_recovers_synthetic_truth(smooth_window):
    """Generate-then-recover at reduced budget; the acceptance suite runs
    the full-size configuration."""
    truth = BassParams(p=0.002, q=0.40, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    for seed in (0, 3):
        cfg = FitConfig(rng_seed=seed, population_size=300, max_generations=300,
                        m_mode="fixed", m_value=21000)
        result = ga_fit(obs, smooth_window, cfg)
        assert result.params.p == pytest.approx(truth.p, rel=0.20)
        assert result.params.q == pytest.approx(truth.q, rel=0.20)
        assert result.params.beta == pytest.approx(truth.beta, rel=0.30)
        assert result.r_squared >= 0.99


def test_ga_fit_beta_zero_data_yields_negligible_premium_effect(smooth_window):
    """Data generated without any premium response: the fitted beta must
    not change yearly predictions materially versus the plain fit."""
    truth = BassParams(p=0.002, q=0.40, m=21000, beta=0.0)
    obs = synthetic_obs(truth, None, 2015, 12)
    cfg = FitConfig(rng_seed=1, population_size=300, max_generations=300,
                    m_mode="fixed", m_value=21000)
    vanilla, generalized = compare_models(obs, smooth_window, cfg)
    pred_v = predictions(vanilla.params, obs, None)
    pred_g = predictions(generalized.params, obs, smooth_window)
    for a, b, seen in zip(pred_g, pred_v, obs.sales):
        if seen > 1.0:
            assert abs(a - b) / seen < 0.02
    assert abs(generalized.r_squared - vanilla.r_squared) < 0.02


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("generalized", [False, True])
def test_ga_fit_objective_equals_objective_of_its_params(
        long_range, china_sales, seed, generalized):
    """The GA's reported loss is exactly the loss of the parameters it
    returns, so the elite's fitness carried across generations is exact."""
    premiums = (tj.premium_series(long_range, range(2010, 2022))
                if generalized else None)
    cfg = FitConfig(rng_seed=seed)
    result = ga_fit(china_sales, premiums, cfg)
    assert result.objective == objective(result.params, china_sales, premiums, cfg)


# --- compare_models -----------------------------------------------------------

def test_compare_models_premium_coupled_data(smooth_window):
    truth = BassParams(p=0.002, q=0.40, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=2, population_size=300, max_generations=300,
                    m_mode="fixed", m_value=21000)
    vanilla, generalized = compare_models(obs, smooth_window, cfg)
    assert generalized.r_squared > vanilla.r_squared
    assert vanilla.params.beta == 0.0


def test_compare_models_requires_premiums():
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError):
        compare_models(obs, None, FitConfig())
    with pytest.raises(FitError):
        compare_models(obs, tj.PremiumSeries(points=()), FitConfig())
