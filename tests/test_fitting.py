import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from conftest import flat_series

from greenpremium import fitting
from greenpremium import trajectory as tj
from greenpremium.diffusion import BassParams, decision_coefficient, simulate
from greenpremium.fitting import (CROSSOVER_PROB, DEFAULT_BOUNDS, LATE_WEIGHT_FROM_YEAR,
                                  MAX_POPULATION, MAX_WINDOW_YEARS, MUTATION_PROB, PENALTY_WEIGHT,
                                  STAGNATION_PATIENCE, STAGNATION_TOL, FitConfig, FitError,
                                  ObservationError, ObservationSeries, compare_models, ga_fit,
                                  objective, predictions, r_squared)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_observations_reject_non_finite_sales(bad):
    with pytest.raises(ObservationError, match="observation 0: non-finite sales") as exc:
        ObservationSeries(((2010, bad), (2011, 1.0)))
    assert (exc.value.reason, exc.value.index, exc.value.first) == ("non-finite sales", 0, None)


def test_observation_error_locates_the_first_bad_point_as_given():
    with pytest.raises(ObservationError) as exc:
        ObservationSeries(((2012, 1.0), (2010, 1.0), (2012, 2.0), (2013, -1.0)))
    assert (exc.value.reason, exc.value.index, exc.value.first) == ("duplicate year 2012", 2, 0)


# --- objective ---------------------------------------------------------------

def independent_terms(params, obs, series, cfg):
    """Single-pass recomputation of the loss's two sums, the weighted squared
    residuals and the squared negative raw flows, written without the
    library's evaluation machinery."""
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
            weight = cfg.late_weight if year >= LATE_WEIGHT_FROM_YEAR else 1.0
            total += weight * (flow - sales[year]) ** 2
        cumulative += flow
    return total, penalty


def independent_objective(params, obs, series, cfg):
    total, penalty = independent_terms(params, obs, series, cfg)
    return total + PENALTY_WEIGHT * penalty


def test_objective_zero_for_perfect_predictions(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(m_value=21000)
    assert objective(truth, obs, smooth_window, cfg) == pytest.approx(0.0, abs=1e-15)


def test_objective_matches_independent_recomputation(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=30000, beta=-1.3)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(m_value=30000)
    expected = independent_objective(params, obs, smooth_window, cfg)
    assert objective(params, obs, smooth_window, cfg) == pytest.approx(expected, rel=1e-12)


def test_objective_late_weight_scales_only_late_residuals(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=21000, beta=-1.0)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    base_cfg = FitConfig(m_value=21000, late_weight=4.0)
    double_cfg = FitConfig(m_value=21000, late_weight=8.0)
    pre_2018 = ObservationSeries(tuple(pt for pt in obs.points if pt[0] < 2018))
    early_part = objective(params, pre_2018, smooth_window, base_cfg)
    total_base = objective(params, obs, smooth_window, base_cfg)
    total_double = objective(params, obs, smooth_window, double_cfg)
    late_base = total_base - early_part
    late_double = total_double - early_part
    assert late_double == pytest.approx(2.0 * late_base, rel=1e-9)
    assert total_double - total_base == pytest.approx(late_base, rel=1e-9)
    for cfg, total in ((base_cfg, total_base), (double_cfg, total_double)):
        assert total == pytest.approx(
            independent_objective(params, obs, smooth_window, cfg), rel=1e-12)


def test_objective_invariant_under_observation_order(smooth_window):
    params = BassParams(p=0.004, q=0.31, m=21000, beta=-1.0)
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    shuffled = ObservationSeries(tuple(reversed(obs.points)))
    cfg = FitConfig(m_value=21000)
    assert objective(params, obs, smooth_window, cfg) == objective(
        params, shuffled, smooth_window, cfg)


def test_objective_requires_premiums_when_beta_nonzero():
    params = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError):
        objective(params, obs, None, FitConfig())


def test_objective_rejects_a_premium_series_one_year_short(long_range, china_sales):
    short = tj.premium_series(long_range, range(2010, 2021))
    params = BassParams(p=0.002, q=0.4, m=21000, beta=-1.0)
    with pytest.raises(FitError, match=r"^premium series missing years \[2021\]$"):
        objective(params, china_sales, short, FitConfig())


@pytest.mark.filterwarnings("error")
def test_objective_raises_where_a_flow_is_nan(long_range, china_sales):
    """p*(m - N) overflows in 2010, where this beta makes x exactly 0: inf * 0 is NaN."""
    series = tj.premium_series(long_range, range(2010, 2022))
    params = BassParams(p=2.0, q=0.0, m=1e308, beta=-1 / series.lifecycle(2010))
    with pytest.raises(ValueError, match="^objective is NaN: a flow is inf \\* 0"):
        objective(params, china_sales, series, FitConfig())


def test_objective_rejects_a_window_longer_than_the_limit():
    params = BassParams(p=0.002, q=0.4, m=21000)
    widest = ObservationSeries(((2000, 1.0), (2000 + MAX_WINDOW_YEARS - 1, 2.0)))
    assert math.isfinite(objective(params, widest, None, FitConfig()))
    wider = ObservationSeries(((2000, 1.0), (2000 + MAX_WINDOW_YEARS, 2.0)))
    message = (f"observations span 2000 to {2000 + MAX_WINDOW_YEARS}, more than the "
               f"{MAX_WINDOW_YEARS} years a fit may simulate")
    with pytest.raises(FitError, match=f"^{message}$"):
        objective(params, wider, None, FitConfig())


def test_objective_penalises_negative_raw_flows():
    # strongly negative decision coefficient drives the raw flow negative
    params = BassParams(p=0.01, q=0.4, m=1000, beta=-2.0)
    years = range(2015, 2021)
    series = flat_series(years, 2.0)  # x = -3
    obs = ObservationSeries(tuple((y, 10.0) for y in years))
    cfg = FitConfig(m_value=1000)
    residuals, penalty = independent_terms(params, obs, series, cfg)
    assert penalty > 0
    assert objective(params, obs, series, cfg) == pytest.approx(
        residuals + PENALTY_WEIGHT * penalty, rel=1e-12)


@pytest.mark.parametrize("vanilla", [True, False], ids=["vanilla", "generalized"])
def test_objective_is_a_one_row_fit_evaluation_bit_for_bit(vanilla, lr_series, china_sales):
    """objective scores a parameter vector as a fit with m pinned scores the
    genome of its other genes, to the last bit."""
    premiums = None if vanilla else lr_series
    cfg = FitConfig()
    rng = np.random.default_rng(25)
    for _ in range(50):
        genes = {g: rng.uniform(*DEFAULT_BOUNDS[g]) for g in DEFAULT_BOUNDS}
        params = BassParams(**{**genes, **({"beta": 0.0} if vanilla else {})})
        problem = fitting._FitProblem(china_sales, premiums, cfg, {"m": params.m})
        genome = np.array([[getattr(params, g) for g in problem.genes]])
        expected = float(problem.evaluate(genome)[0])
        assert math.isfinite(expected)
        assert objective(params, china_sales, premiums, cfg) == expected


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
    with pytest.raises(ValueError, match="vary too little"):   # sse / sst overflows
        r_squared([1.0, 1.0], [0.0, 1e-155])


# --- ga_fit -------------------------------------------------------------------

def test_ga_fit_is_deterministic(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=11, population_size=60, max_generations=40,
                    m_value=21000)
    assert ga_fit(obs, smooth_window, cfg) == ga_fit(obs, smooth_window, cfg)


def test_ga_fit_best_objective_never_worsens(smooth_window):
    truth = BassParams(p=0.002, q=0.4, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=3, population_size=80, max_generations=60,
                    m_value=21000)
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


@pytest.mark.parametrize("sales, message", [
    ((5.0, 5.0, 5.0, 5.0), "observations are all equal"),
    ((0.0, 0.0, 0.0, 1e-320), "observations vary too little"),    # the squares underflow
    ((0.0, 0.0, 0.0, 1e300), "squared deviations are not finite"),
], ids=["all-equal", "underflow", "overflow"])
def test_ga_fit_checks_r_squared_before_evaluating_a_genome(smooth_window, monkeypatch,
                                                             sales, message):
    def evaluate(self, genomes):
        raise AssertionError("a genome was evaluated")
    monkeypatch.setattr(fitting._FitProblem, "evaluate", evaluate)
    obs = ObservationSeries(tuple((2015 + i, s) for i, s in enumerate(sales)))
    for premiums in (None, smooth_window):
        with pytest.raises(ValueError, match=f"R\\^2 undefined: {message}"):
            ga_fit(obs, premiums, FitConfig(population_size=20_000, max_generations=200,
                                            early_stop=False))
    with pytest.raises(ValueError, match=f"R\\^2 undefined: {message}"):
        r_squared(sales, sales)


@pytest.mark.parametrize("setting, field", [
    ({"late_weight": math.nan}, "late_weight"),
    ({"late_weight": 0.0}, "late_weight"),
    ({"late_weight": math.inf}, "late_weight"),
    ({"late_weight": -1.0}, "late_weight"),
    ({"m_value": 0.0}, "m_value"),
    ({"m_value": math.nan}, "m_value"),
    ({"m_value": math.inf}, "m_value"),
    ({"max_generations": -1}, "max_generations"),
    ({"population_size": 1}, "population_size"),
    ({"population_size": 0}, "population_size"),
    ({"population_size": -1}, "population_size"),
    ({"rng_seed": -1}, "rng_seed"),
    ({"population_size": MAX_POPULATION + 1}, "population_size"),
    ({"population_size": 10**12}, "population_size"),
])
def test_fit_config_rejects_invalid_settings(setting, field):
    with pytest.raises(FitError, match=field):
        FitConfig(**setting)


def test_fit_config_accepts_boundary_settings():
    FitConfig(max_generations=0, population_size=2)
    FitConfig(population_size=MAX_POPULATION)


def test_ga_fit_recovers_synthetic_truth(smooth_window):
    """Generate-then-recover at reduced budget; the acceptance suite runs
    the full-size configuration."""
    truth = BassParams(p=0.002, q=0.40, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    for seed in (0, 3):
        cfg = FitConfig(rng_seed=seed, population_size=300, max_generations=300,
                        m_value=21000)
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
                    m_value=21000)
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


@pytest.mark.parametrize("params", [BassParams(p=0.002, q=0.4, m=21000),
                                    BassParams(p=0.0001, q=0.63, m=150_000),
                                    BassParams(p=0.0153, q=0.05, m=60_000)])
def test_objective_at_beta_zero_equals_the_vanilla_objective(long_range, china_sales, params):
    """The generalized model nests the vanilla one: at beta = 0 the cost-gap
    term drops out, so the two losses agree to the last bit."""
    premiums = tj.premium_series(long_range, range(2010, 2022))
    cfg = FitConfig()
    assert (objective(params, china_sales, premiums, cfg)
            == objective(params, china_sales, None, cfg))


def reference_flows(p, q, m, beta, dp3):
    """The adoption recursion as (years, rows) blocks, one temporary per step."""
    p, q, m, beta = np.broadcast_arrays(*np.atleast_1d(p, q, m, beta))
    flow = np.empty((len(dp3), len(p)))
    raw = np.empty((len(dp3), len(p)))
    cumulative = np.zeros(len(p))
    for r, f, dp3_t in zip(raw, flow, dp3):
        remaining = m - cumulative
        np.multiply(q, cumulative / m, out=r)
        r *= remaining
        r += p * remaining
        r *= decision_coefficient(dp3_t, beta)
        np.minimum(np.maximum(r, 0.0, out=f), remaining, out=f)
        cumulative += f
    return flow, raw


def reference_ga_fit(obs, premiums, cfg):
    """The GA written plainly: four separate draws per generation, an argmin
    over each tournament slot, np.where for blend and mutation, np.clip and
    a stacked new population."""
    years = obs.years
    sim_years = range(years[0], years[-1] + 1)
    dp3 = [0.0 if premiums is None else premiums.lifecycle(y) for y in sim_years]
    m_value = cfg.m_value
    genes = (("p", "q") + (("beta",) if premiums is not None else ())
             + (("m",) if m_value is None else ()))
    terms = [(y - years[0], cfg.late_weight if y >= LATE_WEIGHT_FROM_YEAR
              else 1.0, seen) for y, seen in obs.points]

    def evaluate(genomes):
        cols = dict(zip(genes, genomes.T))
        zeros = np.zeros(len(genomes))
        flow, raw = reference_flows(cols["p"], cols["q"], cols.get("m", m_value),
                                    cols.get("beta", zeros), dp3)
        total = zeros.copy()
        for col, weight, seen in terms:
            total += weight * np.square(flow[col] - seen)
        penalty = zeros.copy()
        for year_raw in raw:
            penalty += np.square(np.maximum(-year_raw, 0.0))
        return total + PENALTY_WEIGHT * penalty

    lo = np.array([DEFAULT_BOUNDS[g][0] for g in genes])
    hi = np.array([DEFAULT_BOUNDS[g][1] for g in genes])
    sigma = 0.1 * (hi - lo)
    rng = np.random.default_rng(cfg.rng_seed)
    pop = lo + rng.random((cfg.population_size, len(genes))) * (hi - lo)
    fitness = evaluate(pop)
    history = []
    best_obj = float(np.min(fitness))
    stale = 0
    generations = 0
    for _ in range(cfg.max_generations):
        generations += 1
        order = int(np.argmin(fitness))
        elite = pop[order].copy()
        n = cfg.population_size - 1
        contenders = rng.integers(0, cfg.population_size, size=(n, 2, 3))
        do_cx = rng.random(n) < CROSSOVER_PROB
        blend_u = rng.random((n, len(genes)))
        mut_mask = rng.random((n, len(genes))) < MUTATION_PROB
        mut_noise = rng.normal(0.0, 1.0, size=(n, len(genes))) * sigma
        parent_idx = contenders[:, :, 0].copy()
        for slot in (0, 1):
            cand = contenders[:, slot, :]
            parent_idx[:, slot] = cand[np.arange(n), np.argmin(fitness[cand], axis=1)]
        pa = pop[parent_idx[:, 0]]
        pb = pop[parent_idx[:, 1]]
        gmin = np.minimum(pa, pb)
        span = np.maximum(pa, pb) - gmin
        children = gmin - 0.5 * span + blend_u * (2.0 * span)
        children = np.where(do_cx[:, None], children, pa)
        children = np.where(mut_mask, children + mut_noise, children)
        children = np.clip(children, lo, hi)
        pop = np.vstack([elite[None, :], children])
        fitness = np.concatenate([fitness[order:order + 1], evaluate(children)])
        gen_best = float(np.min(fitness))
        history.append(gen_best)
        stale = 0 if best_obj - gen_best > STAGNATION_TOL else stale + 1
        best_obj = min(best_obj, gen_best)
        if cfg.early_stop and stale >= STAGNATION_PATIENCE:
            break
    values = dict(zip(genes, (float(v) for v in pop[int(np.argmin(fitness))])))
    at_bounds = tuple((g, "lower" if values[g] == DEFAULT_BOUNDS[g][0] else "upper")
                      for g in genes if values[g] in DEFAULT_BOUNDS[g])
    params = BassParams(p=values["p"], q=values["q"], m=values.get("m", cfg.m_value),
                        beta=values.get("beta", 0.0))
    return params, best_obj, tuple(history), generations, at_bounds


# Enough generations that, with the fixed stagnation patience, some of the
# reference cases below stop early and the others run to the limit.
REFERENCE_GENERATIONS = 100
REFERENCE_MODELS = ["vanilla", "generalized", "fixed-m"]
REFERENCE_POPULATIONS = [2, 3, 60]


def reference_case(long_range, model, population, seed):
    premiums = (None if model == "vanilla"
                else tj.premium_series(long_range, range(2010, 2022)))
    extra = {"m_value": 30000.0} if model == "fixed-m" else {}
    return premiums, FitConfig(rng_seed=seed, population_size=population,
                               max_generations=REFERENCE_GENERATIONS, **extra)


def test_reference_cases_take_both_stop_paths(long_range, china_sales):
    runs = {ga_fit(china_sales, *reference_case(long_range, model, population, seed))
            .generations_run for model in REFERENCE_MODELS
            for population in REFERENCE_POPULATIONS for seed in range(4)}
    assert min(runs) < REFERENCE_GENERATIONS
    assert max(runs) == REFERENCE_GENERATIONS


def assert_ga_fit_matches_reference(china_sales, premiums, cfg):
    threads = threading.active_count()
    result = ga_fit(china_sales, premiums, cfg)
    assert threading.active_count() == threads      # a fit starts no thread
    got = (result.params, result.objective, result.history,
           result.generations_run, result.at_bounds)
    assert got == reference_ga_fit(china_sales, premiums, cfg)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("population", REFERENCE_POPULATIONS)
@pytest.mark.parametrize("model", REFERENCE_MODELS)
def test_ga_fit_matches_plain_reference_bitwise(long_range, china_sales,
                                                model, population, seed):
    """Every draw, selection and rounding of the GA matches the plain
    reference. One-child populations catch a year sum that turned pairwise."""
    assert_ga_fit_matches_reference(
        china_sales, *reference_case(long_range, model, population, seed))


def test_ga_fit_wide_population_matches_plain_reference_bitwise(long_range, china_sales):
    """A population the size of the wide benchmark fit is pinned too."""
    premiums = tj.premium_series(long_range, range(2010, 2022))
    cfg = FitConfig(rng_seed=5, population_size=6400, max_generations=4)
    assert_ga_fit_matches_reference(china_sales, premiums, cfg)


def test_concurrent_ga_fits_share_no_state(china_sales):
    """Three fits at once in caller threads, at a switch interval of a
    microsecond, give the results each gives alone."""
    cfgs = [FitConfig(rng_seed=seed, population_size=60, max_generations=40,
                      early_stop=False) for seed in range(3)]
    expected = [ga_fit(china_sales, None, cfg) for cfg in cfgs]
    got = [None] * len(cfgs)

    def fit(i):
        got[i] = ga_fit(china_sales, None, cfgs[i])

    workers = [threading.Thread(target=fit, args=(i,)) for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == expected


# --- compare_models -----------------------------------------------------------

def test_compare_models_premium_coupled_data(smooth_window):
    truth = BassParams(p=0.002, q=0.40, m=21000, beta=-2.0)
    obs = synthetic_obs(truth, smooth_window, 2015, 12)
    cfg = FitConfig(rng_seed=2, population_size=300, max_generations=300,
                    m_value=21000)
    vanilla, generalized = compare_models(obs, smooth_window, cfg)
    assert generalized.r_squared > vanilla.r_squared
    assert vanilla.params.beta == 0.0


def on_cpus(monkeypatch, n):
    """Let compare_models see `n` CPUs: two or more fork the vanilla fit
    (when no other thread runs), one keeps both fits in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_models_fits_through_ga_fit_once_per_model(smooth_window, monkeypatch):
    # perfbench's per-layer fitting.* metrics are read from ga_fit spans only.
    # The recorder returns what it saw, so a call made in a forked child is
    # checked in the child and reported through its result.
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    cfg = FitConfig(rng_seed=3, population_size=10, max_generations=2)
    calls = []

    def recording_ga_fit(got_obs, premiums, got_cfg):
        calls.append(premiums)
        return (got_obs is obs, premiums is None, premiums is smooth_window, got_cfg is cfg,
                len(calls), os.getpid())

    monkeypatch.setattr(fitting, "ga_fit", recording_ga_fit)
    on_cpus(monkeypatch, 2)
    vanilla, generalized = compare_models(obs, smooth_window, cfg)
    assert vanilla[:5] == (True, True, False, True, 1) and vanilla[5] != os.getpid()
    assert generalized == (True, False, True, True, 1, os.getpid())
    assert calls == [smooth_window]     # the vanilla call ran in the child
    assert_no_child_left()

    calls.clear()
    on_cpus(monkeypatch, 1)
    vanilla, generalized = compare_models(obs, smooth_window, cfg)
    assert vanilla == (True, True, False, True, 1, os.getpid())
    assert generalized == (True, False, True, True, 2, os.getpid())
    assert calls == [None, smooth_window]


@pytest.mark.parametrize("scenario", ["lr_series", "sr_series"])
def test_forked_and_inline_compare_models_are_equal(china_sales, monkeypatch, request,
                                                   scenario):
    premiums = request.getfixturevalue(scenario)
    for seed in range(4):
        cfg = FitConfig(rng_seed=seed)
        on_cpus(monkeypatch, 2)
        forked = compare_models(china_sales, premiums, cfg)
        on_cpus(monkeypatch, 1)
        inline = compare_models(china_sales, premiums, cfg)
        for got, want in zip(forked, inline):
            assert vars(got) == vars(want)      # history included


def test_forked_compare_models_raises_the_vanilla_fit_error(smooth_window, monkeypatch):
    on_cpus(monkeypatch, 2)
    three_rows = ObservationSeries(((2015, 5.0), (2016, 6.0), (2017, 7.0)))
    with pytest.raises(FitError, match="^need at least 4 observations$"):
        compare_models(three_rows, smooth_window, FitConfig())
    assert_no_child_left()

    def failing_ga_fit(obs, premiums, cfg):
        if premiums is None:
            raise ValueError("vanilla failed")
        raise FitError("generalized failed")

    monkeypatch.setattr(fitting, "ga_fit", failing_ga_fit)
    with pytest.raises(ValueError, match="^vanilla failed$"):
        compare_models(three_rows, smooth_window, FitConfig())
    assert_no_child_left()


def test_forked_compare_models_raises_the_generalized_fit_error_after_reaping(
        long_range, monkeypatch):
    on_cpus(monkeypatch, 2)
    obs = ObservationSeries(tuple((2012 + i, float(i + 1)) for i in range(8)))
    short = tj.premium_series(long_range, range(2015, 2020))
    cfg = FitConfig(population_size=20, max_generations=5)
    with pytest.raises(FitError) as forked:
        compare_models(obs, short, cfg)
    assert_no_child_left()
    on_cpus(monkeypatch, 1)
    with pytest.raises(FitError) as inline:
        compare_models(obs, short, cfg)
    assert str(forked.value) == str(inline.value) and "2012" in str(forked.value)


def test_interrupted_compare_models_kills_its_child(smooth_window, monkeypatch):
    real_ga_fit = fitting.ga_fit

    def interrupted_ga_fit(obs, premiums, cfg):
        if premiums is None:
            time.sleep(60)      # the child, killed long before it wakes
            return real_ga_fit(obs, premiums, cfg)
        raise KeyboardInterrupt

    monkeypatch.setattr(fitting, "ga_fit", interrupted_ga_fit)
    on_cpus(monkeypatch, 2)
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        compare_models(obs, smooth_window, FitConfig())
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_compare_models_with_a_live_thread_fits_in_this_process(smooth_window, monkeypatch):
    monkeypatch.setattr(fitting, "ga_fit", lambda obs, premiums, cfg: os.getpid())
    on_cpus(monkeypatch, 2)
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert compare_models(obs, smooth_window, FitConfig()) == (os.getpid(), os.getpid())
    finally:
        release.set()
        other.join()


def test_compare_models_requires_premiums():
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError):
        compare_models(obs, None, FitConfig())
    with pytest.raises(FitError):
        compare_models(obs, tj.PremiumSeries(points=()), FitConfig())
