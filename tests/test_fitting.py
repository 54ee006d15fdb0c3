import math
import sys
import threading

import numpy as np
import pytest

from greenpremium import fitting
from greenpremium import trajectory as tj
from greenpremium.diffusion import BassParams, decision_coefficient, simulate
from greenpremium.fitting import (CROSSOVER_PROB, DEFAULT_BOUNDS, LATE_WEIGHT_FROM_YEAR,
                                  MUTATION_PROB, PENALTY_WEIGHT, STAGNATION_PATIENCE,
                                  STAGNATION_TOL, FitConfig, FitError, ObservationError,
                                  ObservationSeries, compare_models, ga_fit, objective,
                                  predictions, r_squared)


def flat_series(years, lifecycle):
    return tj.PremiumSeries(points=tuple(
        tj.PremiumPoint(y, 0.0, 0.0, lifecycle, 1.0, 1.0, 1.0, 1.0) for y in years))


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
])
def test_fit_config_rejects_invalid_settings(setting, field):
    with pytest.raises(FitError, match=field):
        FitConfig(**setting)


def test_fit_config_accepts_boundary_settings():
    FitConfig(max_generations=0)


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


def assert_ga_fit_matches_reference(long_range, china_sales, model, population, seed):
    premiums, cfg = reference_case(long_range, model, population, seed)
    threads = threading.active_count()
    result = ga_fit(china_sales, premiums, cfg)
    assert threading.active_count() == threads
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
    assert_ga_fit_matches_reference(long_range, china_sales, model, population, seed)


@pytest.mark.parametrize("late", [False, True], ids=["ahead", "late-helper"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("population", REFERENCE_POPULATIONS)
@pytest.mark.parametrize("model", REFERENCE_MODELS)
def test_ga_fit_drawing_ahead_matches_plain_reference_bitwise(
        long_range, china_sales, monkeypatch, model, population, seed, late):
    """With every population drawing ahead on the helper thread, the stream,
    and so every result, is the one the plain reference draws inline; also
    when the helper is judged late after three generations and the rest
    of the fit draws inline."""
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", 0)
    if late:
        monkeypatch.setattr(fitting, "_AHEAD_JUDGED_AFTER", 3)
        monkeypatch.setattr(fitting, "_AHEAD_MAX_WAIT_SHARE", -1.0)
    assert_ga_fit_matches_reference(long_range, china_sales, model, population, seed)


def test_ga_fit_stops_a_late_helper_and_draws_inline(china_sales, monkeypatch):
    cfg = FitConfig(population_size=60, max_generations=12, early_stop=False)
    inline = ga_fit(china_sales, None, cfg)
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", 0)
    monkeypatch.setattr(fitting, "_AHEAD_JUDGED_AFTER", 5)
    monkeypatch.setattr(fitting, "_AHEAD_MAX_WAIT_SHARE", -1.0)
    evaluate = fitting._FitProblem.evaluate
    threads = []

    def counting(self, genomes):
        threads.append(threading.active_count())
        return evaluate(self, genomes)

    monkeypatch.setattr(fitting._FitProblem, "evaluate", counting)
    before = threading.active_count()
    assert ga_fit(china_sales, None, cfg) == inline
    # the initial population and generations 1-4 ran beside the helper
    assert threads == [before + 1] * 5 + [before] * 8


def test_ga_fit_just_above_the_ahead_threshold_matches_inline(long_range, china_sales,
                                                             monkeypatch):
    premiums = tj.premium_series(long_range, range(2010, 2022))
    cfg = FitConfig(rng_seed=5, population_size=fitting._AHEAD_MIN_POPULATION + 1,
                    max_generations=4)
    threads = threading.active_count()
    ahead = ga_fit(china_sales, premiums, cfg)
    assert threading.active_count() == threads
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", cfg.population_size + 1)
    assert ahead == ga_fit(china_sales, premiums, cfg)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("fail_at", [1, 2, 5])
def test_ga_fit_leaves_no_thread_behind_when_evaluation_raises(
        china_sales, monkeypatch, error, fail_at):
    """The helper is stopped and joined whether the fit fails in the initial
    evaluation, in its first generation or later."""
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", 0)
    evaluate = fitting._FitProblem.evaluate
    seen = []

    def failing(self, genomes):
        seen.append(threading.active_count())
        if len(seen) == fail_at:
            raise error("stop")
        return evaluate(self, genomes)

    monkeypatch.setattr(fitting._FitProblem, "evaluate", failing)
    threads = threading.active_count()
    with pytest.raises(error, match="stop"):
        ga_fit(china_sales, None, FitConfig(population_size=40, max_generations=50))
    assert seen[0] == threads + 1       # the helper was running
    assert threading.active_count() == threads


def test_ga_fit_raises_an_error_of_the_helper_thread(china_sales, monkeypatch):
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", 0)
    fill = fitting._Draws.fill
    calls = []

    def failing(self):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise MemoryError("no room for draws")
        return fill(self)

    monkeypatch.setattr(fitting._Draws, "fill", failing)
    threads = threading.active_count()
    # The failed fill is the last generation's, which no later call would catch.
    with pytest.raises(MemoryError, match="no room"):
        ga_fit(china_sales, None, FitConfig(population_size=40, max_generations=3))
    assert threading.current_thread() not in calls
    assert threading.active_count() == threads


def test_draw_source_raises_a_helper_error_after_stopping_it():
    """A set the helper failed to fill is never handed out, not even when
    the helper is stopped before the set is asked for."""
    class Failing:
        def fill(self):
            raise MemoryError("no room for draws")

    source = fitting._DrawSource(Failing, generations=5, ahead=True)
    assert isinstance(source.pending.exception(timeout=10), MemoryError)
    source.close()
    with pytest.raises(MemoryError, match="no room"):
        source.next()


def test_ga_fit_drawing_ahead_stays_bitwise_under_thread_stress(china_sales, monkeypatch):
    """Three fits at once, each with its own helper (six threads on fewer
    cores) and a switch interval of a microsecond, give the inline results."""
    cfgs = [FitConfig(rng_seed=seed, population_size=60, max_generations=40,
                      early_stop=False) for seed in range(3)]
    expected = [ga_fit(china_sales, None, cfg) for cfg in cfgs]
    monkeypatch.setattr(fitting, "_AHEAD_MIN_POPULATION", 0)
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


def test_compare_models_fits_through_ga_fit_once_per_model(smooth_window, monkeypatch):
    # perfbench's per-layer fitting.* metrics are read from ga_fit spans only.
    calls = []

    def recording_ga_fit(obs, premiums, cfg):
        calls.append((obs, premiums, cfg))
        return len(calls)

    monkeypatch.setattr(fitting, "ga_fit", recording_ga_fit)
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    cfg = FitConfig(rng_seed=3, population_size=10, max_generations=2)
    assert compare_models(obs, smooth_window, cfg) == (1, 2)
    assert len(calls) == 2
    assert calls[0][0] is obs and calls[0][1] is None and calls[0][2] is cfg
    assert calls[1][0] is obs and calls[1][1] is smooth_window and calls[1][2] is cfg


def test_compare_models_requires_premiums():
    obs = ObservationSeries(tuple((2015 + i, float(i + 1)) for i in range(6)))
    with pytest.raises(FitError):
        compare_models(obs, None, FitConfig())
    with pytest.raises(FitError):
        compare_models(obs, tj.PremiumSeries(points=()), FitConfig())
