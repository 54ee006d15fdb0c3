import math

import numpy as np
import pytest
from conftest import flat_series

from greenpremium import config
from greenpremium import trajectory as tj
from greenpremium.diffusion import (AdoptionState, BassParams,
                                    closed_form_cumulative,
                                    decision_coefficient, flows, simulate)


# --- decision coefficient ------------------------------------------------

def test_decision_coefficient_values():
    assert decision_coefficient(-0.15, -2.0) == pytest.approx(1.30)
    assert decision_coefficient(0.0, -123.0) == 1.0
    assert decision_coefficient(0.44, -2.0) == pytest.approx(0.12)


# --- single step ----------------------------------------------------------

def one_row(params, dp3):
    """(flows, raw) of one parameter row over the years of `dp3`."""
    flow, raw = flows(params.p, params.q, params.m, params.beta,
                      np.array(dp3, dtype=float), 1)
    return flow[:, 0].tolist(), raw[:, 0].tolist()


def test_bass_step_innovation_only_at_launch():
    params = BassParams(p=0.03, q=0.38, m=100)
    assert one_row(params, [0.0])[0][0] == pytest.approx(3.0)


def test_bass_step_saturated_market():
    params = BassParams(p=1.0, q=0.38, m=100)
    assert one_row(params, [0.0, 0.0])[0] == [100.0, 0.0]


def test_bass_step_midway():
    params = BassParams(p=0.5, q=0.38, m=100)
    first, second = one_row(params, [0.0, 0.0])[0]
    assert first == 50.0
    assert second == pytest.approx(34.5)


def test_bass_step_clamps_negative_flow():
    params = BassParams(p=0.03, q=0.38, m=100, beta=-2.0)
    assert decision_coefficient(2.0, params.beta) == -3.0
    (flow,), (raw,) = one_row(params, [2.0])
    assert raw < 0
    assert flow == 0.0


def python_recursion(p, q, m, beta, dp3):
    """The recursion in plain floats, term by term as the module docstring
    writes it: the reference the array kernel must match bitwise."""
    cumulative, out, raw = 0.0, [], []
    for delta in dp3:
        remaining = m - cumulative
        r = (p * remaining + q * (cumulative / m) * remaining) * (1.0 + delta * beta)
        flow = min(max(r, 0.0), remaining)
        out.append(flow)
        raw.append(r)
        cumulative += flow
    return out, raw


def test_flows_rows_match_one_row_calls_and_plain_floats_bitwise():
    """A row's flows do not depend on the batch it is evaluated in, and
    equal the plain-float recursion exactly, as do `simulate`'s."""
    rng = np.random.default_rng(7)
    n = 257
    p = rng.uniform(1e-4, 0.02, n)
    q = rng.uniform(0.05, 0.8, n)
    m = rng.uniform(21_000, 150_000, n)
    beta = rng.uniform(-8.0, 2.0, n)
    dp3 = rng.uniform(-0.5, 2.0, 12)
    batch_flows, batch_raw = flows(p, q, m, beta, dp3, n)
    assert batch_flows.shape == batch_raw.shape == (12, n)
    assert (batch_raw < 0).any()
    for i in range(n):
        row = float(p[i]), float(q[i]), float(m[i]), float(beta[i])
        row_flows, row_raw = flows(*row, dp3, 1)
        assert batch_flows[:, i].tobytes() == row_flows[:, 0].tobytes()
        assert batch_raw[:, i].tobytes() == row_raw[:, 0].tobytes()
        ref_flows, ref_raw = python_recursion(*row, dp3.tolist())
        assert batch_flows[:, i].tolist() == ref_flows
        assert batch_raw[:, i].tolist() == ref_raw
    # simulate's row, on the row whose pre-clamp flow goes most negative
    i = int(np.argmin(batch_raw.min(axis=0)))
    params = BassParams(float(p[i]), float(q[i]), float(m[i]), float(beta[i]))
    series = tj.PremiumSeries(points=tuple(
        tj.PremiumPoint(2010 + k, 0.0, 0.0, float(d), 1.0, 1.0, 1.0, 1.0)
        for k, d in enumerate(dp3)))
    states = simulate(params, series, 2010, 12)
    assert [s.new_adopters for s in states] == python_recursion(
        params.p, params.q, params.m, params.beta, dp3.tolist())[0]


# --- simulation -----------------------------------------------------------

def test_simulate_beta_zero_reduces_to_plain_model():
    params = BassParams(p=0.01, q=0.4, m=5000, beta=0.0)
    series = flat_series(range(2010, 2030), -0.2)
    with_series = simulate(params, series, 2010, 20)
    without = simulate(params, None, 2010, 20)
    assert with_series == without  # bitwise


@pytest.mark.filterwarnings("error")
def test_simulate_rejects_a_nan_flow_naming_its_year():
    """p*(m - N) overflows to inf in 2010, where x is exactly 0: inf * 0 is NaN."""
    series = tj.premium_series(config.load_schedule("long-range"), range(2010, 2031))
    beta = -1 / series.lifecycle(2010)
    assert decision_coefficient(series.lifecycle(2010), beta) == 0.0
    with pytest.raises(ValueError, match="adoption flow is NaN in 2010"):
        simulate(BassParams(p=2.0, q=0.0, m=1e308, beta=beta), series, 2010, 21)


@pytest.mark.filterwarnings("error")
def test_simulate_reports_an_overflowing_coefficient_before_a_nan_flow():
    # x is 0 in 2010, where the flow would be NaN, and overflows in 2011
    series = tj.PremiumSeries(points=(
        tj.PremiumPoint(2010, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0),
        tj.PremiumPoint(2011, 0.0, 0.0, 1e308, 1.0, 1.0, 1.0, 1.0)))
    with pytest.raises(ValueError, match="decision coefficient .* not finite in 2011"):
        simulate(BassParams(p=2.0, q=0.0, m=1e308, beta=-2.0), series, 2010, 2)


def test_simulate_missing_premium_year_is_an_error():
    params = BassParams(p=0.01, q=0.4, m=5000, beta=-1.0)
    series = flat_series(range(2010, 2015), -0.1)
    with pytest.raises(ValueError, match="missing"):
        simulate(params, series, 2010, 10)


def test_simulate_horizon_validation():
    with pytest.raises(ValueError):
        simulate(BassParams(0.01, 0.4, 100), None, 2010, 0)


def test_cumulative_monotone_and_bounded():
    params = BassParams(p=0.02, q=0.5, m=1000, beta=-3.0)
    series = flat_series(range(2000, 2100), -0.3)
    states = simulate(params, series, 2000, 100)
    previous = 0.0
    for s in states:
        assert s.new_adopters >= 0
        assert s.cumulative >= previous - 1e-12
        assert s.cumulative + s.new_adopters <= params.m + 1e-9
        previous = s.cumulative


def test_lower_premium_never_reduces_adoption():
    # beta < 0: a deeper cost discount in one year raises that year's flow
    params = BassParams(p=0.01, q=0.4, m=5000, beta=-2.0)
    mild = flat_series(range(2010, 2020), -0.05)
    deep = flat_series(range(2010, 2020), -0.30)
    flows_mild = simulate(params, mild, 2010, 10)
    flows_deep = simulate(params, deep, 2010, 10)
    assert flows_deep[0].new_adopters > flows_mild[0].new_adopters


# --- closed form vs numerical oracle ---------------------------------------

def euler_cumulative_fraction(p, q, t, dt=1.0 / 365.0):
    """Fine-step explicit integration of the continuous adoption rate."""
    f = 0.0
    steps = round(t / dt)
    for _ in range(steps):
        f += dt * (p * (1 - f) + q * f * (1 - f))
    return f


def midpoint_cumulative_fraction(p, q, t, dt=1.0 / 365.0):
    """Second-order fine-step oracle; integration error well below the gate."""
    def rate(f):
        return p * (1 - f) + q * f * (1 - f)

    f = 0.0
    steps = round(t / dt)
    for _ in range(steps):
        half = f + 0.5 * dt * rate(f)
        f += dt * rate(half)
    return f


def test_closed_form_boundaries():
    params = BassParams(p=0.03, q=0.38, m=100)
    assert closed_form_cumulative(params, 0.0) == 0.0
    assert closed_form_cumulative(params, 200.0) == pytest.approx(1.0, abs=1e-6)


def test_closed_form_matches_fine_step_integration():
    params = BassParams(p=0.03, q=0.38, m=100)
    oracle = euler_cumulative_fraction(0.03, 0.38, 10.0)
    assert closed_form_cumulative(params, 10.0) == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.05])
@pytest.mark.parametrize("q", [0.1, 0.38, 0.6])
def test_closed_form_fine_step_grid(p, q):
    oracle = midpoint_cumulative_fraction(p, q, 10.0)
    value = closed_form_cumulative(BassParams(p=p, q=q, m=1.0), 10.0)
    assert value == pytest.approx(oracle, rel=1e-3)


def peak_year(states):
    best = max(states, key=lambda s: s.new_adopters)
    return best.year


def annualized_closed_form_peak(params, horizon):
    increments = [closed_form_cumulative(params, t + 1) - closed_form_cumulative(params, t)
                  for t in range(horizon)]
    return max(range(horizon), key=lambda t: increments[t])


@pytest.mark.parametrize("p", [0.005, 0.01, 0.02, 0.05])
def test_annual_recursion_tracks_continuous_solution_slow_dynamics(p):
    """For slow imitation the yearly recursion reproduces the continuous
    solution closely: peak within a year, cumulative-at-peak within 5%."""
    params = BassParams(p=p, q=0.1, m=1000)
    horizon = 400
    states = simulate(params, None, 0, horizon)
    t_discrete = peak_year(states)
    t_continuous = annualized_closed_form_peak(params, horizon)
    assert abs(t_discrete - t_continuous) <= 1
    cumulative = states[t_discrete].cumulative + states[t_discrete].new_adopters
    expected = params.m * closed_form_cumulative(params, t_discrete + 1)
    assert cumulative == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("p", [0.001, 0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("q", [0.1, 0.3, 0.45, 0.6])
def test_annual_recursion_degrades_gracefully(p, q):
    """With one-year steps the recursion lags the exact solution as the
    dynamics speed up; the lag stays bounded over the whole grid."""
    params = BassParams(p=p, q=q, m=1000)
    horizon = 400
    states = simulate(params, None, 0, horizon)
    t_discrete = peak_year(states)
    t_continuous = annualized_closed_form_peak(params, horizon)
    assert 0 <= t_discrete - t_continuous <= 3
    cumulative = states[t_discrete].cumulative + states[t_discrete].new_adopters
    expected = params.m * closed_form_cumulative(params, t_discrete + 1)
    assert cumulative == pytest.approx(expected, rel=0.30)


def test_params_validation():
    with pytest.raises(ValueError):
        BassParams(p=0.0, q=0.3, m=100)
    with pytest.raises(ValueError):
        BassParams(p=0.01, q=-0.1, m=100)
    with pytest.raises(ValueError):
        BassParams(p=0.01, q=0.3, m=0)
    with pytest.raises(ValueError):
        BassParams(p=0.01, q=0.3, m=100, beta=float("nan"))
