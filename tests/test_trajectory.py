import dataclasses
import math

import pytest

from greenpremium import config
from greenpremium import costmodel as cm
from greenpremium import trajectory as tj

BATTERY_ANCHORS = ((2010, 7500), (2021, 820), (2025, 650), (2030, 500))


def battery_only_schedule():
    """Minimal schedule: the canonical battery track plus constants."""
    base = dict(
        battery_capacity=75, motor_unit_cost=65, motor_power=200,
        other_hv_cost=6000, engine_intake_exhaust_cost=16000,
        transmission_cost=11000, purchase_tax_rate=0.10, ev_tax_exempt=True,
        acquisition_subsidy=18000, credit_price=2000, cafc_actual=6.49,
        cafc_threshold=6.38, nev_credits_actual=5.1, nev_credits_threshold=0,
        lifecycle_years=10, annual_km=15000, ev_consumption=13,
        icev_consumption=8.5, electricity_price=1.2, gasoline_price=7.5,
        ev_maintenance=2000, icev_maintenance=7000, ev_residual=35000,
        icev_residual=65000, discount_rate=0.05, common_base_cost=94500,
        ev_price_margin=0.5503, icev_price_margin=0.358,
    )
    entries = [tj.ScheduleEntry(2010, {**base, "battery_unit_cost": 7500})]
    entries += [tj.ScheduleEntry(y, {"battery_unit_cost": v})
                for y, v in BATTERY_ANCHORS[1:]]
    return tj.ScenarioSchedule(
        name="battery-only", vehicle_class="long-range", span=(2010, 2030),
        entries=tuple(entries))


# --- resolution --------------------------------------------------------------

def test_linear_interpolation_hits_anchor_years():
    sched = battery_only_schedule()
    for year, value in BATTERY_ANCHORS:
        assert sched.values_at(year)["battery_unit_cost"] == value


def test_value_check_failing_in_resolution_names_source_and_year():
    sched = battery_only_schedule()
    negative_cost = sched.entries[:2] + (tj.ScheduleEntry(2025, {"battery_unit_cost": -650}),)
    bad = dataclasses.replace(sched, entries=negative_cost)
    assert tj.resolve_scenario(bad, 2021).year == 2021
    with pytest.raises(tj.ScheduleError, match=r"^year 2024: .*non-negative"):
        tj.resolve_scenario(bad, 2024)
    named = dataclasses.replace(bad, source="lr.yaml")
    assert named == bad
    with pytest.raises(tj.ScheduleError, match=r"^lr\.yaml: year 2025: "):
        tj.resolve_scenario(named, 2025)


def test_linear_interpolation_between_anchors():
    sched = battery_only_schedule()
    assert sched.values_at(2023)["battery_unit_cost"] == pytest.approx(735.0)


def test_step_fields_hold_last_value():
    sched = battery_only_schedule()
    assert sched.values_at(2015)["acquisition_subsidy"] == 18000  # single anchor


def test_resolution_outside_span_is_an_error():
    sched = battery_only_schedule()
    with pytest.raises(tj.SpanError):
        sched.values_at(2009)
    with pytest.raises(tj.SpanError):
        sched.values_at(2031)
    with pytest.raises(tj.SpanError):
        tj.resolve_scenario(sched, 2035)


def test_resolve_scenario_is_deterministic(long_range):
    first = tj.resolve_scenario(long_range, 2024)
    second = tj.resolve_scenario(long_range, 2024)
    assert first == second
    assert first.prices.ev_price == second.prices.ev_price


def test_resolve_derives_prices_from_margins(long_range):
    sc = tj.resolve_scenario(long_range, 2021)
    production = cm.production_cost_ev(sc.ev, sc.prices.common_base_cost)
    assert sc.prices.ev_price == pytest.approx(
        (1 + sc.ev_price_margin) * production, rel=1e-12)


def test_schedule_validation():
    sched = battery_only_schedule()
    with pytest.raises(tj.ScheduleError):
        tj.ScenarioSchedule("bad", "x", (2010, 2030), entries=())
    with pytest.raises(tj.ScheduleError):
        tj.ScenarioSchedule("bad", "x", (2010, 2030), entries=(
            tj.ScheduleEntry(2012, dict(sched.entries[0].overrides)),))
    with pytest.raises(tj.ScheduleError):
        tj.ScenarioSchedule("bad", "x", (2010, 2030), entries=(
            tj.ScheduleEntry(2010, {"no_such_field": 1}),))
    with pytest.raises(tj.ScheduleError):
        # missing most fields in the first entry
        tj.ScenarioSchedule("bad", "x", (2010, 2030), entries=(
            tj.ScheduleEntry(2010, {"battery_unit_cost": 820}),))
    first = dict(sched.entries[0].overrides)
    for bad in ("abc", float("nan"), float("inf"), None, 10**400):
        with pytest.raises(tj.ScheduleError,
                           match="entry 2010: motor_power: expected a finite number"):
            tj.ScenarioSchedule("bad", "x", (2010, 2030), entries=(
                tj.ScheduleEntry(2010, {**first, "motor_power": bad}),))


# --- premium series -----------------------------------------------------------

def test_premium_series_2021_anchor(lr_series):
    p = lr_series.point(2021)
    assert p.production == pytest.approx(0.44, abs=0.02)
    assert p.lifecycle == pytest.approx(-0.15, abs=0.03)
    assert p.lcod_ev == pytest.approx(1.52, abs=0.05)
    assert p.lcod_icev == pytest.approx(1.80, abs=0.05)


def test_premium_series_2010_levels(lr_series):
    p = lr_series.point(2010)
    assert p.lcod_ev == pytest.approx(5.71, abs=0.05)
    assert p.lcod_icev == pytest.approx(1.87, abs=0.05)


def test_constant_schedule_gives_constant_series():
    sched = battery_only_schedule()
    constant = tj.ScenarioSchedule(
        name="flat", vehicle_class="long-range", span=(2010, 2030),
        entries=(sched.entries[0],))
    series = tj.premium_series(constant, range(2010, 2031))
    first = series.points[0]
    for p in series.points[1:]:
        assert p.lifecycle == first.lifecycle
        assert p.production == first.production


def test_evaluate_year_lifecycle_matches_lifecycle_premium(long_range, short_range):
    for sched in (long_range, short_range):
        for year in range(2010, 2031):
            sc = tj.resolve_scenario(sched, year)
            assert tj.evaluate_year(sc).lifecycle == cm.lifecycle_premium(sc)


def test_evaluate_year_rejects_non_positive_icev_tco(lr_2021):
    sc = cm.replace_field(lr_2021, "finance.icev_residual", 1e9)
    with pytest.raises(cm.DomainError, match="ICEV TCO must be positive"):
        tj.evaluate_year(sc)


def test_premium_series_requires_contiguous_years():
    with pytest.raises(ValueError):
        tj.PremiumSeries(points=(
            tj.PremiumPoint(2010, 0, 0, 0, 1, 1, 1, 1),
            tj.PremiumPoint(2012, 0, 0, 0, 1, 1, 1, 1)))


@pytest.mark.parametrize("name", ["production", "acquisition", "lifecycle", "lcod_ev",
                                  "lcod_icev", "tco_ev", "tco_icev"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_premium_series_rejects_a_non_finite_value(name, value):
    point = tj.PremiumPoint(2010, 0, 0, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="non-finite premium value in year 2010"):
        tj.PremiumSeries(points=(dataclasses.replace(point, **{name: value}),))


def test_premium_point_lookup(lr_series):
    assert lr_series.point(2015).year == 2015
    with pytest.raises(KeyError):
        lr_series.point(2009)
    with pytest.raises(KeyError):
        lr_series.point(2031)


# --- parity -------------------------------------------------------------------

def test_parity_years_long_range(lr_series):
    assert tj.parity_year(lr_series, "lifecycle") == 2018
    assert tj.parity_year(lr_series, "acquisition") == 2029
    assert tj.parity_year(lr_series, "production") == 2030


def test_parity_years_short_range(sr_series):
    assert tj.parity_year(sr_series, "lifecycle") == 2018
    assert tj.parity_year(sr_series, "acquisition") in (2025, 2026)
    assert tj.parity_year(sr_series, "production") in (2027, 2028)


def test_parity_none_when_never_crossed():
    always_positive = tj.PremiumSeries(points=tuple(
        tj.PremiumPoint(2010 + i, 0.5, 0.4, 0.3, 2.0, 1.8, 3e5, 2.7e5) for i in range(5)))
    assert tj.parity_year(always_positive, "lifecycle") is None


def test_parity_years_lists_the_premium_kinds_in_order(lr_series):
    assert tuple(tj.parity_years(lr_series)) == cm.PREMIUM_KINDS == (
        "lifecycle", "acquisition", "production")


def test_parity_ordering_invariant(lr_series, sr_series):
    for series in (lr_series, sr_series):
        years = tj.parity_years(series)
        assert years["lifecycle"] <= years["acquisition"] <= years["production"]


def test_subsidy_withdrawal_rebound(lr_series, sr_series):
    for series in (lr_series, sr_series):
        assert series.point(2023).acquisition > series.point(2022).acquisition
        assert series.point(2023).lifecycle > series.point(2022).lifecycle


def test_class_ordering_production_premium(lr_series, sr_series):
    for year in range(2010, 2031):
        assert lr_series.point(year).production >= sr_series.point(year).production - 1e-12


# --- one-pass resolution, bit for bit -------------------------------------------

def _bits(value):
    """A value's type and exact text; repr round-trips floats, so equal
    _bits means equal bits (0.0 and -0.0 differ here, unlike ==)."""
    return type(value), repr(value)


def _snapshot_bits(sc):
    return [(name, _bits(getattr(member, name)))
            for member in (sc.ev, sc.icev, sc.policy, sc.usage, sc.finance, sc.prices)
            for name in member.__dataclass_fields__] + [
        (name, _bits(getattr(sc, name)))
        for name in ("year", "ev_price_margin", "icev_price_margin",
                     "consumer_battery_replacements")]


def _value_at_reference(sched, field_name, year):
    """The per-field resolution as it was before values_at, reading the
    anchors straight from the entries; None when the field has none yet."""
    track = [(e.year, e.overrides[field_name]) for e in sched.entries
             if field_name in e.overrides]
    if not track or year < track[0][0]:
        return None
    prev_year, prev_val = track[0]
    for anchor_year, anchor_val in track:
        if anchor_year == year:
            return anchor_val
        if anchor_year > year:
            if field_name in sched.step_fields or isinstance(prev_val, bool):
                return prev_val
            frac = (year - prev_year) / (anchor_year - prev_year)
            return prev_val + (anchor_val - prev_val) * frac
        prev_year, prev_val = anchor_year, anchor_val
    return prev_val


def _resolve_field_by_field(sched, year):
    """The resolution as it was before values_at: one reference lookup per
    field, then a derive step on a scenario built with placeholder prices."""
    def val(name):
        return _value_at_reference(sched, name, year)

    first = sched.entries[0].overrides
    usage = [val(f) for f in tj.USAGE_FIELDS]
    usage[0] = int(usage[0])
    ev_margin = val("ev_price_margin") if "ev_price_margin" in first else None
    icev_margin = val("icev_price_margin") if "icev_price_margin" in first else None
    sc = cm.VehicleScenario(
        year=year, ev=cm.EvPowertrain(*(val(f) for f in tj.EV_FIELDS)),
        icev=cm.IcevPowertrain(*(val(f) for f in tj.ICEV_FIELDS)),
        policy=cm.SubsidyPolicy(*(val(f) for f in tj.POLICY_FIELDS)),
        usage=cm.UsageProfile(*usage),
        finance=cm.ResidualAndFinance(*(val(f) for f in tj.FINANCE_FIELDS)),
        prices=cm.MarketPrices(0.0 if ev_margin is not None else val("ev_price"),
                               0.0 if icev_margin is not None else val("icev_price"),
                               val("common_base_cost")),
        ev_price_margin=ev_margin, icev_price_margin=icev_margin,
        consumer_battery_replacements=(int(val("consumer_battery_replacements"))
                                       if "consumer_battery_replacements" in first else 0))
    base = sc.prices.common_base_cost
    ev_price, icev_price = sc.prices.ev_price, sc.prices.icev_price
    if ev_margin is not None:
        ev_price = (1.0 + ev_margin) * cm.production_cost_ev(sc.ev, base)
    if icev_margin is not None:
        icev_price = (1.0 + icev_margin) * cm.production_cost_icev(sc.icev, base)
    return dataclasses.replace(sc, prices=cm.MarketPrices(ev_price, icev_price, base))


@pytest.mark.parametrize("name", ["long-range", "short-range", "battery-only"])
def test_values_at_equals_per_field_resolution_for_every_field_and_year(name):
    sched = battery_only_schedule() if name == "battery-only" else config.load_schedule(name)
    for year in range(sched.span[0], sched.span[1] + 1):
        values = sched.values_at(year)
        for field_name in tj.ALL_FIELDS:
            expected = _value_at_reference(sched, field_name, year)
            if expected is None:
                assert field_name not in values
                continue
            assert _bits(values[field_name]) == _bits(expected), (field_name, year)


@pytest.mark.parametrize("name", ["long-range", "short-range", "battery-only"])
def test_resolve_scenario_equals_field_by_field_resolution(name):
    sched = battery_only_schedule() if name == "battery-only" else config.load_schedule(name)
    for year in range(sched.span[0], sched.span[1] + 1):
        got = tj.resolve_scenario(sched, year)
        want = _resolve_field_by_field(sched, year)
        assert got == want
        assert _snapshot_bits(got) == _snapshot_bits(want), year


def test_values_at_leaves_out_fields_not_yet_anchored():
    sched = battery_only_schedule()
    staged = tj.ScenarioSchedule(
        name="staged", vehicle_class="x", span=(2010, 2030),
        entries=(sched.entries[0],
                 tj.ScheduleEntry(2015, {"consumer_battery_replacements": 1})))
    assert "consumer_battery_replacements" not in staged.values_at(2014)
    assert staged.values_at(2015)["consumer_battery_replacements"] == 1
    with pytest.raises(tj.SpanError):
        staged.values_at(2031)


@pytest.mark.parametrize("name, value", [("lifecycle_years", 101),
                                         ("lifecycle_years", 10**15),
                                         ("consumer_battery_replacements", 10**15),
                                         ("consumer_battery_replacements", -1),
                                         ("discount_rate", 1e300),
                                         ("discount_rate", -0.99999)])
def test_schedule_rejects_anchor_outside_cost_model_limits(name, value):
    first = dict(battery_only_schedule().entries[0].overrides)
    with pytest.raises(tj.ScheduleError, match=f"entry 2010: {name}: .* outside"):
        tj.ScenarioSchedule("bad", "x", (2010, 2030),
                            entries=(tj.ScheduleEntry(2010, {**first, name: value}),))


def test_schedule_accepts_integral_floats_for_integer_fields():
    first = dict(battery_only_schedule().entries[0].overrides)
    whole = {**first, "lifecycle_years": 10.0, "consumer_battery_replacements": 2.0}
    sched = tj.ScenarioSchedule("ok", "x", (2010, 2030),
                                entries=(tj.ScheduleEntry(2010, whole),))
    sc = tj.resolve_scenario(sched, 2015)
    assert _bits(sc.usage.lifecycle_years) == _bits(10)
    assert _bits(sc.consumer_battery_replacements) == _bits(2)


def test_evaluate_returns_the_tcos_evaluate_year_used(lr_2021):
    point = tj.evaluate_year(lr_2021)
    assert point.tco_ev == cm.tco_npv(lr_2021, cm.VehicleKind.EV)
    assert point.tco_icev == cm.tco_npv(lr_2021, cm.VehicleKind.ICEV)
    assert point.lifecycle == cm.tco_premium(point.tco_ev, point.tco_icev)
    assert point.lcod_ev == cm.lcod(point.tco_ev, lr_2021.usage)
