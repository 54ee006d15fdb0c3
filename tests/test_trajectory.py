import dataclasses
import math

import pytest
import yaml
from conftest import snapshot_bits

from greenpremium import config
from greenpremium import costmodel as cm
from greenpremium import trajectory as tj

BATTERY_ANCHORS = ((2010, 7500), (2021, 820), (2025, 650), (2030, 500))


def schedule_doc(*entries, name="bad"):
    """A scenario document over 2010..2030 holding `entries`."""
    return {"name": name, "vehicle_class": "x", "span": [2010, 2030], "entries": list(entries)}


def battery_only_doc():
    """Minimal scenario document: the canonical battery track plus constants."""
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
    entries = [{"year": 2010, **base, "battery_unit_cost": 7500}]
    entries += [{"year": y, "battery_unit_cost": v} for y, v in BATTERY_ANCHORS[1:]]
    return {**schedule_doc(*entries, name="battery-only"), "vehicle_class": "long-range"}


def battery_only_schedule():
    return tj.build_schedule(battery_only_doc())


def first_entry():
    """The battery-only document's complete first entry, without its year."""
    return {k: v for k, v in battery_only_doc()["entries"][0].items() if k != "year"}


# --- resolution --------------------------------------------------------------

def test_linear_interpolation_hits_anchor_years():
    sched = battery_only_schedule()
    for year, value in BATTERY_ANCHORS:
        assert sched.values_at(year)["battery_unit_cost"] == value


def test_value_check_failing_in_resolution_names_source_and_year():
    doc = battery_only_doc()
    doc["entries"][2:] = [{"year": 2025, "battery_unit_cost": -650}]
    bad = tj.build_schedule(doc)
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
    assert first.ev_price == second.ev_price


def test_resolve_derives_prices_from_margins(long_range):
    sc = tj.resolve_scenario(long_range, 2021)
    production = cm.production_cost_ev(sc)
    assert sc.ev_price == pytest.approx(
        (1 + sc.ev_price_margin) * production, rel=1e-12)


def test_schedule_keys_are_the_snapshot_fields_in_their_order():
    """A schedule's first entry is checked in this order, so a "missing"
    error names the first absent key of this list."""
    assert tj.ALL_FIELDS == (
        "battery_unit_cost", "battery_capacity", "motor_unit_cost", "motor_power",
        "other_hv_cost", "engine_intake_exhaust_cost", "transmission_cost",
        "purchase_tax_rate", "ev_tax_exempt", "acquisition_subsidy", "credit_price",
        "cafc_actual", "cafc_threshold", "nev_credits_actual", "nev_credits_threshold",
        "lifecycle_years", "annual_km", "ev_consumption", "icev_consumption",
        "electricity_price", "gasoline_price", "ev_maintenance", "icev_maintenance",
        "ev_residual", "icev_residual", "discount_rate", "common_base_cost",
        "ev_price", "ev_price_margin", "icev_price", "icev_price_margin",
        "consumer_battery_replacements")
    assert [f.name for f in dataclasses.fields(cm.VehicleScenario)] == ["year", *tj.ALL_FIELDS]
    with pytest.raises(tj.ScheduleError, match="missing 'battery_capacity'"):
        tj.build_schedule(schedule_doc({"year": 2010, "battery_unit_cost": 820}))


def test_schedule_validation():
    first = first_entry()
    with pytest.raises(tj.ScheduleError):
        tj.build_schedule(schedule_doc())
    with pytest.raises(tj.ScheduleError):
        tj.build_schedule(schedule_doc({"year": 2012, **first}))
    with pytest.raises(tj.ScheduleError):
        tj.build_schedule(schedule_doc({"year": 2010, "no_such_field": 1}))
    with pytest.raises(tj.ScheduleError):
        # missing most fields in the first entry
        tj.build_schedule(schedule_doc({"year": 2010, "battery_unit_cost": 820}))
    for bad in ("abc", float("nan"), float("inf"), None, 10**400):
        with pytest.raises(tj.ScheduleError,
                           match="entry 2010: motor_power: expected a finite number"):
            tj.build_schedule(schedule_doc({"year": 2010, **first, "motor_power": bad}))


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
    doc = battery_only_doc()
    constant = tj.build_schedule({**doc, "name": "flat", "entries": doc["entries"][:1]})
    series = tj.premium_series(constant, range(2010, 2031))
    first = series.points[0]
    for p in series.points[1:]:
        assert p.lifecycle == first.lifecycle
        assert p.production == first.production


def test_evaluate_year_matches_premium_of_stage_costs(long_range, short_range):
    for sched in (long_range, short_range):
        for year in range(2010, 2031):
            sc = tj.resolve_scenario(sched, year)
            point = tj.evaluate_year(sc)
            for kind in cm.PREMIUM_KINDS:
                assert _bits(getattr(point, kind)) == _bits(
                    cm.premium(kind, *cm.stage_costs(sc, kind))), (sched.name, year, kind)


def test_evaluate_year_reports_the_first_undefined_stage(lr_2021):
    """Errors come in the order production, acquisition and lifecycle premium, then LCOD."""
    broken = dict(engine_intake_exhaust_cost=0.0, transmission_cost=0.0, common_base_cost=0.0,
                  icev_price_margin=-1.0, credit_price=0.0, icev_residual=1e9, annual_km=0.0)
    for message, repaired in [
            ("production premium undefined",
             ("engine_intake_exhaust_cost", "transmission_cost", "common_base_cost")),
            ("acquisition premium undefined", ("icev_price_margin",)),
            ("lifecycle premium undefined", ("icev_residual",)),
            ("LCOD undefined", ("annual_km",))]:
        with pytest.raises(cm.DomainError, match=message):
            tj.evaluate_year(dataclasses.replace(lr_2021, **broken))
        for name in repaired:
            del broken[name]
    assert math.isfinite(tj.evaluate_year(dataclasses.replace(lr_2021, **broken)).lifecycle)


def test_evaluate_year_rejects_non_positive_icev_tco(lr_2021):
    sc = cm.replace_field(lr_2021, "icev_residual", 1e9)
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
    with pytest.raises(ValueError, match=f"^non-finite premium value: {name} = "):
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


def _document(name):
    """The scenario document a schedule is built from, parsed without `config.load_schedule`."""
    if name == "battery-only":
        return battery_only_doc()
    return yaml.safe_load(config.scenario_path(name).read_text())


def _value_at_reference(sched, doc, field_name, year):
    """The per-field resolution as it was before values_at, reading the
    anchors straight from the document's entries; None when the field has none yet."""
    track = [(e["year"], e[field_name]) for e in doc["entries"] if field_name in e]
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


def _resolve_field_by_field(sched, doc, year):
    """The resolution as it was before values_at: one reference lookup per
    field, then a derive step on a scenario built with placeholder prices."""
    def val(name):
        return _value_at_reference(sched, doc, name, year)

    first = doc["entries"][0]
    ev_margin = val("ev_price_margin") if "ev_price_margin" in first else None
    icev_margin = val("icev_price_margin") if "icev_price_margin" in first else None
    optional = sum(tj.PRICE_KEYS, tj.OPTIONAL_FIELDS)
    values = {f: val(f) for f in tj.ALL_FIELDS if f not in optional}
    values["lifecycle_years"] = int(values["lifecycle_years"])
    sc = cm.VehicleScenario(
        year=year, **values,
        ev_price=0.0 if ev_margin is not None else val("ev_price"),
        icev_price=0.0 if icev_margin is not None else val("icev_price"),
        ev_price_margin=ev_margin, icev_price_margin=icev_margin,
        consumer_battery_replacements=(int(val("consumer_battery_replacements"))
                                       if "consumer_battery_replacements" in first else 0))
    ev_price, icev_price = sc.ev_price, sc.icev_price
    if ev_margin is not None:
        ev_price = (1.0 + ev_margin) * cm.production_cost_ev(sc)
    if icev_margin is not None:
        icev_price = (1.0 + icev_margin) * cm.production_cost_icev(sc)
    return dataclasses.replace(sc, ev_price=ev_price, icev_price=icev_price)


@pytest.mark.parametrize("name", ["long-range", "short-range", "battery-only"])
def test_values_at_equals_per_field_resolution_for_every_field_and_year(name):
    sched = battery_only_schedule() if name == "battery-only" else config.load_schedule(name)
    doc = _document(name)
    for year in range(sched.span[0], sched.span[1] + 1):
        values = sched.values_at(year)
        for field_name in tj.ALL_FIELDS:
            expected = _value_at_reference(sched, doc, field_name, year)
            if expected is None:
                assert field_name not in values
                continue
            assert _bits(values[field_name]) == _bits(expected), (field_name, year)


@pytest.mark.parametrize("name", ["long-range", "short-range", "battery-only"])
def test_resolve_scenario_equals_field_by_field_resolution(name):
    sched = battery_only_schedule() if name == "battery-only" else config.load_schedule(name)
    doc = _document(name)
    for year in range(sched.span[0], sched.span[1] + 1):
        got = tj.resolve_scenario(sched, year)
        want = _resolve_field_by_field(sched, doc, year)
        assert got == want
        assert snapshot_bits(got) == snapshot_bits(want), year


def test_values_at_leaves_out_fields_not_yet_anchored():
    staged = tj.build_schedule(schedule_doc(
        battery_only_doc()["entries"][0], {"year": 2015, "consumer_battery_replacements": 1},
        name="staged"))
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
    with pytest.raises(tj.ScheduleError, match=f"entry 2010: {name}: .* outside"):
        tj.build_schedule(schedule_doc({"year": 2010, **first_entry(), name: value}))


def test_schedule_accepts_integral_floats_for_integer_fields():
    whole = {**first_entry(), "lifecycle_years": 10.0, "consumer_battery_replacements": 2.0}
    sched = tj.build_schedule(schedule_doc({"year": 2010, **whole}, name="ok"))
    sc = tj.resolve_scenario(sched, 2015)
    assert _bits(sc.lifecycle_years) == _bits(10)
    assert _bits(sc.consumer_battery_replacements) == _bits(2)


def test_evaluate_returns_the_tcos_evaluate_year_used(lr_2021):
    point = tj.evaluate_year(lr_2021)
    assert point.tco_ev == cm.tco_npv(lr_2021, cm.VehicleKind.EV)
    assert point.tco_icev == cm.tco_npv(lr_2021, cm.VehicleKind.ICEV)
    assert point.lifecycle == cm.premium("lifecycle", point.tco_ev, point.tco_icev)
    assert point.lcod_ev == cm.lcod(point.tco_ev, lr_2021)


# --- the snapshot builder ------------------------------------------------------

@pytest.mark.parametrize("name", [*config.BUILTIN_SCENARIOS, "without-optional-keys"])
def test_resolve_scenario_builds_what_the_generated_init_builds(name):
    """`cm.snapshot` fills a snapshot without VehicleScenario.__init__; every
    field equals, bit for bit, what the keyword call makes of the same values."""
    if name == "without-optional-keys":
        sched = battery_only_schedule()     # margins only, no battery replacements
        assert {"ev_price", "icev_price", "consumer_battery_replacements"}.isdisjoint(
            sched.tracks)
    else:
        sched = config.load_schedule(name)
    for year in range(sched.span[0], sched.span[1] + 1):
        built = tj.resolve_scenario(sched, year)
        assert snapshot_bits(built) == snapshot_bits(
            cm.VehicleScenario(year, **sched.values_at(year))), year


def test_a_built_snapshot_stays_frozen(lr_2021):
    with pytest.raises(dataclasses.FrozenInstanceError):
        lr_2021.battery_unit_cost = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cm.replace_field(lr_2021, "annual_km", 1.0).year = 2000


def test_a_built_snapshot_that_fails_a_check_names_the_file_and_year():
    sched = battery_only_schedule()
    tracks = {**sched.tracks, "annual_km": ([2010, 2030], [15000, -15000])}
    sched = dataclasses.replace(sched, tracks=tracks, source="lr.yaml")
    assert tj.resolve_scenario(sched, 2020).annual_km == 0
    with pytest.raises(tj.ScheduleError,
                       match=r"^lr\.yaml: year 2021: usage rates must be non-negative$"):
        tj.resolve_scenario(sched, 2021)


def test_snapshot_takes_exactly_the_snapshot_fields(lr_2021):
    values = dict(lr_2021.__dict__)
    assert cm.snapshot(values) == lr_2021
    del values["annual_km"]
    with pytest.raises(TypeError, match=r"missing \['annual_km'\], unknown \[\]"):
        cm.snapshot(values)
    with pytest.raises(TypeError, match=r"missing \[\], unknown \['nope'\]"):
        cm.snapshot({**lr_2021.__dict__, "nope": 1})


@pytest.mark.parametrize("digits", [4000, 5000])
def test_span_error_shows_a_long_span_year_cut_short(digits):
    """int-to-str converts at most 4,300 digits; a longer year shows as its bit length."""
    doc = {**battery_only_doc(), "span": [2010, 10 ** digits - 1]}
    sched = dataclasses.replace(tj.build_schedule(doc), source="wide.yaml")
    with pytest.raises(tj.SpanError) as raised:
        sched.values_at(2009)
    message = str(raised.value)
    assert message.startswith("wide.yaml: year 2009 outside schedule span 2010..")
    assert len(message) < 120
    assert ("..." in message) if digits < 4300 else message.endswith("-bit integer>")
