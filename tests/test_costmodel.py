import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import snapshot_bits

from greenpremium import costmodel as cm
from greenpremium.costmodel import VehicleKind

def scenario_2021(**overrides):
    """Hand-assembled 2021 snapshot; prices are derived only where a margin is set."""
    fields = dict(
        year=2021,
        battery_unit_cost=820, battery_capacity=75, motor_unit_cost=65, motor_power=200,
        other_hv_cost=6000, engine_intake_exhaust_cost=16000, transmission_cost=11000,
        purchase_tax_rate=0.10, ev_tax_exempt=True, acquisition_subsidy=18000,
        credit_price=2000, cafc_actual=6.49, cafc_threshold=6.38,
        nev_credits_actual=5.1, nev_credits_threshold=0.0,
        lifecycle_years=10, annual_km=15000, ev_consumption=13,
        icev_consumption=8.5, electricity_price=1.2, gasoline_price=7.5,
        ev_maintenance=2000, icev_maintenance=7000,
        ev_residual=35000, icev_residual=65000, discount_rate=0.05,
        ev_price=271302.5, icev_price=164997.0, common_base_cost=94500,
    )
    fields.update(overrides)
    return cm.VehicleScenario(**fields)


# Positional values of a group of keys, e.g. keys(POLICY, 0.10, True, ...).
POLICY = ("purchase_tax_rate ev_tax_exempt acquisition_subsidy credit_price cafc_actual "
          "cafc_threshold nev_credits_actual nev_credits_threshold")
USAGE = ("lifecycle_years annual_km ev_consumption icev_consumption electricity_price "
         "gasoline_price ev_maintenance icev_maintenance")
FINANCE = "ev_residual icev_residual discount_rate"


def keys(names, *values):
    return dict(zip(names.split(), values, strict=True))


def priced(sc, kind):
    """The `kind` premium of `sc`, priced from its stage costs."""
    return cm.premium(kind, *cm.stage_costs(sc, kind))


# --- production costs and premium ----------------------------------------

def test_production_cost_ev_powertrain_only():
    assert cm.production_cost_ev(scenario_2021(common_base_cost=0)) == 80_500  # 61500+13000+6000


def test_production_cost_ev_zero_case():
    sc = scenario_2021(battery_unit_cost=0, battery_capacity=1, motor_unit_cost=0,
                       motor_power=0, other_hv_cost=0, common_base_cost=0)
    assert cm.production_cost_ev(sc) == 0


def test_production_cost_ev_with_shared_base():
    assert cm.production_cost_ev(scenario_2021()) == 175_000


def test_production_cost_icev():
    assert cm.production_cost_icev(scenario_2021(common_base_cost=0)) == 27_000
    assert cm.production_cost_icev(scenario_2021()) == 121_500
    assert cm.production_cost_icev(scenario_2021(
        engine_intake_exhaust_cost=0, transmission_cost=0, common_base_cost=0)) == 0


def test_production_premium_2021_level():
    assert cm.premium("production", 175_000, 121_500) == pytest.approx(0.4403, abs=5e-4)


def test_production_premium_identity():
    assert cm.premium("production", 123_456.0, 123_456.0) == 0


def test_production_premium_powertrain_only_is_misleadingly_large():
    # without the shared base cost the gap triples, which is why the base
    # cost is part of the model
    assert cm.premium("production", 80_500, 27_000) == pytest.approx(1.9815, abs=5e-4)


@pytest.mark.parametrize("kind, message", [
    ("production", "production premium undefined for zero ICEV cost"),
    ("acquisition", "acquisition premium undefined: ICEV effective cost is zero"),
    ("lifecycle", "lifecycle premium undefined: ICEV TCO must be positive"),
], ids=["production", "acquisition", "lifecycle"])
def test_premium_zero_denominator(kind, message):
    for icev_cost in (0.0, -0.0, -1.0):
        with pytest.raises(cm.DomainError) as raised:
            cm.premium(kind, 1.0, icev_cost)
        assert str(raised.value) == message


@pytest.mark.parametrize("kind", ["tco", "", "Lifecycle"])
def test_unknown_premium_kind_is_refused_before_pricing(lr_2021, kind, monkeypatch):
    message = (f"unknown premium kind {kind!r}; expected one of "
               "('lifecycle', 'acquisition', 'production')")

    def priced(*args):
        raise AssertionError("a cost was priced")
    for name in ("tco_npv", "production_cost_ev", "effective_acquisition_cost"):
        monkeypatch.setattr(cm, name, priced)
    with pytest.raises(ValueError) as raised:
        cm.stage_costs(lr_2021, kind)
    assert type(raised.value) is ValueError and str(raised.value) == message
    for icev_cost in (1.0, 0.0):
        with pytest.raises(ValueError) as raised:
            cm.premium(kind, 1.0, icev_cost)
        assert type(raised.value) is ValueError and str(raised.value) == message


# --- subsidies and compliance ---------------------------------------------

def test_government_subsidy_max_credit_bev():
    sc = scenario_2021(**keys(POLICY, 0.10, True, 0, 2000, 6.49, 6.38, 5.1, 0), ev_price=176_000)
    assert cm.government_subsidy_ev(sc) == pytest.approx(27_800)


def test_government_subsidy_zero_policy():
    sc = scenario_2021(**keys(POLICY, 0.0, False, 0, 0, 0, 0, 0, 0), ev_price=200_000)
    assert cm.government_subsidy_ev(sc) == 0


def test_government_subsidy_without_exemption():
    sc = scenario_2021(**keys(POLICY, 0.10, False, 18_000, 1000, 6.49, 6.38, 1.6, 0),
                       ev_price=200_000)
    assert cm.government_subsidy_ev(sc) == pytest.approx(19_600)


def test_cafc_compliance_cost_small_shortfall():
    sc = scenario_2021(**keys(POLICY, 0.10, True, 0, 2000, 6.49, 6.38, 5.1, 0))
    assert cm.cafc_compliance_cost(sc) == pytest.approx(220.0)


def test_cafc_positive_balance_is_free():
    sc = scenario_2021(**keys(POLICY, 0.10, True, 0, 5000, 5.0, 6.0, 5.1, 0))
    assert cm.cafc_compliance_cost(sc) == 0


def test_cafc_large_shortfall():
    sc = scenario_2021(**keys(POLICY, 0.10, True, 0, 1000, 7.5, 4.0, 5.1, 0))
    assert cm.cafc_compliance_cost(sc) == pytest.approx(3_500)


# --- acquisition premium ---------------------------------------------------

def test_acquisition_premium_2021_calibrated():
    # independent arithmetic: EV 271302.5*0.9 - 10200 - 18000 = 215972.25;
    # ICEV 164997*1.1 + 220 = 181716.7
    sc = scenario_2021()
    expected = (215_972.25 - 181_716.7) / 181_716.7
    assert priced(sc, "acquisition") == pytest.approx(expected, rel=1e-12)
    assert priced(sc, "acquisition") == pytest.approx(0.18851, abs=1e-4)


def test_acquisition_premium_identical_prices_zero_policy():
    sc = scenario_2021(
        **keys(POLICY, 0, False, 0, 0, 0, 0, 0, 0),
        ev_price=150_000, icev_price=150_000, common_base_cost=94_500)
    assert priced(sc, "acquisition") == 0


def test_acquisition_premium_rises_when_support_ends():
    # same prices; 2022-style policy (exemption + cash subsidy) vs the
    # 2023-style policy (credits only)
    supported = scenario_2021(**keys(POLICY, 0.10, True, 12_600, 2000, 6.49, 6.38, 5.1, 0))
    withdrawn = scenario_2021(**keys(POLICY, 0.10, False, 0, 2000, 6.49, 6.38, 5.1, 0))
    assert priced(withdrawn, "acquisition") > priced(supported, "acquisition")


# --- operating cost ---------------------------------------------------------

def test_annual_operating_cost_ev():
    sc = scenario_2021()
    assert cm.annual_operating_cost(sc, VehicleKind.EV) == pytest.approx(4_340)


def test_annual_operating_cost_icev():
    sc = scenario_2021()
    assert cm.annual_operating_cost(sc, VehicleKind.ICEV) == pytest.approx(16_562.5)


def test_annual_operating_cost_zero():
    sc = scenario_2021(**keys(USAGE, 10, 0, 13, 8.5, 1.2, 7.5, 0, 0))
    assert cm.annual_operating_cost(sc, VehicleKind.EV) == 0
    assert cm.annual_operating_cost(sc, VehicleKind.ICEV) == 0


# --- TCO -------------------------------------------------------------------

def brute_force_tco(sc, kind):
    """Cash-flow table recomputed cell by cell, independent of tco_npv."""
    r = sc.discount_rate
    if kind is VehicleKind.EV:
        acquisition = sc.ev_price - cm.government_subsidy_ev(sc)
        fuel = sc.annual_km * sc.ev_consumption / 100 * sc.electricity_price
        maint = sc.ev_maintenance
        residual = sc.ev_residual
    else:
        acquisition = (sc.icev_price
                       + sc.purchase_tax_rate * sc.icev_price
                       + cm.cafc_compliance_cost(sc))
        fuel = sc.annual_km * sc.icev_consumption / 100 * sc.gasoline_price
        maint = sc.icev_maintenance
        residual = sc.icev_residual
    flows = [(t, fuel + maint) for t in range(1, sc.lifecycle_years + 1)]
    total = acquisition
    for t, amount in flows:
        total += amount / (1 + r) ** t
    total -= residual / (1 + r) ** sc.lifecycle_years
    return total


def test_tco_degenerate_discounting():
    sc = scenario_2021(
        **keys(USAGE, 1, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000),
        **keys(FINANCE, 0, 0, 0.0))
    expected_ev = (sc.ev_price
                   - cm.government_subsidy_ev(sc)
                   + 4_340)
    assert cm.tco_npv(sc, VehicleKind.EV) == pytest.approx(expected_ev, rel=1e-12)


def test_tco_icev_2021_matches_cash_flow_oracle():
    sc = scenario_2021()
    oracle = brute_force_tco(sc, VehicleKind.ICEV)
    assert cm.tco_npv(sc, VehicleKind.ICEV) == pytest.approx(oracle, rel=0.01)
    # the oracle is the same maths evaluated independently, so agreement is
    # actually much tighter than the 1% gate
    assert cm.tco_npv(sc, VehicleKind.ICEV) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("rate", [0.01, 0.05, 0.10])
def test_tco_oracle_sweep_over_discount_rates(rate):
    sc = scenario_2021(**keys(FINANCE, 35000, 65000, rate))
    for kind in (VehicleKind.EV, VehicleKind.ICEV):
        assert cm.tco_npv(sc, kind) == pytest.approx(
            brute_force_tco(sc, kind), rel=1e-9)


def test_tco_discounting_sanity_r_zero():
    sc = scenario_2021(**keys(FINANCE, 35000, 65000, 0.0))
    operating = cm.annual_operating_cost(sc, VehicleKind.ICEV)
    undiscounted = (cm.effective_acquisition_cost(sc, VehicleKind.ICEV)
                    + 10 * operating - 65000)
    assert cm.tco_npv(sc, VehicleKind.ICEV) == pytest.approx(undiscounted, rel=1e-12)


def test_tco_oracle_equivalence_long_lifecycles():
    for n in (1, 5, 17, 30):
        sc = scenario_2021(
            **keys(USAGE, n, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000))
        for kind in (VehicleKind.EV, VehicleKind.ICEV):
            assert cm.tco_npv(sc, kind) == pytest.approx(
                brute_force_tco(sc, kind), rel=1e-9)


# --- lifecycle premium and LCOD ---------------------------------------------

def test_lifecycle_premium_2021_calibrated(lr_2021):
    assert priced(lr_2021, "lifecycle") == pytest.approx(-0.1546, abs=1e-3)


def test_lifecycle_premium_equal_tcos():
    sc = scenario_2021(
        **keys(POLICY, 0, False, 0, 0, 0, 0, 0, 0),
        **keys(USAGE, 10, 15000, 13, 13, 1.2, 1.2, 4000, 4000),
        **keys(FINANCE, 50000, 50000, 0.05),
        ev_price=160_000, icev_price=160_000, common_base_cost=94_500)
    assert priced(sc, "lifecycle") == 0


def test_lifecycle_premium_2010_strongly_positive(long_range):
    from greenpremium import trajectory as tj
    sc = tj.resolve_scenario(long_range, 2010)
    assert priced(sc, "lifecycle") > 1.0


def test_lcod_simple_division():
    sc = scenario_2021()
    assert cm.lcod(270_000, sc) == pytest.approx(1.80)
    assert cm.lcod(0.0, sc) == 0


def test_lcod_2021_ev_long_range(lr_2021):
    value = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.EV), lr_2021)
    assert value == pytest.approx(1.52, abs=0.05)


def test_lcod_zero_km():
    sc = scenario_2021(**keys(USAGE, 10, 0, 13, 8.5, 1.2, 7.5, 2000, 7000))
    with pytest.raises(cm.DomainError):
        cm.lcod(100.0, sc)


def test_lifecycle_premium_equals_lcod_ratio(lr_2021):
    lcod_ev = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.EV), lr_2021)
    lcod_icev = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.ICEV), lr_2021)
    assert priced(lr_2021, "lifecycle") == pytest.approx(
        lcod_ev / lcod_icev - 1, abs=1e-12)


# --- invariants --------------------------------------------------------------

CURRENCY_SCALABLE = (
    "battery_unit_cost", "motor_unit_cost", "other_hv_cost",
    "engine_intake_exhaust_cost", "transmission_cost",
    "acquisition_subsidy", "credit_price",
    "electricity_price", "gasoline_price",
    "ev_maintenance", "icev_maintenance",
    "ev_residual", "icev_residual",
    "ev_price", "icev_price", "common_base_cost",
)


def scale_currency(sc, k):
    for name in CURRENCY_SCALABLE:
        sc = cm.replace_field(sc, name, getattr(sc, name) * k)
    return sc


@given(k=st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_currency_homogeneity(k):
    sc = scenario_2021()
    scaled = scale_currency(sc, k)
    assert cm.premium(
        "production", cm.production_cost_ev(scaled), cm.production_cost_icev(scaled),
    ) == pytest.approx(cm.premium(
        "production", cm.production_cost_ev(sc), cm.production_cost_icev(sc)), rel=1e-9)
    assert priced(scaled, "acquisition") == pytest.approx(
        priced(sc, "acquisition"), rel=1e-9)
    assert priced(scaled, "lifecycle") == pytest.approx(
        priced(sc, "lifecycle"), rel=1e-9)
    assert cm.tco_npv(scaled, VehicleKind.EV) == pytest.approx(
        k * cm.tco_npv(sc, VehicleKind.EV), rel=1e-9)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lcod_tco_consistency_random_scenarios(data):
    battery = data.draw(st.floats(200, 8000))
    gasoline = data.draw(st.floats(4.0, 12.0))
    margin = data.draw(st.floats(0.0, 1.0))
    sc = scenario_2021(ev_price_margin=margin, icev_price_margin=0.35)
    sc = cm.replace_field(sc, "battery_unit_cost", battery)
    sc = cm.replace_field(sc, "gasoline_price", gasoline)
    lcod_ratio = (cm.lcod(cm.tco_npv(sc, VehicleKind.EV), sc)
                  / cm.lcod(cm.tco_npv(sc, VehicleKind.ICEV), sc))
    assert priced(sc, "lifecycle") == pytest.approx(lcod_ratio - 1, abs=1e-12)


def derived_scenario(**overrides):
    sc = scenario_2021(ev_price_margin=0.5503, icev_price_margin=0.358)
    for name, value in overrides.items():
        sc = cm.replace_field(sc, name, value)
    return sc


def test_monotonic_in_battery_cost():
    cheap = derived_scenario(battery_unit_cost=600.0)
    dear = derived_scenario(battery_unit_cost=900.0)

    def dp1(s):
        return cm.premium("production", cm.production_cost_ev(s), cm.production_cost_icev(s))

    assert dp1(dear) > dp1(cheap)
    assert priced(dear, "lifecycle") > priced(cheap, "lifecycle")


def test_monotonic_in_gasoline_price():
    cheap_fuel = derived_scenario(gasoline_price=6.0)
    dear_fuel = derived_scenario(gasoline_price=9.0)
    assert priced(dear_fuel, "lifecycle") < priced(cheap_fuel, "lifecycle")


def test_monotonic_in_ev_residual():
    low = derived_scenario(ev_residual=30000.0)
    high = derived_scenario(ev_residual=40000.0)
    assert priced(high, "lifecycle") < priced(low, "lifecycle")


def test_policy_removal_never_lowers_acquisition_premium():
    subsidized = scenario_2021()
    stripped = scenario_2021(**keys(POLICY, 0.0, False, 0, 0, 0, 0, 0, 0))
    assert priced(stripped, "acquisition") >= priced(subsidized, "acquisition")


def test_consumer_battery_replacements_default_off():
    assert scenario_2021().consumer_battery_replacements == 0
    base = cm.tco_npv(scenario_2021(), VehicleKind.EV)
    explicit_off = cm.tco_npv(scenario_2021(consumer_battery_replacements=0),
                              VehicleKind.EV)
    assert base == explicit_off


def test_consumer_battery_replacements_add_discounted_pack_costs():
    sc = scenario_2021(consumer_battery_replacements=2)
    base = cm.tco_npv(scenario_2021(), VehicleKind.EV)
    pack = 820 * 75
    # two swaps over a 10-year life land at years 3 and 7
    expected_extra = pack / 1.05 ** 3 + pack / 1.05 ** 7
    assert cm.tco_npv(sc, VehicleKind.EV) == pytest.approx(
        base + expected_extra, rel=1e-12)
    assert cm.tco_npv(sc, VehicleKind.ICEV) == cm.tco_npv(
        scenario_2021(), VehicleKind.ICEV)


# --- validation ---------------------------------------------------------------

def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        scenario_2021(battery_capacity=0)               # zero capacity
    with pytest.raises(ValueError):
        scenario_2021(battery_unit_cost=-1)             # negative cost
    with pytest.raises(ValueError):
        scenario_2021(**keys(POLICY, 1.5, True, 0, 0, 0, 0, 0, 0))  # tax rate > 1
    with pytest.raises(ValueError):
        scenario_2021(**keys(USAGE, 0, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000))
    with pytest.raises(ValueError):
        scenario_2021(**keys(FINANCE, 35000, 65000, -1.0))
    with pytest.raises(ValueError):
        scenario_2021(ev_price=-1, icev_price=100, common_base_cost=100)


# --- the snapshot builder, bit for bit ----------------------------------------

def _sensitivity_paths():
    from greenpremium import sensitivity as sn
    paths = {}
    for factor in sn.default_factors():
        paths.setdefault(factor.accessor, set())
        if factor.base is not None:
            paths[factor.accessor].add(factor.base)
    return paths


@pytest.mark.parametrize("margins", [True, False], ids=["derived", "explicit"])
def test_replace_field_equals_dataclasses_replace_for_every_factor(long_range, margins):
    from greenpremium import trajectory as tj
    bases = ([tj.resolve_scenario(long_range, y) for y in (2010, 2015, 2021, 2030)]
             if margins else [scenario_2021(), scenario_2021(consumer_battery_replacements=2)])
    paths = _sensitivity_paths()
    paths.update({name: set() for name in CURRENCY_SCALABLE})
    for sc in bases:
        for name, rebases in paths.items():
            current = getattr(sc, name)
            for value in (*rebases, current, current * 0.8, current * 1.2, 0.0):
                if margins and name in ("ev_price", "icev_price"):
                    # dataclasses.replace would drop the value for the derived one
                    with pytest.raises(ValueError, match=f"from {name}_margin"):
                        cm.replace_field(sc, name, value)
                    continue
                got = cm.replace_field(sc, name, value)
                want = dataclasses.replace(sc, **{name: value})
                assert got == want
                assert snapshot_bits(got) == snapshot_bits(want), (name, value)


# (check group, field, value, message); a case's id names its group and field.
MEMBER_CHECKS = [
    ("ev", "battery_capacity", 0, "battery_capacity must be > 0"),
    ("usage", "annual_km", -1.0, "usage rates must be non-negative"),
    ("usage", "lifecycle_years", 0, "lifecycle_years"),
    ("policy", "purchase_tax_rate", 1.5, "purchase_tax_rate"),
    ("finance", "discount_rate", -1.0, "discount_rate"),
    ("prices", "common_base_cost", -1.0, "prices must be non-negative"),
    ("icev", "transmission_cost", -1.0, "ICEV powertrain costs"),
    ("policy", "credit_price", -1.0, "credit_price must be >= 0"),
    ("policy", "nev_credits_threshold", -1.0, "nev_credits_threshold must be >= 0"),
    ("usage", "icev_residual", -1.0, "residual values must be non-negative"),
]


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{group}.{name}-{value}-{message}")
    for group, name, value, message in MEMBER_CHECKS])
def test_replace_field_still_runs_member_checks(lr_2021, name, value, message):
    with pytest.raises(ValueError, match=message):
        cm.replace_field(lr_2021, name, value)


def test_replace_field_rejects_unknown_paths(lr_2021):
    with pytest.raises(TypeError, match="no field 'battery'"):
        cm.replace_field(lr_2021, "battery", 1.0)
    with pytest.raises(TypeError, match="no field 'no_such'"):
        cm.replace_field(lr_2021, "no_such", 1.0)


@pytest.mark.parametrize("name", ["year", "no_such", "ev.battery_unit_cost",
                                  "usage.annual_km", "__class__"])
def test_replace_field_takes_only_a_schedule_field(lr_2021, name):
    with pytest.raises(TypeError, match=f"no field {name!r}"):
        cm.replace_field(lr_2021, name, 1.0)


@pytest.mark.parametrize("name", ["ev_price", "icev_price"])
def test_replace_field_refuses_a_price_its_margin_derives(lr_2021, name):
    assert getattr(lr_2021, f"{name}_margin") is not None
    with pytest.raises(ValueError) as raised:
        cm.replace_field(lr_2021, name, 1.0)
    assert str(raised.value) == f"{name} is derived from {name}_margin; set the margin instead"
    explicit = scenario_2021()
    assert getattr(cm.replace_field(explicit, name, 1.0), name) == 1.0


def test_replace_field_top_level_margin_rederives_prices(lr_2021):
    moved = cm.replace_field(lr_2021, "ev_price_margin", 0.25)
    assert moved.ev_price == 1.25 * cm.production_cost_ev(moved)
    assert moved.icev_price == lr_2021.icev_price


# --- the inline checks and the discount table ----------------------------------

# Checks of several values at once, which reject what `min(values) >= 0` rejects.
MIN_CHECKS = {
    "EV powertrain costs": ("battery_unit_cost", "motor_unit_cost", "motor_power",
                            "other_hv_cost"),
    "usage rates": ("annual_km", "ev_consumption", "icev_consumption", "electricity_price",
                    "gasoline_price", "ev_maintenance", "icev_maintenance"),
    "prices": ("ev_price", "icev_price", "common_base_cost"),
}


@pytest.mark.parametrize("message, name", [
    (message, name) for message, names in MIN_CHECKS.items() for name in names])
@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0])
def test_multi_value_checks_reject_what_min_rejects(message, name, value):
    """A NaN fails in the first place and is passed over in any other, as min() has it."""
    values = {**scenario_2021().__dict__, name: value}
    rejected = not min(values[k] for k in MIN_CHECKS[message]) >= 0
    for build in (lambda: cm.VehicleScenario(**values), lambda: cm.snapshot(values)):
        if rejected:
            with pytest.raises(ValueError, match=f"^{message} must be non-negative$"):
                build()
        else:
            build()


def plain_tco(sc, kind):
    """tco_npv's sum, term by term in its order, with each power computed in place."""
    compound = 1.0 + sc.discount_rate
    n = sc.lifecycle_years
    operating = cm.annual_operating_cost(sc, kind)
    total = cm.effective_acquisition_cost(sc, kind)
    for t in range(1, n + 1):
        total += operating / compound ** t
    if kind is VehicleKind.EV:
        count = sc.consumer_battery_replacements
        for k in range(1, count + 1):
            total += (sc.battery_unit_cost * sc.battery_capacity
                      / compound ** max(1, round(k * n / (count + 1))))
    residual = sc.ev_residual if kind is VehicleKind.EV else sc.icev_residual
    return total - residual / compound ** n


@given(rate=st.floats(-0.5, 1.0), years=st.integers(1, 100), swaps=st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_tco_npv_equals_the_plain_loop_bit_for_bit(rate, years, swaps):
    sc = scenario_2021(discount_rate=rate, lifecycle_years=years,
                       consumer_battery_replacements=swaps)
    for kind in VehicleKind:
        assert cm.tco_npv(sc, kind).hex() == plain_tco(sc, kind).hex(), kind


def test_a_lifecycle_longer_than_a_schedule_allows_is_priced_but_not_cached():
    sc = scenario_2021(discount_rate=0.0625, lifecycle_years=150)
    cached = cm.discount_powers.cache_info()
    for kind in VehicleKind:
        assert cm.tco_npv(sc, kind).hex() == plain_tco(sc, kind).hex()
    assert cm.discount_powers.cache_info() == cached    # not looked up, not stored
