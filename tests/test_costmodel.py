import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpremium import costmodel as cm
from greenpremium.costmodel import VehicleKind

TABLE_EV = cm.EvPowertrain(battery_unit_cost=820, battery_capacity=75,
                           motor_unit_cost=65, motor_power=200, other_hv_cost=6000)
TABLE_ICEV = cm.IcevPowertrain(engine_intake_exhaust_cost=16000, transmission_cost=11000)


def scenario_2021(**overrides):
    """Hand-assembled 2021 snapshot; prices are derived only where a margin is set."""
    fields = dict(
        year=2021,
        ev=TABLE_EV,
        icev=TABLE_ICEV,
        policy=cm.SubsidyPolicy(
            purchase_tax_rate=0.10, ev_tax_exempt=True, acquisition_subsidy=18000,
            credit_price=2000, cafc_actual=6.49, cafc_threshold=6.38,
            nev_credits_actual=5.1, nev_credits_threshold=0.0),
        usage=cm.UsageProfile(
            lifecycle_years=10, annual_km=15000, ev_consumption=13,
            icev_consumption=8.5, electricity_price=1.2, gasoline_price=7.5,
            ev_maintenance=2000, icev_maintenance=7000),
        finance=cm.ResidualAndFinance(ev_residual=35000, icev_residual=65000,
                                      discount_rate=0.05),
        prices=cm.MarketPrices(ev_price=271302.5, icev_price=164997.0,
                               common_base_cost=94500),
    )
    fields.update(overrides)
    return cm.build_scenario(**fields)


# --- production costs and premium ----------------------------------------

def test_production_cost_ev_powertrain_only():
    assert cm.production_cost_ev(TABLE_EV, base=0) == 80_500  # 61500+13000+6000


def test_production_cost_ev_zero_case():
    pt = cm.EvPowertrain(0, 1, 0, 0, 0)
    assert cm.production_cost_ev(pt, base=0) == 0


def test_production_cost_ev_with_shared_base():
    assert cm.production_cost_ev(TABLE_EV, base=94_500) == 175_000


def test_production_cost_icev():
    assert cm.production_cost_icev(TABLE_ICEV, base=0) == 27_000
    assert cm.production_cost_icev(TABLE_ICEV, base=94_500) == 121_500
    assert cm.production_cost_icev(cm.IcevPowertrain(0, 0), base=0) == 0


def test_production_premium_2021_level():
    assert cm.production_premium(175_000, 121_500) == pytest.approx(0.4403, abs=5e-4)


def test_production_premium_identity():
    assert cm.production_premium(123_456.0, 123_456.0) == 0


def test_production_premium_powertrain_only_is_misleadingly_large():
    # without the shared base cost the gap triples, which is why the base
    # cost is part of the model
    assert cm.production_premium(80_500, 27_000) == pytest.approx(1.9815, abs=5e-4)


def test_production_premium_zero_denominator():
    with pytest.raises(cm.DomainError):
        cm.production_premium(1.0, 0.0)


# --- subsidies and compliance ---------------------------------------------

def test_government_subsidy_max_credit_bev():
    pol = cm.SubsidyPolicy(0.10, True, 0, 2000, 6.49, 6.38, 5.1, 0)
    assert cm.government_subsidy_ev(pol, ev_price=176_000) == pytest.approx(27_800)


def test_government_subsidy_zero_policy():
    pol = cm.SubsidyPolicy(0.0, False, 0, 0, 0, 0, 0, 0)
    assert cm.government_subsidy_ev(pol, ev_price=200_000) == 0


def test_government_subsidy_without_exemption():
    pol = cm.SubsidyPolicy(0.10, False, 18_000, 1000, 6.49, 6.38, 1.6, 0)
    assert cm.government_subsidy_ev(pol, ev_price=200_000) == pytest.approx(19_600)


def test_cafc_compliance_cost_small_shortfall():
    pol = cm.SubsidyPolicy(0.10, True, 0, 2000, 6.49, 6.38, 5.1, 0)
    assert cm.cafc_compliance_cost(pol) == pytest.approx(220.0)


def test_cafc_positive_balance_is_free():
    pol = cm.SubsidyPolicy(0.10, True, 0, 5000, 5.0, 6.0, 5.1, 0)
    assert cm.cafc_compliance_cost(pol) == 0


def test_cafc_large_shortfall():
    pol = cm.SubsidyPolicy(0.10, True, 0, 1000, 7.5, 4.0, 5.1, 0)
    assert cm.cafc_compliance_cost(pol) == pytest.approx(3_500)


# --- acquisition premium ---------------------------------------------------

def test_acquisition_premium_2021_calibrated():
    # independent arithmetic: EV 271302.5*0.9 - 10200 - 18000 = 215972.25;
    # ICEV 164997*1.1 + 220 = 181716.7
    sc = scenario_2021()
    expected = (215_972.25 - 181_716.7) / 181_716.7
    assert cm.acquisition_premium(sc) == pytest.approx(expected, rel=1e-12)
    assert cm.acquisition_premium(sc) == pytest.approx(0.18851, abs=1e-4)


def test_acquisition_premium_identical_prices_zero_policy():
    sc = scenario_2021(
        policy=cm.SubsidyPolicy(0, False, 0, 0, 0, 0, 0, 0),
        prices=cm.MarketPrices(150_000, 150_000, 94_500))
    assert cm.acquisition_premium(sc) == 0


def test_acquisition_premium_rises_when_support_ends():
    # same prices; 2022-style policy (exemption + cash subsidy) vs the
    # 2023-style policy (credits only)
    supported = scenario_2021(policy=cm.SubsidyPolicy(
        0.10, True, 12_600, 2000, 6.49, 6.38, 5.1, 0))
    withdrawn = scenario_2021(policy=cm.SubsidyPolicy(
        0.10, False, 0, 2000, 6.49, 6.38, 5.1, 0))
    assert cm.acquisition_premium(withdrawn) > cm.acquisition_premium(supported)


# --- operating cost ---------------------------------------------------------

def test_annual_operating_cost_ev():
    sc = scenario_2021()
    assert cm.annual_operating_cost(VehicleKind.EV, sc.usage) == pytest.approx(4_340)


def test_annual_operating_cost_icev():
    sc = scenario_2021()
    assert cm.annual_operating_cost(VehicleKind.ICEV, sc.usage) == pytest.approx(16_562.5)


def test_annual_operating_cost_zero():
    up = cm.UsageProfile(10, 0, 13, 8.5, 1.2, 7.5, 0, 0)
    assert cm.annual_operating_cost(VehicleKind.EV, up) == 0
    assert cm.annual_operating_cost(VehicleKind.ICEV, up) == 0


# --- TCO -------------------------------------------------------------------

def brute_force_tco(sc, kind):
    """Cash-flow table recomputed cell by cell, independent of tco_npv."""
    r = sc.finance.discount_rate
    if kind is VehicleKind.EV:
        acquisition = sc.prices.ev_price - cm.government_subsidy_ev(
            sc.policy, sc.prices.ev_price)
        fuel = sc.usage.annual_km * sc.usage.ev_consumption / 100 * sc.usage.electricity_price
        maint = sc.usage.ev_maintenance
        residual = sc.finance.ev_residual
    else:
        acquisition = (sc.prices.icev_price
                       + sc.policy.purchase_tax_rate * sc.prices.icev_price
                       + cm.cafc_compliance_cost(sc.policy))
        fuel = sc.usage.annual_km * sc.usage.icev_consumption / 100 * sc.usage.gasoline_price
        maint = sc.usage.icev_maintenance
        residual = sc.finance.icev_residual
    flows = [(t, fuel + maint) for t in range(1, sc.usage.lifecycle_years + 1)]
    total = acquisition
    for t, amount in flows:
        total += amount / (1 + r) ** t
    total -= residual / (1 + r) ** sc.usage.lifecycle_years
    return total


def test_tco_degenerate_discounting():
    sc = scenario_2021(
        usage=cm.UsageProfile(1, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000),
        finance=cm.ResidualAndFinance(0, 0, 0.0))
    expected_ev = (sc.prices.ev_price
                   - cm.government_subsidy_ev(sc.policy, sc.prices.ev_price)
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
    sc = scenario_2021(finance=cm.ResidualAndFinance(35000, 65000, rate))
    for kind in (VehicleKind.EV, VehicleKind.ICEV):
        assert cm.tco_npv(sc, kind) == pytest.approx(
            brute_force_tco(sc, kind), rel=1e-9)


def test_tco_discounting_sanity_r_zero():
    sc = scenario_2021(finance=cm.ResidualAndFinance(35000, 65000, 0.0))
    operating = cm.annual_operating_cost(VehicleKind.ICEV, sc.usage)
    undiscounted = (cm.effective_acquisition_cost(sc, VehicleKind.ICEV)
                    + 10 * operating - 65000)
    assert cm.tco_npv(sc, VehicleKind.ICEV) == pytest.approx(undiscounted, rel=1e-12)


def test_tco_oracle_equivalence_long_lifecycles():
    for n in (1, 5, 17, 30):
        sc = scenario_2021(
            usage=cm.UsageProfile(n, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000))
        for kind in (VehicleKind.EV, VehicleKind.ICEV):
            assert cm.tco_npv(sc, kind) == pytest.approx(
                brute_force_tco(sc, kind), rel=1e-9)


# --- lifecycle premium and LCOD ---------------------------------------------

def test_lifecycle_premium_2021_calibrated(lr_2021):
    assert cm.lifecycle_premium(lr_2021) == pytest.approx(-0.1546, abs=1e-3)


def test_lifecycle_premium_equal_tcos():
    sc = scenario_2021(
        policy=cm.SubsidyPolicy(0, False, 0, 0, 0, 0, 0, 0),
        usage=cm.UsageProfile(10, 15000, 13, 13, 1.2, 1.2, 4000, 4000),
        finance=cm.ResidualAndFinance(50000, 50000, 0.05),
        prices=cm.MarketPrices(160_000, 160_000, 94_500))
    assert cm.lifecycle_premium(sc) == 0


def test_lifecycle_premium_2010_strongly_positive(long_range):
    from greenpremium import trajectory as tj
    sc = tj.resolve_scenario(long_range, 2010)
    assert cm.lifecycle_premium(sc) > 1.0


def test_lcod_simple_division():
    up = scenario_2021().usage
    assert cm.lcod(270_000, up) == pytest.approx(1.80)
    assert cm.lcod(0.0, up) == 0


def test_lcod_2021_ev_long_range(lr_2021):
    value = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.EV), lr_2021.usage)
    assert value == pytest.approx(1.52, abs=0.05)


def test_lcod_zero_km():
    up = cm.UsageProfile(10, 0, 13, 8.5, 1.2, 7.5, 2000, 7000)
    with pytest.raises(cm.DomainError):
        cm.lcod(100.0, up)


def test_lifecycle_premium_equals_lcod_ratio(lr_2021):
    lcod_ev = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.EV), lr_2021.usage)
    lcod_icev = cm.lcod(cm.tco_npv(lr_2021, VehicleKind.ICEV), lr_2021.usage)
    assert cm.lifecycle_premium(lr_2021) == pytest.approx(
        lcod_ev / lcod_icev - 1, abs=1e-12)


# --- invariants --------------------------------------------------------------

CURRENCY_SCALABLE = (
    ("ev.battery_unit_cost",), ("ev.motor_unit_cost",), ("ev.other_hv_cost",),
    ("icev.engine_intake_exhaust_cost",), ("icev.transmission_cost",),
    ("policy.acquisition_subsidy",), ("policy.credit_price",),
    ("usage.electricity_price",), ("usage.gasoline_price",),
    ("usage.ev_maintenance",), ("usage.icev_maintenance",),
    ("finance.ev_residual",), ("finance.icev_residual",),
    ("prices.ev_price",), ("prices.icev_price",), ("prices.common_base_cost",),
)


def scale_currency(sc, k):
    for (path,) in CURRENCY_SCALABLE:
        sc = cm.replace_field(sc, path, cm.get_field(sc, path) * k)
    return sc


@given(k=st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_currency_homogeneity(k):
    sc = scenario_2021()
    scaled = scale_currency(sc, k)
    assert cm.production_premium(
        cm.production_cost_ev(scaled.ev, scaled.prices.common_base_cost),
        cm.production_cost_icev(scaled.icev, scaled.prices.common_base_cost),
    ) == pytest.approx(cm.production_premium(
        cm.production_cost_ev(sc.ev, sc.prices.common_base_cost),
        cm.production_cost_icev(sc.icev, sc.prices.common_base_cost)), rel=1e-9)
    assert cm.acquisition_premium(scaled) == pytest.approx(
        cm.acquisition_premium(sc), rel=1e-9)
    assert cm.lifecycle_premium(scaled) == pytest.approx(
        cm.lifecycle_premium(sc), rel=1e-9)
    assert cm.tco_npv(scaled, VehicleKind.EV) == pytest.approx(
        k * cm.tco_npv(sc, VehicleKind.EV), rel=1e-9)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lcod_tco_consistency_random_scenarios(data):
    battery = data.draw(st.floats(200, 8000))
    gasoline = data.draw(st.floats(4.0, 12.0))
    margin = data.draw(st.floats(0.0, 1.0))
    sc = scenario_2021(ev_price_margin=margin, icev_price_margin=0.35)
    sc = cm.replace_field(sc, "ev.battery_unit_cost", battery)
    sc = cm.replace_field(sc, "usage.gasoline_price", gasoline)
    lcod_ratio = (cm.lcod(cm.tco_npv(sc, VehicleKind.EV), sc.usage)
                  / cm.lcod(cm.tco_npv(sc, VehicleKind.ICEV), sc.usage))
    assert cm.lifecycle_premium(sc) == pytest.approx(lcod_ratio - 1, abs=1e-12)


def derived_scenario(**overrides):
    sc = scenario_2021(ev_price_margin=0.5503, icev_price_margin=0.358)
    for path, value in overrides.items():
        sc = cm.replace_field(sc, path.replace("__", "."), value)
    return sc


def test_monotonic_in_battery_cost():
    cheap = derived_scenario(ev__battery_unit_cost=600.0)
    dear = derived_scenario(ev__battery_unit_cost=900.0)

    def dp1(s):
        return cm.production_premium(
            cm.production_cost_ev(s.ev, s.prices.common_base_cost),
            cm.production_cost_icev(s.icev, s.prices.common_base_cost))

    assert dp1(dear) > dp1(cheap)
    assert cm.lifecycle_premium(dear) > cm.lifecycle_premium(cheap)


def test_monotonic_in_gasoline_price():
    cheap_fuel = derived_scenario(usage__gasoline_price=6.0)
    dear_fuel = derived_scenario(usage__gasoline_price=9.0)
    assert cm.lifecycle_premium(dear_fuel) < cm.lifecycle_premium(cheap_fuel)


def test_monotonic_in_ev_residual():
    low = derived_scenario(finance__ev_residual=30000.0)
    high = derived_scenario(finance__ev_residual=40000.0)
    assert cm.lifecycle_premium(high) < cm.lifecycle_premium(low)


def test_policy_removal_never_lowers_acquisition_premium():
    subsidized = scenario_2021()
    stripped = scenario_2021(policy=cm.SubsidyPolicy(0.0, False, 0, 0, 0, 0, 0, 0))
    assert cm.acquisition_premium(stripped) >= cm.acquisition_premium(subsidized)


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
        cm.EvPowertrain(820, 0, 65, 200, 6000)       # zero capacity
    with pytest.raises(ValueError):
        cm.EvPowertrain(-1, 75, 65, 200, 6000)       # negative cost
    with pytest.raises(ValueError):
        cm.SubsidyPolicy(1.5, True, 0, 0, 0, 0, 0, 0)  # tax rate > 1
    with pytest.raises(ValueError):
        cm.UsageProfile(0, 15000, 13, 8.5, 1.2, 7.5, 2000, 7000)
    with pytest.raises(ValueError):
        cm.ResidualAndFinance(35000, 65000, -1.0)
    with pytest.raises(ValueError):
        cm.MarketPrices(-1, 100, 100)


# --- the snapshot builder, bit for bit ----------------------------------------

def _derive_by_replace(sc):
    """Margin-linked prices re-derived through dataclasses.replace."""
    if sc.ev_price_margin is None and sc.icev_price_margin is None:
        return sc
    base = sc.prices.common_base_cost
    ev_price, icev_price = sc.prices.ev_price, sc.prices.icev_price
    if sc.ev_price_margin is not None:
        ev_price = (1.0 + sc.ev_price_margin) * cm.production_cost_ev(sc.ev, base)
    if sc.icev_price_margin is not None:
        icev_price = (1.0 + sc.icev_price_margin) * cm.production_cost_icev(sc.icev, base)
    return dataclasses.replace(sc, prices=cm.MarketPrices(ev_price, icev_price, base))


def _replace_by_replace(sc, path, value):
    """replace_field as it was: two dataclasses.replace calls, then derive."""
    head, leaf = path.split(".", 1)
    member = dataclasses.replace(getattr(sc, head), **{leaf: value})
    return _derive_by_replace(dataclasses.replace(sc, **{head: member}))


def _scenario_bits(sc):
    """Every leaf value with its type and exact text (repr round-trips floats)."""
    out = []
    for f in dataclasses.fields(sc):
        value = getattr(sc, f.name)
        if dataclasses.is_dataclass(value):
            out += [(f.name, g.name, type(getattr(value, g.name)), repr(getattr(value, g.name)))
                    for g in dataclasses.fields(value)]
        else:
            out.append((f.name, type(value), repr(value)))
    return out


def _sensitivity_paths():
    from greenpremium import sensitivity as sn
    paths = {}
    for factor in sn.default_factors():
        paths.setdefault(factor.accessor, set()).update(factor.rebase.values())
    return paths


@pytest.mark.parametrize("margins", [True, False], ids=["derived", "explicit"])
def test_replace_field_equals_dataclasses_replace_for_every_factor(long_range, margins):
    from greenpremium import trajectory as tj
    bases = ([tj.resolve_scenario(long_range, y) for y in (2010, 2015, 2021, 2030)]
             if margins else [scenario_2021(), scenario_2021(consumer_battery_replacements=2)])
    paths = _sensitivity_paths()
    paths.update({p: set() for (p,) in CURRENCY_SCALABLE})
    for sc in bases:
        for path, rebases in paths.items():
            current = cm.get_field(sc, path)
            for value in (*rebases, current, current * 0.8, current * 1.2, 0.0):
                got = cm.replace_field(sc, path, value)
                want = _replace_by_replace(sc, path, value)
                assert got == want
                assert _scenario_bits(got) == _scenario_bits(want), (path, value)


@pytest.mark.parametrize("path, value, message", [
    ("ev.battery_capacity", 0, "battery_capacity must be > 0"),
    ("usage.annual_km", -1.0, "usage rates must be non-negative"),
    ("usage.lifecycle_years", 0, "lifecycle_years"),
    ("policy.purchase_tax_rate", 1.5, "purchase_tax_rate"),
    ("finance.discount_rate", -1.0, "discount_rate"),
    ("prices.common_base_cost", -1.0, "prices must be non-negative"),
    ("icev.transmission_cost", -1.0, "ICEV powertrain costs"),
])
def test_replace_field_still_runs_member_checks(lr_2021, path, value, message):
    with pytest.raises(ValueError, match=message):
        cm.replace_field(lr_2021, path, value)


def test_replace_field_rejects_unknown_paths(lr_2021):
    with pytest.raises(TypeError, match="no field 'battery'"):
        cm.replace_field(lr_2021, "ev.battery", 1.0)
    with pytest.raises(TypeError, match="no field 'no_such'"):
        cm.replace_field(lr_2021, "no_such", 1.0)


def test_replace_field_top_level_margin_rederives_prices(lr_2021):
    moved = cm.replace_field(lr_2021, "ev_price_margin", 0.25)
    base = moved.prices.common_base_cost
    assert moved.prices.ev_price == 1.25 * cm.production_cost_ev(moved.ev, base)
    assert moved.prices.icev_price == lr_2021.prices.icev_price
