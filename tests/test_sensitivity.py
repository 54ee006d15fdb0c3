import re

import pytest

from greenpremium import config
from greenpremium import costmodel as cm
from greenpremium import sensitivity as sn
from greenpremium import trajectory as tj


def factor_by_id(fid):
    return next(f for f in sn.default_factors() if f.id == fid)


def rebased_point(base, factor):
    """The factor's re-based scenario and its lifecycle premium, as `perturb` takes them."""
    sc = base if factor.base is None else cm.replace_field(base, factor.accessor, factor.base)
    return sc, cm.premium("lifecycle", *cm.stage_costs(sc, "lifecycle"))


# --- perturb -----------------------------------------------------------------

def test_perturb_zero_pct_is_zero(lr_2021):
    factor = factor_by_id("subsidy")
    assert sn.perturb(*rebased_point(lr_2021, factor), factor, 0.0) == 0.0


def test_perturb_battery_800_plus_10pct(lr_2021):
    """Cross-check against a direct recomputation with the cost model."""
    rebased = cm.replace_field(lr_2021, "battery_unit_cost", 800.0)
    reference = cm.premium("lifecycle", *cm.stage_costs(rebased, "lifecycle"))
    moved = cm.premium("lifecycle", *cm.stage_costs(
        cm.replace_field(rebased, "battery_unit_cost", 880.0), "lifecycle"))
    expected = (moved - reference) / abs(reference)
    got = sn.perturb(rebased, reference, factor_by_id("battery_800"), 0.10)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.191, abs=0.005)


def test_perturb_subsidy_plus_20pct_sign(lr_2021):
    # more subsidy lowers the EV's effective cost, so the premium falls
    factor = factor_by_id("subsidy")
    assert sn.perturb(*rebased_point(lr_2021, factor), factor, 0.20) < 0


def test_perturb_degenerate_base_raises(lr_2021):
    # calibrate the gasoline price so both TCOs coincide: premium ~ 0
    factor = sn.FactorSpec("probe", "gasoline_price", "probe")
    ev_tco = cm.tco_npv(lr_2021, cm.VehicleKind.EV)
    lo, hi = 2.0, 8.0
    for _ in range(80):
        mid = (lo + hi) / 2
        sc = cm.replace_field(lr_2021, "gasoline_price", mid)
        if cm.tco_npv(sc, cm.VehicleKind.ICEV) > ev_tco:
            hi = mid
        else:
            lo = mid
    balanced = cm.replace_field(lr_2021, "gasoline_price", (lo + hi) / 2)
    assert abs(cm.premium("lifecycle", *cm.stage_costs(balanced, "lifecycle"))) < 1e-9
    rows, errors = sn.sensitivity_table(balanced, [factor])
    assert rows == []
    assert re.fullmatch(r"probe: base premium \S+ too small to normalise", errors["probe"])


# --- coefficient ----------------------------------------------------------------

def test_coefficient_is_origin_constrained_slope():
    # exact line through the origin with slope 1.8
    changes = [-0.36, -0.18, 0.18, 0.36]
    assert sn.coefficient(changes) == pytest.approx(1.8)


def test_coefficient_of_inert_factor_is_zero():
    assert sn.coefficient([0.0, 0.0, 0.0, 0.0]) == 0.0


def test_coefficient_needs_matching_points():
    with pytest.raises(ValueError):
        sn.coefficient([0.1, 0.2])


# --- table -----------------------------------------------------------------------

def test_single_factor_table(lr_2021):
    rows, errors = sn.sensitivity_table(lr_2021, [factor_by_id("oil_price")])
    assert len(rows) == 1 and not errors
    assert rows[0].factor == "oil_price"
    assert rows[0].coefficient < 0


def test_battery_scenarios_strictly_decreasing(lr_2021):
    rows, _ = sn.sensitivity_table(
        lr_2021, [factor_by_id(f) for f in ("battery_800", "battery_650", "battery_500")])
    coeffs = {r.factor: r.coefficient for r in rows}
    assert coeffs["battery_800"] > coeffs["battery_650"] > coeffs["battery_500"] > 0


def test_rows_grouped_then_sorted_by_magnitude(lr_2021):
    rows, _ = sn.sensitivity_table(lr_2021, sn.default_factors())
    group_order = ["Production", "Subsidy", "Cost", "Residual"]
    seen_groups = [r.group for r in rows]
    assert seen_groups == sorted(seen_groups, key=group_order.index)
    for group in group_order:
        values = [abs(r.coefficient) for r in rows if r.group == group]
        assert values == sorted(values, reverse=True)


def test_degenerate_rows_collected_not_fatal(lr_2021):
    # an extra factor evaluated at a near-parity fuel-consumption base whose
    # reference premium vanishes
    ev_tco = cm.tco_npv(lr_2021, cm.VehicleKind.EV)
    lo, hi = 2.0, 12.0
    for _ in range(80):
        mid = (lo + hi) / 2
        sc = cm.replace_field(lr_2021, "icev_consumption", mid)
        if cm.tco_npv(sc, cm.VehicleKind.ICEV) > ev_tco:
            hi = mid
        else:
            lo = mid
    degenerate = sn.FactorSpec("balanced_fc", "icev_consumption", "probe",
                               "Cost", base=(lo + hi) / 2)
    rows, errors = sn.sensitivity_table(
        lr_2021, [factor_by_id("oil_price"), degenerate])
    assert [r.factor for r in rows] == ["oil_price"]
    assert set(errors) == {"balanced_fc"}


# --- invariants ---------------------------------------------------------------------

NEAR_LINEAR = ("battery_800", "battery_650", "battery_500", "credit", "tax_rate",
               "subsidy", "elec_cost", "elec_price", "oil_price", "ev_residual")


@pytest.mark.parametrize("fid", NEAR_LINEAR)
def test_antisymmetry_for_near_linear_factors(lr_2021, fid):
    factor = factor_by_id(fid)
    plus = sn.perturb(*rebased_point(lr_2021, factor), factor, 0.10)
    minus = sn.perturb(*rebased_point(lr_2021, factor), factor, -0.10)
    magnitude = max(abs(plus), abs(minus))
    assert abs(plus + minus) <= 0.15 * magnitude


def test_sign_stable_across_magnitudes(lr_2021):
    rows, _ = sn.sensitivity_table(lr_2021, sn.default_factors())
    for row in rows:
        signs = {change > 0 for pct, change in zip(sn.PERTURBATIONS, row.changes)
                 if abs(change) > 1e-12 and pct > 0}
        assert len(signs) <= 1, row.factor


def test_battery_coefficient_shrinks_with_cheaper_base(lr_2021):
    """As the battery gets cheaper its share of total cost falls, and so
    does its influence on the premium."""
    coeffs = []
    for base_cost in (800.0, 650.0, 500.0):
        factor = sn.FactorSpec("probe", "battery_unit_cost", "probe",
                               "Production", base=base_cost)
        changes = [sn.perturb(*rebased_point(lr_2021, factor), factor, pct)
                   for pct in sn.PERTURBATIONS]
        coeffs.append(sn.coefficient(changes))
    assert coeffs[0] > coeffs[1] > coeffs[2]


def test_tax_rate_coefficient_negative_in_every_year(long_range, short_range):
    """The purchase tax is charged to the ICEV and, while the EV is exempt,
    credited to the EV; market prices do not depend on the rate. A higher
    rate therefore lowers E/I - 1 in every year, exempt or not, so the
    tax-rate coefficient can never be positive."""
    factor = factor_by_id("tax_rate")
    positive = []
    for name, schedule in (("long-range", long_range), ("short-range", short_range)):
        for year in range(2010, 2031):
            rows, errors = sn.sensitivity_table(
                tj.resolve_scenario(schedule, year), [factor])
            assert not errors, (name, year)
            if rows[0].coefficient >= 0:
                positive.append((name, year, rows[0].coefficient))
    assert positive == []


# --- one reference per factor, bit for bit ------------------------------------

class _Degenerate(ValueError):
    """The reference premium is too close to zero to normalise against."""


def _perturb_per_point(base, factor, pct, target):
    """perturb as it was: re-base and price the reference at every point.
    (replace_field itself is checked against dataclasses.replace in
    test_costmodel.)"""
    sc = base if factor.base is None else cm.replace_field(base, factor.accessor, factor.base)
    reference = cm.premium(target, *cm.stage_costs(sc, target))
    if abs(reference) < sn.DEGENERATE_BASE:
        raise _Degenerate(
            f"{factor.id}: base premium {reference:.2e} too small to normalise")
    value = getattr(sc, factor.accessor)
    moved = cm.replace_field(sc, factor.accessor, value * (1.0 + pct))
    return (cm.premium(target, *cm.stage_costs(moved, target)) - reference) / abs(reference)


SNAPSHOTS = [("long-range", 2021), ("short-range", 2021),
             ("long-range", 2015), ("short-range", 2015), ("long-range", 2030)]


@pytest.mark.parametrize("target", ["lifecycle", "acquisition", "production"])
@pytest.mark.parametrize("scenario, year", SNAPSHOTS)
def test_sensitivity_table_equals_per_point_transcription(scenario, year, target):
    base = tj.resolve_scenario(config.load_schedule(scenario), year)
    rows, errors = sn.sensitivity_table(base, sn.default_factors(), target)
    got = {r.factor: (r.changes, r.coefficient) for r in rows}
    for factor in sn.default_factors():
        try:
            changes = tuple(_perturb_per_point(base, factor, pct, target)
                            for pct in sn.PERTURBATIONS)
        except _Degenerate as exc:
            assert errors[factor.id] == str(exc)
            continue
        want = (changes, sn.coefficient(changes))
        assert repr(got[factor.id]) == repr(want), factor.id


def test_sensitivity_table_calls_perturb_once_per_point(lr_2021, monkeypatch):
    calls = []
    original = sn.perturb
    monkeypatch.setattr(sn, "perturb", lambda *a, **k: calls.append(a) or original(*a, **k))
    rows, errors = sn.sensitivity_table(lr_2021, sn.default_factors())
    assert len(calls) == len(sn.PERTURBATIONS) * len(rows) == 56


@pytest.mark.parametrize("kind", ["tco", "", "Lifecycle"])
def test_sensitivity_table_refuses_an_unknown_premium_kind(lr_2021, kind):
    message = (f"unknown premium kind {kind!r}; expected one of "
               "('lifecycle', 'acquisition', 'production')")
    with pytest.raises(ValueError, match=f": {re.escape(message)}$"):
        sn.sensitivity_table(lr_2021, sn.default_factors(), kind)
