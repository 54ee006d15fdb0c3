"""One-at-a-time sensitivity of the lifecycle cost gap.

Each factor perturbs a single scenario field by -20/-10/+10/+20 percent and
records the relative change of the lifecycle premium, normalised by the
absolute base premium. A factor may first re-base a field (e.g. evaluate the
fuel-consumption factor at a 6 L/100km baseline); the row's own re-based
scenario is then the reference point. The summary coefficient is the slope
of premium change versus factor change, fitted through the origin by least
squares over the four points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import costmodel as cm

PERTURBATIONS = (-0.20, -0.10, 0.10, 0.20)
DEGENERATE_BASE = 1e-9


class DegenerateBaseError(ValueError):
    """The base premium is too close to zero to normalise against."""


@dataclass(frozen=True)
class FactorSpec:
    """One sensitivity row: which field moves, and from which base point."""

    id: str
    accessor: str                       # dotted VehicleScenario field path
    base_label: str
    group: str = "Cost"
    rebase: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SensitivityRow:
    factor: str
    group: str
    base_label: str
    changes: tuple[float, float, float, float]   # at -20%, -10%, +10%, +20%
    coefficient: float


def _premium(sc: cm.VehicleScenario, target: cm.PremiumKind) -> float:
    if target == "production":
        return cm.production_premium(
            cm.production_cost_ev(sc.ev, sc.prices.common_base_cost),
            cm.production_cost_icev(sc.icev, sc.prices.common_base_cost))
    if target == "acquisition":
        return cm.acquisition_premium(sc)
    return cm.lifecycle_premium(sc)


def reference_point(base: cm.VehicleScenario, factor: FactorSpec,
                    target: cm.PremiumKind = "lifecycle") -> tuple[cm.VehicleScenario, float]:
    """The factor's re-based scenario and its premium, which `perturb` normalises by.

    Raises DegenerateBaseError when that premium is too close to zero.
    """
    sc = base
    for path, value in factor.rebase.items():
        sc = cm.replace_field(sc, path, value)
    reference = _premium(sc, target)
    if abs(reference) < DEGENERATE_BASE:
        raise DegenerateBaseError(
            f"{factor.id}: base premium {reference:.2e} too small to normalise")
    return sc, reference


def perturb(base: cm.VehicleScenario, factor: FactorSpec, pct: float,
            target: cm.PremiumKind = "lifecycle",
            reference: tuple[cm.VehicleScenario, float] | None = None) -> float:
    """Relative premium change when the factor's field moves by `pct`.

    Returns (premium(perturbed) - premium(base)) / |premium(base)| with the
    factor's re-based scenario as the reference. `reference`, when given, is
    `reference_point(base, factor, target)` computed once by the caller, so
    that several points of one factor share it; the result is the same.
    """
    sc, premium = reference_point(base, factor, target) if reference is None else reference
    value = cm.get_field(sc, factor.accessor)
    moved = _premium(cm.replace_field(sc, factor.accessor, value * (1.0 + pct)), target)
    return (moved - premium) / abs(premium)


def coefficient(changes: Sequence[float]) -> float:
    """Origin-constrained least-squares slope of change vs perturbation."""
    if len(changes) != len(PERTURBATIONS):
        raise ValueError(f"need one change per perturbation {PERTURBATIONS}")
    sxy = sum(x * y for x, y in zip(PERTURBATIONS, changes))
    sxx = sum(x * x for x in PERTURBATIONS)
    return sxy / sxx


def sensitivity_table(base: cm.VehicleScenario, factors: Sequence[FactorSpec],
                      target: cm.PremiumKind = "lifecycle",
                      ) -> tuple[list[SensitivityRow], dict[str, str]]:
    """Evaluate all factors; degenerate bases are collected, not fatal.

    Rows are grouped in the fixed order Production, Subsidy, Cost, Residual
    and sorted by |coefficient| within each group. Returns (rows, errors).
    """
    rows: list[SensitivityRow] = []
    errors: dict[str, str] = {}
    for factor in factors:
        try:
            reference = reference_point(base, factor, target)
        except DegenerateBaseError as exc:
            errors[factor.id] = str(exc)
            continue
        changes = tuple(perturb(base, factor, pct, target, reference)
                        for pct in PERTURBATIONS)
        rows.append(SensitivityRow(
            factor=factor.id, group=factor.group, base_label=factor.base_label,
            changes=changes, coefficient=coefficient(changes)))
    group_order = {g: i for i, g in enumerate(("Production", "Subsidy", "Cost", "Residual"))}
    rows.sort(key=lambda r: (group_order.get(r.group, len(group_order)),
                             -abs(r.coefficient)))
    return rows, errors


def default_factors() -> tuple[FactorSpec, ...]:
    """The shipped factor set: battery-cost tiers, policy levers, running
    costs (fuel consumption evaluated at 6 and 4 L/100km baselines), and
    residual/financing terms."""
    return (
        FactorSpec("battery_800", "ev.battery_unit_cost", "Battery (800)",
                   "Production", rebase={"ev.battery_unit_cost": 800.0}),
        FactorSpec("battery_650", "ev.battery_unit_cost", "Battery (650)",
                   "Production", rebase={"ev.battery_unit_cost": 650.0}),
        FactorSpec("battery_500", "ev.battery_unit_cost", "Battery (500)",
                   "Production", rebase={"ev.battery_unit_cost": 500.0}),
        FactorSpec("credit", "policy.credit_price", "Credit", "Subsidy"),
        FactorSpec("tax_rate", "policy.purchase_tax_rate", "Tax Rate (10%)", "Subsidy"),
        FactorSpec("subsidy", "policy.acquisition_subsidy", "Subsidy", "Subsidy"),
        FactorSpec("oil_cost_6l", "usage.icev_consumption", "Oil Cost (6L)",
                   "Cost", rebase={"usage.icev_consumption": 6.0}),
        FactorSpec("oil_cost_4l", "usage.icev_consumption", "Oil Cost (4L)",
                   "Cost", rebase={"usage.icev_consumption": 4.0}),
        FactorSpec("elec_cost", "usage.ev_consumption", "Elec Cost (13kWh)", "Cost"),
        FactorSpec("annual_range", "usage.annual_km", "Range (15000)", "Cost"),
        FactorSpec("elec_price", "usage.electricity_price", "Elec Price (1.2)", "Cost"),
        FactorSpec("oil_price", "usage.gasoline_price", "Oil Price (7.5)", "Cost"),
        FactorSpec("ev_residual", "finance.ev_residual", "EV Residual", "Residual"),
        FactorSpec("discount_rate", "finance.discount_rate", "Discount Rate", "Residual"),
    )
