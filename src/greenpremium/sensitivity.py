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

import math
from dataclasses import dataclass
from typing import Sequence

from . import costmodel as cm

PERTURBATIONS = (-0.20, -0.10, 0.10, 0.20)
DEGENERATE_BASE = 1e-9


@dataclass(frozen=True)
class FactorSpec:
    """One sensitivity row: which field moves, and from which base point."""

    id: str
    accessor: str                       # VehicleScenario field name
    base_label: str
    group: str = "Cost"
    base: float | None = None           # the field's re-based value, if any


@dataclass(frozen=True)
class SensitivityRow:
    factor: str
    group: str
    base_label: str
    changes: tuple[float, float, float, float]   # at -20%, -10%, +10%, +20%
    coefficient: float


def perturb(sc: cm.VehicleScenario, premium: float, factor: FactorSpec, pct: float,
            target: cm.PremiumKind = "lifecycle") -> float:
    """(premium(moved) - premium) / |premium| when the factor's field of `sc`, its
    re-based scenario whose `target` premium is `premium`, moves by `pct`."""
    value = getattr(sc, factor.accessor)
    moved = cm.replace_field(sc, factor.accessor, value * (1.0 + pct))
    return (cm.premium(target, *cm.stage_costs(moved, target)) - premium) / abs(premium)


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
    """Evaluate all factors: re-base each, price its reference premium once and
    `perturb` each point. A degenerate reference is collected in `errors`, not
    fatal; a point that cannot be priced, or is not finite, raises a ValueError
    naming the factor. Rows are grouped in the fixed order Production, Subsidy,
    Cost, Residual and sorted by |coefficient| within each group. Returns
    (rows, errors)."""
    rows: list[SensitivityRow] = []
    errors: dict[str, str] = {}
    for factor in factors:
        try:
            sc = base if factor.base is None else cm.replace_field(
                base, factor.accessor, factor.base)
            premium = cm.premium(target, *cm.stage_costs(sc, target))
            if abs(premium) < DEGENERATE_BASE:
                errors[factor.id] = (f"{factor.id}: base premium {premium:.2e} "
                                     "too small to normalise")
                continue
            changes = tuple(perturb(sc, premium, factor, pct, target) for pct in PERTURBATIONS)
        except ValueError as exc:
            raise ValueError(f"{factor.id}: {exc}") from exc
        slope = coefficient(changes)
        if not all(map(math.isfinite, (*changes, slope))):
            raise ValueError(f"{factor.id}: a perturbed {target} premium is not finite")
        rows.append(SensitivityRow(
            factor=factor.id, group=factor.group, base_label=factor.base_label,
            changes=changes, coefficient=slope))
    group_order = {g: i for i, g in enumerate(("Production", "Subsidy", "Cost", "Residual"))}
    rows.sort(key=lambda r: (group_order.get(r.group, len(group_order)),
                             -abs(r.coefficient)))
    return rows, errors


# The shipped factors, built once; FactorSpec is frozen, so callers may share them.
_DEFAULT_FACTORS = (
    FactorSpec("battery_800", "battery_unit_cost", "Battery (800)", "Production", base=800.0),
    FactorSpec("battery_650", "battery_unit_cost", "Battery (650)", "Production", base=650.0),
    FactorSpec("battery_500", "battery_unit_cost", "Battery (500)", "Production", base=500.0),
    FactorSpec("credit", "credit_price", "Credit", "Subsidy"),
    FactorSpec("tax_rate", "purchase_tax_rate", "Tax Rate (10%)", "Subsidy"),
    FactorSpec("subsidy", "acquisition_subsidy", "Subsidy", "Subsidy"),
    FactorSpec("oil_cost_6l", "icev_consumption", "Oil Cost (6L)", "Cost", base=6.0),
    FactorSpec("oil_cost_4l", "icev_consumption", "Oil Cost (4L)", "Cost", base=4.0),
    FactorSpec("elec_cost", "ev_consumption", "Elec Cost (13kWh)", "Cost"),
    FactorSpec("annual_range", "annual_km", "Range (15000)", "Cost"),
    FactorSpec("elec_price", "electricity_price", "Elec Price (1.2)", "Cost"),
    FactorSpec("oil_price", "gasoline_price", "Oil Price (7.5)", "Cost"),
    FactorSpec("ev_residual", "ev_residual", "EV Residual", "Residual"),
    FactorSpec("discount_rate", "discount_rate", "Discount Rate", "Residual"),
)


def default_factors() -> tuple[FactorSpec, ...]:
    """The shipped factor set: battery-cost tiers, policy levers, running
    costs (fuel consumption evaluated at 6 and 4 L/100km baselines), and
    residual/financing terms."""
    return _DEFAULT_FACTORS
