"""Vehicle cost economics for a single (year, EV/ICEV pair) snapshot.

All functions here are pure: they take one immutable model-year snapshot,
`VehicleScenario`, and return floats. Currency is an abstract decimal count of RMB; rates are fractions.
Consumption intensities are per-100km, so fuel terms divide by 100.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Literal, Mapping, get_args

# The green premium's three stages, in the order `parity` reports them.
PremiumKind = Literal["lifecycle", "acquisition", "production"]
PREMIUM_KINDS: tuple[PremiumKind, ...] = get_args(PremiumKind)


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its mathematical domain."""


class VehicleKind(str, Enum):
    EV = "ev"
    ICEV = "icev"


@dataclass(frozen=True)
class VehicleScenario:
    """Everything needed to evaluate one model year: `year`, then the schedule keys.

    EV powertrain: battery_unit_cost in RMB per kWh of pack capacity,
    battery_capacity in kWh, motor_unit_cost in RMB per kW of motor power
    (motor + inverter), motor_power in kW, other_hv_cost in RMB for the
    remaining high-voltage components.

    ICEV powertrain: engine/intake/exhaust and transmission costs, RMB.

    Purchase-stage policy: purchase_tax_rate is a fraction of the pre-tax
    price, charged to the ICEV and credited to the EV while ev_tax_exempt is
    set; acquisition_subsidy is RMB paid per EV at purchase; credit_price is
    RMB per tradable credit. cafc_actual/threshold are fleet fuel consumption
    in L/100km; a shortfall against the threshold is a compliance cost on the
    ICEV side. nev_credits_actual/threshold are per-EV credits; the excess is
    sold at credit_price.

    Ownership, shared by both vehicles: consumption is kWh/100km (EV) and
    L/100km (ICEV), prices RMB/kWh and RMB/L, maintenance RMB/year. The
    residual values are RMB at end of life; discount_rate discounts to NPV.

    common_base_cost is the body/chassis/electronics cost common to both
    vehicles; powertrain-only comparisons wildly overstate the production
    gap, so total production cost is common_base_cost + powertrain. The
    market prices are pre-tax; when ev_price_margin / icev_price_margin is
    set, that price is derived as (1 + margin) * production cost.

    consumer_battery_replacements shifts mid-life pack replacements onto
    the buyer (manufacturers carry them under warranty by default, so 0).
    """

    year: int
    battery_unit_cost: float
    battery_capacity: float
    motor_unit_cost: float
    motor_power: float
    other_hv_cost: float
    engine_intake_exhaust_cost: float
    transmission_cost: float
    purchase_tax_rate: float
    ev_tax_exempt: bool
    acquisition_subsidy: float
    credit_price: float
    cafc_actual: float
    cafc_threshold: float
    nev_credits_actual: float
    nev_credits_threshold: float
    lifecycle_years: int
    annual_km: float
    ev_consumption: float
    icev_consumption: float
    electricity_price: float
    gasoline_price: float
    ev_maintenance: float
    icev_maintenance: float
    ev_residual: float
    icev_residual: float
    discount_rate: float
    common_base_cost: float
    ev_price: float = 0.0
    ev_price_margin: float | None = None
    icev_price: float = 0.0
    icev_price_margin: float | None = None
    consumer_battery_replacements: int = 0

    def __post_init__(self) -> None:
        # `not a >= 0 or b < 0 or ...` rejects what `not min(a, b, ...) >= 0`
        # does: a NaN fails in the first place and is passed over in any other.
        if (not self.battery_unit_cost >= 0 or self.motor_unit_cost < 0
                or self.motor_power < 0 or self.other_hv_cost < 0):
            raise ValueError("EV powertrain costs must be non-negative")
        if not self.battery_capacity > 0:
            raise ValueError("battery_capacity must be > 0")
        if not (self.engine_intake_exhaust_cost >= 0 and self.transmission_cost >= 0):
            raise ValueError("ICEV powertrain costs must be non-negative")
        if not 0.0 <= self.purchase_tax_rate <= 1.0:
            raise ValueError("purchase_tax_rate must be in [0, 1]")
        if not self.credit_price >= 0:
            raise ValueError("credit_price must be >= 0")
        if not self.nev_credits_threshold >= 0:
            raise ValueError("nev_credits_threshold must be >= 0")
        if not (isinstance(self.lifecycle_years, int) and self.lifecycle_years >= 1):
            raise ValueError("lifecycle_years must be an integer >= 1")
        if (not self.annual_km >= 0 or self.ev_consumption < 0 or self.icev_consumption < 0
                or self.electricity_price < 0 or self.gasoline_price < 0
                or self.ev_maintenance < 0 or self.icev_maintenance < 0):
            raise ValueError("usage rates must be non-negative")
        if not self.discount_rate > -1.0:
            raise ValueError("discount_rate must be > -1")
        if not (self.ev_residual >= 0 and self.icev_residual >= 0):
            raise ValueError("residual values must be non-negative")
        if self.ev_price_margin is not None:
            object.__setattr__(self, "ev_price",
                               (1.0 + self.ev_price_margin) * production_cost_ev(self))
        if self.icev_price_margin is not None:
            object.__setattr__(self, "icev_price",
                               (1.0 + self.icev_price_margin) * production_cost_icev(self))
        if not self.ev_price >= 0 or self.icev_price < 0 or self.common_base_cost < 0:
            raise ValueError("prices must be non-negative")


# Each field in order, with its default or MISSING. A snapshot's __dict__ is
# built in this order, the one the generated __init__ sets, which keeps
# attribute lookups on the fast path.
_TEMPLATE = {f.name: f.default for f in fields(VehicleScenario)}
_REQUIRED = frozenset(name for name, default in _TEMPLATE.items() if default is MISSING)


def snapshot(values: Mapping[str, object]) -> VehicleScenario:
    """The VehicleScenario `VehicleScenario(**values)` makes, built without the
    generated 34-argument __init__: the defaults, then `values`, fill a new
    instance's __dict__, and __post_init__ checks it and derives margin-set
    prices. `values` names `year` and every field without a default."""
    full = {**_TEMPLATE, **values}
    if len(full) != len(_TEMPLATE) or not values.keys() >= _REQUIRED:
        raise TypeError(f"VehicleScenario fields missing {sorted(_REQUIRED - values.keys())}, "
                        f"unknown {sorted(full.keys() - _TEMPLATE.keys(), key=repr)}")
    sc = object.__new__(VehicleScenario)
    object.__setattr__(sc, "__dict__", full)
    sc.__post_init__()
    return sc


def replace_field(sc: VehicleScenario, name: str, value) -> VehicleScenario:
    """A copy of `sc` with schedule field `name` set to `value`, as
    `dataclasses.replace` makes it: the checks run again and margin-set
    prices are derived again. `year` is not a schedule field, and a price
    that its margin derives cannot be set: a ValueError names the margin."""
    values = sc.__dict__.copy()
    if name == "year" or name not in values:
        raise TypeError(f"VehicleScenario has no field {name!r} among the schedule keys")
    if name in ("ev_price", "icev_price") and values[f"{name}_margin"] is not None:
        raise ValueError(f"{name} is derived from {name}_margin; set the margin instead")
    values[name] = value
    return snapshot(values)


# --- production stage ---------------------------------------------------

def production_cost_ev(sc: VehicleScenario) -> float:
    """Total EV production cost: shared base + battery + motor + other HV."""
    return (sc.common_base_cost
            + sc.battery_unit_cost * sc.battery_capacity
            + sc.motor_unit_cost * sc.motor_power
            + sc.other_hv_cost)


def production_cost_icev(sc: VehicleScenario) -> float:
    """Total ICEV production cost: shared base + engine system + transmission."""
    return sc.common_base_cost + sc.engine_intake_exhaust_cost + sc.transmission_cost


# --- acquisition stage --------------------------------------------------

def government_subsidy_ev(sc: VehicleScenario) -> float:
    """Per-EV policy support: credit revenue + tax exemption + cash subsidy."""
    credit_revenue = (sc.nev_credits_actual - sc.nev_credits_threshold) * sc.credit_price
    tax_exemption = sc.purchase_tax_rate * sc.ev_price if sc.ev_tax_exempt else 0.0
    return credit_revenue + tax_exemption + sc.acquisition_subsidy


def cafc_compliance_cost(sc: VehicleScenario) -> float:
    """Cost of a negative fleet fuel-consumption balance, borne by the ICEV.

    Positive balances are non-tradable and contribute zero.
    """
    shortfall = sc.cafc_actual - sc.cafc_threshold
    return max(0.0, shortfall) * sc.credit_price


def effective_acquisition_cost(sc: VehicleScenario, kind: VehicleKind) -> float:
    """Out-of-pocket purchase cost after policy transfers."""
    if kind is VehicleKind.EV:
        return sc.ev_price - government_subsidy_ev(sc)
    return sc.icev_price + cafc_compliance_cost(sc) + sc.purchase_tax_rate * sc.icev_price


# --- ownership stage ----------------------------------------------------

def annual_operating_cost(sc: VehicleScenario, kind: VehicleKind) -> float:
    """Yearly fuel/energy plus maintenance spend."""
    if kind is VehicleKind.EV:
        return sc.annual_km * sc.ev_consumption / 100.0 * sc.electricity_price + sc.ev_maintenance
    return sc.annual_km * sc.icev_consumption / 100.0 * sc.gasoline_price + sc.icev_maintenance


def tco_npv(sc: VehicleScenario, kind: VehicleKind) -> float:
    """Net present value, at purchase, of owning the vehicle for its lifecycle.

    Effective acquisition cost, plus discounted operating costs, minus the
    discounted residual value. Consumer-borne battery replacements, when
    enabled, are priced at the current pack cost and spread evenly over the
    ownership period.
    """
    compound = 1.0 + sc.discount_rate
    n = sc.lifecycle_years
    # a lifecycle longer than a schedule allows (100 years) is not cached
    powers = (discount_powers if n <= 100 else discount_powers.__wrapped__)(compound, n)
    operating = annual_operating_cost(sc, kind)
    residual = sc.ev_residual if kind is VehicleKind.EV else sc.icev_residual
    total = effective_acquisition_cost(sc, kind)
    for power in powers:
        total += operating / power
    if kind is VehicleKind.EV and sc.consumer_battery_replacements > 0:
        count = sc.consumer_battery_replacements
        pack_cost = sc.battery_unit_cost * sc.battery_capacity
        for k in range(1, count + 1):
            event_year = max(1, round(k * n / (count + 1)))
            total += pack_cost / powers[event_year - 1]
    total -= residual / powers[-1]
    return total


@functools.lru_cache(maxsize=64)
def discount_powers(compound: float, years: int) -> tuple[float, ...]:
    """(compound ** 1, ..., compound ** years), the divisors `tco_npv` discounts
    year t by; most snapshots of a run share their rate and lifecycle."""
    return tuple([compound ** t for t in range(1, years + 1)])


def lcod(tco: float, sc: VehicleScenario) -> float:
    """Levelized cost of driving: lifetime cost per lifetime kilometre."""
    lifetime_km = sc.annual_km * sc.lifecycle_years
    if lifetime_km == 0:
        raise DomainError("LCOD undefined for zero lifetime distance")
    return tco / lifetime_km


# --- the green premium, at every stage ------------------------------------

# Why each premium is undefined: the ICEV cost it divides by is not positive.
_UNDEFINED: dict[PremiumKind, str] = {
    "production": "production premium undefined for zero ICEV cost",
    "acquisition": "acquisition premium undefined: ICEV effective cost is zero",
    "lifecycle": "lifecycle premium undefined: ICEV TCO must be positive",
}
_UNKNOWN_KIND = "unknown premium kind {!r}; expected one of " + str(PREMIUM_KINDS)


def stage_costs(sc: VehicleScenario, kind: PremiumKind) -> tuple[float, float]:
    """The (EV, ICEV) costs the `kind` premium compares: production costs,
    effective acquisition costs or lifecycle TCOs."""
    if kind == "production":
        return production_cost_ev(sc), production_cost_icev(sc)
    if kind == "acquisition":
        return (effective_acquisition_cost(sc, VehicleKind.EV),
                effective_acquisition_cost(sc, VehicleKind.ICEV))
    if kind == "lifecycle":
        return tco_npv(sc, VehicleKind.EV), tco_npv(sc, VehicleKind.ICEV)
    raise ValueError(_UNKNOWN_KIND.format(kind))


def premium(kind: PremiumKind, ev_cost: float, icev_cost: float) -> float:
    """The `kind` green premium, the relative cost gap (EV - ICEV) / ICEV."""
    if kind not in PREMIUM_KINDS:
        raise ValueError(_UNKNOWN_KIND.format(kind))
    if icev_cost <= 0:
        raise DomainError(_UNDEFINED[kind])
    return (ev_cost - icev_cost) / icev_cost
