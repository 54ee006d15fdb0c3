"""Vehicle cost economics for a single (year, EV/ICEV pair) snapshot.

All functions here are pure: they take immutable value objects and return
floats. Currency is an abstract decimal count of RMB; rates are fractions.
Consumption intensities are per-100km, so fuel terms divide by 100.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its mathematical domain."""


class VehicleKind(str, Enum):
    EV = "ev"
    ICEV = "icev"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class EvPowertrain:
    """EV drive-system bill of materials.

    battery_unit_cost: RMB per kWh of pack capacity
    battery_capacity:  kWh
    motor_unit_cost:   RMB per kW of motor power (motor + inverter)
    motor_power:       kW
    other_hv_cost:     RMB, remaining high-voltage components
    """

    battery_unit_cost: float
    battery_capacity: float
    motor_unit_cost: float
    motor_power: float
    other_hv_cost: float

    def __post_init__(self) -> None:
        _require(min(self.battery_unit_cost, self.motor_unit_cost,
                     self.motor_power, self.other_hv_cost) >= 0,
                 "EV powertrain costs must be non-negative")
        _require(self.battery_capacity > 0, "battery_capacity must be > 0")


@dataclass(frozen=True)
class IcevPowertrain:
    """ICEV drive-system bill of materials (engine/intake/exhaust + transmission)."""

    engine_intake_exhaust_cost: float
    transmission_cost: float

    def __post_init__(self) -> None:
        _require(self.engine_intake_exhaust_cost >= 0 and self.transmission_cost >= 0,
                 "ICEV powertrain costs must be non-negative")


@dataclass(frozen=True)
class SubsidyPolicy:
    """Purchase-stage policy levers.

    purchase_tax_rate:      fraction of pre-tax price, charged to the ICEV;
                            credited to the EV while ev_tax_exempt is set
    acquisition_subsidy:    RMB paid per EV at purchase
    credit_price:           RMB per tradable credit
    cafc_actual/threshold:  fleet fuel consumption, L/100km; a shortfall against
                            the threshold is a compliance cost on the ICEV side
    nev_credits_actual/threshold: per-EV credits; the excess is sold at credit_price
    """

    purchase_tax_rate: float
    ev_tax_exempt: bool
    acquisition_subsidy: float
    credit_price: float
    cafc_actual: float
    cafc_threshold: float
    nev_credits_actual: float
    nev_credits_threshold: float

    def __post_init__(self) -> None:
        _require(0.0 <= self.purchase_tax_rate <= 1.0,
                 "purchase_tax_rate must be in [0, 1]")
        _require(self.credit_price >= 0, "credit_price must be >= 0")
        _require(self.nev_credits_threshold >= 0,
                 "nev_credits_threshold must be >= 0")


@dataclass(frozen=True)
class UsageProfile:
    """Ownership-phase assumptions shared by both vehicles."""

    lifecycle_years: int
    annual_km: float
    ev_consumption: float      # kWh/100km
    icev_consumption: float    # L/100km
    electricity_price: float   # RMB/kWh
    gasoline_price: float      # RMB/L
    ev_maintenance: float      # RMB/year
    icev_maintenance: float    # RMB/year

    def __post_init__(self) -> None:
        _require(isinstance(self.lifecycle_years, int) and self.lifecycle_years >= 1,
                 "lifecycle_years must be an integer >= 1")
        _require(min(self.annual_km, self.ev_consumption, self.icev_consumption,
                     self.electricity_price, self.gasoline_price,
                     self.ev_maintenance, self.icev_maintenance) >= 0,
                 "usage rates must be non-negative")


@dataclass(frozen=True)
class ResidualAndFinance:
    """End-of-life values and the discount rate used for NPV."""

    ev_residual: float
    icev_residual: float
    discount_rate: float

    def __post_init__(self) -> None:
        _require(self.discount_rate > -1.0, "discount_rate must be > -1")
        _require(self.ev_residual >= 0 and self.icev_residual >= 0,
                 "residual values must be non-negative")


@dataclass(frozen=True)
class MarketPrices:
    """Pre-tax market prices plus the shared non-powertrain production cost.

    common_base_cost is the body/chassis/electronics cost common to both
    vehicles; powertrain-only comparisons wildly overstate the production gap,
    so total production cost is common_base_cost + powertrain.
    """

    ev_price: float
    icev_price: float
    common_base_cost: float

    def __post_init__(self) -> None:
        _require(min(self.ev_price, self.icev_price, self.common_base_cost) >= 0,
                 "prices must be non-negative")


@dataclass(frozen=True)
class VehicleScenario:
    """Everything needed to evaluate one model year.

    When ev_price_margin / icev_price_margin are set, market prices are
    derived as (1 + margin) * production cost; `derive_prices` keeps the
    snapshot consistent after a field of the scenario is changed.

    consumer_battery_replacements shifts mid-life pack replacements onto
    the buyer (manufacturers carry them under warranty by default, so 0).
    """

    year: int
    ev: EvPowertrain
    icev: IcevPowertrain
    policy: SubsidyPolicy
    usage: UsageProfile
    finance: ResidualAndFinance
    prices: MarketPrices
    ev_price_margin: float | None = None
    icev_price_margin: float | None = None
    consumer_battery_replacements: int = 0


def derive_prices(sc: VehicleScenario) -> VehicleScenario:
    """Recompute margin-linked market prices from current production costs."""
    if sc.ev_price_margin is None and sc.icev_price_margin is None:
        return sc
    base = sc.prices.common_base_cost
    ev_price = sc.prices.ev_price
    icev_price = sc.prices.icev_price
    if sc.ev_price_margin is not None:
        ev_price = (1.0 + sc.ev_price_margin) * production_cost_ev(sc.ev, base)
    if sc.icev_price_margin is not None:
        icev_price = (1.0 + sc.icev_price_margin) * production_cost_icev(sc.icev, base)
    return dataclasses.replace(
        sc, prices=MarketPrices(ev_price, icev_price, base))


def replace_field(sc: VehicleScenario, path: str, value) -> VehicleScenario:
    """Return a copy of `sc` with the dotted-path field replaced.

    Paths address one level of nesting, e.g. "ev.battery_unit_cost" or
    "usage.annual_km". Margin-linked prices are re-derived afterwards.
    """
    if "." in path:
        head, leaf = path.split(".", 1)
        member = getattr(sc, head)
        sc = dataclasses.replace(sc, **{head: dataclasses.replace(member, **{leaf: value})})
    else:
        sc = dataclasses.replace(sc, **{path: value})
    return derive_prices(sc)


def get_field(sc: VehicleScenario, path: str) -> float:
    if "." in path:
        head, leaf = path.split(".", 1)
        return getattr(getattr(sc, head), leaf)
    return getattr(sc, path)


# --- production stage ---------------------------------------------------

def production_cost_ev(pt: EvPowertrain, base: float) -> float:
    """Total EV production cost: shared base + battery + motor + other HV."""
    return (base
            + pt.battery_unit_cost * pt.battery_capacity
            + pt.motor_unit_cost * pt.motor_power
            + pt.other_hv_cost)


def production_cost_icev(pt: IcevPowertrain, base: float) -> float:
    """Total ICEV production cost: shared base + engine system + transmission."""
    return base + pt.engine_intake_exhaust_cost + pt.transmission_cost


def production_premium(ev_cost: float, icev_cost: float) -> float:
    """Relative production-cost gap (EV - ICEV) / ICEV."""
    if icev_cost == 0:
        raise DomainError("production premium undefined for zero ICEV cost")
    return (ev_cost - icev_cost) / icev_cost


# --- acquisition stage --------------------------------------------------

def government_subsidy_ev(pol: SubsidyPolicy, ev_price: float) -> float:
    """Per-EV policy support: credit revenue + tax exemption + cash subsidy."""
    credit_revenue = (pol.nev_credits_actual - pol.nev_credits_threshold) * pol.credit_price
    tax_exemption = pol.purchase_tax_rate * ev_price if pol.ev_tax_exempt else 0.0
    return credit_revenue + tax_exemption + pol.acquisition_subsidy


def cafc_compliance_cost(pol: SubsidyPolicy) -> float:
    """Cost of a negative fleet fuel-consumption balance, borne by the ICEV.

    Positive balances are non-tradable and contribute zero.
    """
    shortfall = pol.cafc_actual - pol.cafc_threshold
    return max(0.0, shortfall) * pol.credit_price


def effective_acquisition_cost(sc: VehicleScenario, kind: VehicleKind) -> float:
    """Out-of-pocket purchase cost after policy transfers."""
    if kind is VehicleKind.EV:
        return sc.prices.ev_price - government_subsidy_ev(sc.policy, sc.prices.ev_price)
    return (sc.prices.icev_price
            + cafc_compliance_cost(sc.policy)
            + sc.policy.purchase_tax_rate * sc.prices.icev_price)


def acquisition_premium(sc: VehicleScenario) -> float:
    """Relative gap in effective acquisition cost, EV vs ICEV."""
    icev_eff = effective_acquisition_cost(sc, VehicleKind.ICEV)
    if icev_eff == 0:
        raise DomainError("acquisition premium undefined: ICEV effective cost is zero")
    return (effective_acquisition_cost(sc, VehicleKind.EV) - icev_eff) / icev_eff


# --- ownership stage ----------------------------------------------------

def annual_operating_cost(kind: VehicleKind, up: UsageProfile) -> float:
    """Yearly fuel/energy plus maintenance spend."""
    if kind is VehicleKind.EV:
        return up.annual_km * up.ev_consumption / 100.0 * up.electricity_price + up.ev_maintenance
    return up.annual_km * up.icev_consumption / 100.0 * up.gasoline_price + up.icev_maintenance


def tco_npv(sc: VehicleScenario, kind: VehicleKind) -> float:
    """Net present value, at purchase, of owning the vehicle for its lifecycle.

    Effective acquisition cost, plus discounted operating costs, minus the
    discounted residual value. Consumer-borne battery replacements, when
    enabled, are priced at the current pack cost and spread evenly over the
    ownership period.
    """
    r = sc.finance.discount_rate
    n = sc.usage.lifecycle_years
    operating = annual_operating_cost(kind, sc.usage)
    residual = sc.finance.ev_residual if kind is VehicleKind.EV else sc.finance.icev_residual
    total = effective_acquisition_cost(sc, kind)
    for t in range(1, n + 1):
        total += operating / (1.0 + r) ** t
    if kind is VehicleKind.EV and sc.consumer_battery_replacements > 0:
        count = sc.consumer_battery_replacements
        pack_cost = sc.ev.battery_unit_cost * sc.ev.battery_capacity
        for k in range(1, count + 1):
            event_year = max(1, round(k * n / (count + 1)))
            total += pack_cost / (1.0 + r) ** event_year
    total -= residual / (1.0 + r) ** n
    return total


def tco_premium(ev_tco: float, icev_tco: float) -> float:
    """Relative gap in lifecycle NPV cost (EV - ICEV) / ICEV."""
    if icev_tco <= 0:
        raise DomainError("lifecycle premium undefined: ICEV TCO must be positive")
    return (ev_tco - icev_tco) / icev_tco


def lifecycle_premium(sc: VehicleScenario) -> float:
    """Relative gap in lifecycle NPV cost, EV vs ICEV."""
    return tco_premium(tco_npv(sc, VehicleKind.EV), tco_npv(sc, VehicleKind.ICEV))


def lcod(tco: float, up: UsageProfile) -> float:
    """Levelized cost of driving: lifetime cost per lifetime kilometre."""
    lifetime_km = up.annual_km * up.lifecycle_years
    if lifetime_km == 0:
        raise DomainError("LCOD undefined for zero lifetime distance")
    return tco / lifetime_km
