"""Year-indexed parameter schedules and premium time series.

A schedule is an ordered list of entries, each holding the fields that change
from that year on. Scalar fields resolve either stepwise (hold last value) or
by linear interpolation between anchor years. Evaluating the cost model per
resolved year yields the premium/LCOD series that downstream forecasting and
parity analysis consume.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

from . import costmodel as cm

PremiumKind = Literal["production", "acquisition", "lifecycle"]

# Schedule keys, grouped by the scenario member they populate.
EV_FIELDS, ICEV_FIELDS, POLICY_FIELDS, USAGE_FIELDS, FINANCE_FIELDS = (
    tuple(f.name for f in dataclasses.fields(cls))
    for cls in (cm.EvPowertrain, cm.IcevPowertrain, cm.SubsidyPolicy,
                cm.UsageProfile, cm.ResidualAndFinance))
PRICE_FIELDS = ("common_base_cost", "ev_price", "icev_price",
                "ev_price_margin", "icev_price_margin")
OPTIONAL_FIELDS = ("consumer_battery_replacements",)
ALL_FIELDS = (EV_FIELDS + ICEV_FIELDS + POLICY_FIELDS + USAGE_FIELDS
              + FINANCE_FIELDS + PRICE_FIELDS + OPTIONAL_FIELDS)

# Fields that are flags/policies rather than smoothly drifting quantities.
DEFAULT_STEP_FIELDS = frozenset({
    "ev_tax_exempt", "acquisition_subsidy", "credit_price", "purchase_tax_rate",
    "lifecycle_years",
})


class ScheduleError(ValueError):
    """Malformed schedule or unresolvable field."""


class SpanError(ScheduleError):
    """Requested year lies outside the schedule span."""


@dataclass(frozen=True)
class ScheduleEntry:
    year: int
    overrides: Mapping[str, object]


@dataclass(frozen=True)
class ScenarioSchedule:
    """Named bundle of per-field anchor tracks over a span of years."""

    name: str
    vehicle_class: str
    span: tuple[int, int]
    entries: tuple[ScheduleEntry, ...]
    step_fields: frozenset[str] = field(default=DEFAULT_STEP_FIELDS)

    def __post_init__(self) -> None:
        years = [e.year for e in self.entries]
        if not years:
            raise ScheduleError("schedule needs at least one entry")
        if years != sorted(set(years)):
            raise ScheduleError("entry years must be strictly increasing")
        if years[0] > self.span[0]:
            raise ScheduleError("first entry must not postdate the span start")
        known = set(ALL_FIELDS)
        # Each field's (year, value) anchors, indexed once; value_at reads them.
        tracks: dict[str, list[tuple[int, object]]] = {}
        for e in self.entries:
            unknown = set(e.overrides) - known
            if unknown:
                raise ScheduleError(f"unknown schedule fields: {sorted(unknown)}")
            for name, value in e.overrides.items():
                # bools are ints; the bound rejects NaN, inf and ints no float holds
                if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
                    raise ScheduleError(
                        f"entry {e.year}: {name}: expected a finite number, got {value!r}")
                tracks.setdefault(name, []).append((e.year, value))
        object.__setattr__(self, "_tracks", tracks)
        first = self.entries[0].overrides
        derived_ev = "ev_price_margin" in first
        derived_icev = "icev_price_margin" in first
        for f_ in ALL_FIELDS:
            if f_ == "ev_price" and derived_ev:
                continue
            if f_ == "icev_price" and derived_icev:
                continue
            if f_ in ("ev_price_margin", "icev_price_margin") or f_ in OPTIONAL_FIELDS:
                continue
            if f_ not in first:
                raise ScheduleError(f"first entry must define every field; missing {f_!r}")

    def value_at(self, field_name: str, year: int) -> object:
        """Resolve one field: step fields hold, others interpolate linearly."""
        if not (self.span[0] <= year <= self.span[1]):
            raise SpanError(
                f"year {year} outside schedule span {self.span[0]}..{self.span[1]}")
        track = self._tracks.get(field_name)
        if not track:
            raise ScheduleError(f"field {field_name!r} has no anchors")
        if year < track[0][0]:
            raise SpanError(f"year {year} precedes first anchor for {field_name!r}")
        prev_year, prev_val = track[0]
        for anchor_year, anchor_val in track:
            if anchor_year == year:
                return anchor_val
            if anchor_year > year:
                if field_name in self.step_fields or isinstance(prev_val, bool):
                    return prev_val
                frac = (year - prev_year) / (anchor_year - prev_year)
                return prev_val + (anchor_val - prev_val) * frac
            prev_year, prev_val = anchor_year, anchor_val
        return prev_val  # past the last anchor: hold


def resolve_scenario(sched: ScenarioSchedule, year: int) -> cm.VehicleScenario:
    """Materialize the schedule into one immutable model-year snapshot."""
    def val(name: str):
        return sched.value_at(name, year)

    ev = cm.EvPowertrain(*(val(f) for f in EV_FIELDS))
    icev = cm.IcevPowertrain(*(val(f) for f in ICEV_FIELDS))
    policy = cm.SubsidyPolicy(*(val(f) for f in POLICY_FIELDS))
    usage_values = [val(f) for f in USAGE_FIELDS]
    usage_values[0] = int(usage_values[0])
    usage = cm.UsageProfile(*usage_values)
    finance = cm.ResidualAndFinance(*(val(f) for f in FINANCE_FIELDS))

    base = val("common_base_cost")
    first = sched.entries[0].overrides
    ev_margin = val("ev_price_margin") if "ev_price_margin" in first else None
    icev_margin = val("icev_price_margin") if "icev_price_margin" in first else None
    ev_price = 0.0 if ev_margin is not None else val("ev_price")
    icev_price = 0.0 if icev_margin is not None else val("icev_price")
    replacements = (int(val("consumer_battery_replacements"))
                    if "consumer_battery_replacements" in first else 0)
    sc = cm.VehicleScenario(
        year=year, ev=ev, icev=icev, policy=policy, usage=usage,
        finance=finance, prices=cm.MarketPrices(ev_price, icev_price, base),
        ev_price_margin=ev_margin, icev_price_margin=icev_margin,
        consumer_battery_replacements=replacements)
    return cm.derive_prices(sc)


@dataclass(frozen=True)
class PremiumPoint:
    year: int
    production: float
    acquisition: float
    lifecycle: float
    lcod_ev: float
    lcod_icev: float


@dataclass(frozen=True)
class PremiumSeries:
    """Contiguous per-year premium and levelized-cost outputs."""

    points: tuple[PremiumPoint, ...]

    def __post_init__(self) -> None:
        years = [p.year for p in self.points]
        if years and years != list(range(years[0], years[0] + len(years))):
            raise ValueError("premium series years must be contiguous")
        for p in self.points:
            for v in (p.production, p.acquisition, p.lifecycle, p.lcod_ev, p.lcod_icev):
                if v != v or v in (float("inf"), float("-inf")):
                    raise ValueError(f"non-finite premium value in year {p.year}")

    @property
    def years(self) -> range:
        if not self.points:
            return range(0)
        return range(self.points[0].year, self.points[0].year + len(self.points))

    def point(self, year: int) -> PremiumPoint:
        try:
            p = self.points[year - self.points[0].year]
        except IndexError:
            raise KeyError(f"year {year} not in premium series") from None
        if not self.points or p.year != year:
            raise KeyError(f"year {year} not in premium series")
        return p

    def lifecycle(self, year: int) -> float:
        return self.point(year).lifecycle


def evaluate_year(sc: cm.VehicleScenario) -> PremiumPoint:
    """All three premiums plus both LCODs for one resolved scenario."""
    prod_ev = cm.production_cost_ev(sc.ev, sc.prices.common_base_cost)
    prod_icev = cm.production_cost_icev(sc.icev, sc.prices.common_base_cost)
    tco_ev = cm.tco_npv(sc, cm.VehicleKind.EV)
    tco_icev = cm.tco_npv(sc, cm.VehicleKind.ICEV)
    return PremiumPoint(
        year=sc.year,
        production=cm.production_premium(prod_ev, prod_icev),
        acquisition=cm.acquisition_premium(sc),
        lifecycle=cm.tco_premium(tco_ev, tco_icev),
        lcod_ev=cm.lcod(tco_ev, sc.usage),
        lcod_icev=cm.lcod(tco_icev, sc.usage),
    )


def premium_series(sched: ScenarioSchedule, years: Iterable[int]) -> PremiumSeries:
    return PremiumSeries(tuple(
        evaluate_year(resolve_scenario(sched, y)) for y in years))


def parity_year(series: PremiumSeries, which: PremiumKind) -> int | None:
    """First year the selected premium reaches zero; None if it never does."""
    if not series.points:
        raise ValueError("parity_year needs a non-empty series")
    for p in series.points:
        if getattr(p, which) <= 0.0:
            return p.year
    return None


def parity_years(series: PremiumSeries) -> dict[str, int | None]:
    return {k: parity_year(series, k) for k in ("lifecycle", "acquisition", "production")}
