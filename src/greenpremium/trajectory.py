"""Year-indexed parameter schedules and premium time series.

A schedule is an ordered list of entries, each holding the fields that change
from that year on. Scalar fields resolve either stepwise (hold last value) or
by linear interpolation between anchor years. Evaluating the cost model per
resolved year yields the premium/LCOD series that downstream forecasting and
parity analysis consume.
"""

from __future__ import annotations

import dataclasses
import math
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


# Ranges for anchor values that the cost model needs bounded: the first two
# size loops in tco_npv, and (1 + discount_rate) ** year must neither
# overflow nor reach zero. Values resolved between anchors stay in range.
ANCHOR_LIMITS = {
    "lifecycle_years": (1, 100),
    "consumer_battery_replacements": (0, 100),
    "discount_rate": (-0.5, 1.0),
}


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
    # The file the schedule was read from, named in resolution errors.
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        years = [e.year for e in self.entries]
        if not years:
            raise ScheduleError("schedule needs at least one entry")
        if years != sorted(set(years)):
            raise ScheduleError("entry years must be strictly increasing")
        if years[0] > self.span[0]:
            raise ScheduleError("first entry must not postdate the span start")
        known = set(ALL_FIELDS)
        # Each field's (year, value) anchors, indexed once; values_at reads them.
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
                lo, hi = ANCHOR_LIMITS.get(name, (-math.inf, math.inf))
                if not lo <= value <= hi:
                    raise ScheduleError(
                        f"entry {e.year}: {name}: {value!r} outside [{lo}, {hi}]")
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

    def values_at(self, year: int) -> dict[str, object]:
        """Resolve, in one pass, every field whose first anchor is on or before `year`.

        An anchor year gives its own value. Between anchors a step field (or
        a bool) holds the earlier value and any other field interpolates
        linearly. Past the last anchor the last value holds.
        """
        if not (self.span[0] <= year <= self.span[1]):
            raise SpanError(
                f"year {year} outside schedule span {self.span[0]}..{self.span[1]}")
        out = {}
        for name, track in self._tracks.items():
            prev_year, prev_val = track[0]
            if year < prev_year:
                continue
            for anchor_year, anchor_val in track:
                if anchor_year == year:
                    out[name] = anchor_val
                    break
                if anchor_year > year:
                    if name in self.step_fields or isinstance(prev_val, bool):
                        out[name] = prev_val
                    else:
                        frac = (year - prev_year) / (anchor_year - prev_year)
                        out[name] = prev_val + (anchor_val - prev_val) * frac
                    break
                prev_year, prev_val = anchor_year, anchor_val
            else:
                out[name] = prev_val
        return out

    def value_at(self, field_name: str, year: int) -> object:
        """Resolve one field, as `values_at` does."""
        values = self.values_at(year)
        if field_name not in values:
            if not self._tracks.get(field_name):
                raise ScheduleError(f"field {field_name!r} has no anchors")
            raise SpanError(f"year {year} precedes first anchor for {field_name!r}")
        return values[field_name]


def resolve_scenario(sched: ScenarioSchedule, year: int) -> cm.VehicleScenario:
    """Materialize the schedule into one immutable model-year snapshot.

    Every field read here is set by the first entry, so `values_at` has it.
    A value-object check that fails here is raised as a `ScheduleError`
    naming the schedule's source file, when known, and the year.
    """
    v = sched.values_at(year)
    first = sched.entries[0].overrides
    usage_values = [v[f] for f in USAGE_FIELDS]
    usage_values[0] = int(usage_values[0])
    ev_margin = v["ev_price_margin"] if "ev_price_margin" in first else None
    icev_margin = v["icev_price_margin"] if "icev_price_margin" in first else None
    try:
        return cm.build_scenario(
            year,
            cm.EvPowertrain(*[v[f] for f in EV_FIELDS]),
            cm.IcevPowertrain(*[v[f] for f in ICEV_FIELDS]),
            cm.SubsidyPolicy(*[v[f] for f in POLICY_FIELDS]),
            cm.UsageProfile(*usage_values),
            cm.ResidualAndFinance(*[v[f] for f in FINANCE_FIELDS]),
            cm.MarketPrices(0.0 if ev_margin is not None else v["ev_price"],
                            0.0 if icev_margin is not None else v["icev_price"],
                            v["common_base_cost"]),
            ev_margin, icev_margin,
            int(v["consumer_battery_replacements"])
            if "consumer_battery_replacements" in first else 0)
    except ValueError as exc:
        where = "" if sched.source is None else f"{sched.source}: "
        raise ScheduleError(f"{where}year {year}: {exc}") from exc


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


def _evaluate(sc: cm.VehicleScenario) -> tuple[PremiumPoint, float, float]:
    """`evaluate_year`'s point together with the EV and ICEV TCOs it used."""
    prod_ev = cm.production_cost_ev(sc.ev, sc.prices.common_base_cost)
    prod_icev = cm.production_cost_icev(sc.icev, sc.prices.common_base_cost)
    tco_ev = cm.tco_npv(sc, cm.VehicleKind.EV)
    tco_icev = cm.tco_npv(sc, cm.VehicleKind.ICEV)
    point = PremiumPoint(
        year=sc.year,
        production=cm.production_premium(prod_ev, prod_icev),
        acquisition=cm.acquisition_premium(sc),
        lifecycle=cm.tco_premium(tco_ev, tco_icev),
        lcod_ev=cm.lcod(tco_ev, sc.usage),
        lcod_icev=cm.lcod(tco_icev, sc.usage),
    )
    return point, tco_ev, tco_icev


def evaluate_year(sc: cm.VehicleScenario) -> PremiumPoint:
    """All three premiums plus both LCODs for one resolved scenario."""
    return _evaluate(sc)[0]


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
