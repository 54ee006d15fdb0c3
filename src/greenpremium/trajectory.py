"""Year-indexed parameter schedules and premium time series.

`build_schedule` checks a scenario document, whose entries each hold the fields
that change from that year on, and indexes one anchor track per field. Fields
resolve stepwise (hold last value) or by linear interpolation between anchor
years. Evaluating the cost model per resolved year yields the premium/LCOD
series that downstream forecasting and parity analysis consume.
"""

from __future__ import annotations

import math
import reprlib
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from . import costmodel as cm

# Schedule keys: the snapshot's fields after `year`.
ALL_FIELDS = tuple(f.name for f in fields(cm.VehicleScenario))[1:]
# Each vehicle's (price, margin) keys: its market price is given, or derived
# from a margin over production cost. The first entry decides which, for good.
PRICE_KEYS = (("ev_price", "ev_price_margin"), ("icev_price", "icev_price_margin"))
OPTIONAL_FIELDS = ("consumer_battery_replacements",)

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
# Anchors that must be whole numbers (10.0 will do) and anchors that must be
# true or false; no other anchor may be. Values between anchors are unchecked.
INTEGER_FIELDS = ("lifecycle_years", "consumer_battery_replacements")
FLAG_FIELDS = ("ev_tax_exempt",)


class ScheduleError(ValueError):
    """Malformed schedule or unresolvable field."""


class SpanError(ScheduleError):
    """Requested year lies outside the schedule span."""


class _Shown(reprlib.Repr):
    """A document value as an error message shows it: bounded in depth and
    length, so that no message recurses or grows without limit."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:      # more digits than int-to-str converts
            return f"<{x.bit_length()}-bit integer>"


shown = _Shown().repr


def integral(value, where: str) -> int:
    """`value` as an int when it is whole, as 10 and 10.0 are; a bool, a word,
    null, NaN, an infinity or a fraction raises a ScheduleError at `where`."""
    whole = isinstance(value, float) and value.is_integer()    # false for NaN and inf
    if whole or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ScheduleError(f"{where}: expected an integer, got {shown(value)}")


@dataclass(frozen=True)
class ScenarioSchedule:
    """Named per-field anchor tracks over a span of years, built by `build_schedule`."""

    name: str
    vehicle_class: str
    span: tuple[int, int]
    # Each field's anchor years, strictly increasing, and its values there.
    tracks: Mapping[str, tuple[list[int], list[object]]]
    step_fields: frozenset[str] = DEFAULT_STEP_FIELDS
    # The file the schedule was read from, named in resolution errors, and
    # the SHA-256 (first 12 hex digits) of the bytes parsed, for run manifests.
    source: str | None = field(default=None, compare=False)
    digest: str | None = field(default=None, compare=False)

    def values_at(self, year: int) -> dict[str, object]:
        """Resolve, in one pass, every field whose first anchor is on or before `year`.

        An anchor year gives its own value. Between anchors a step field (or
        a bool) holds the earlier value and any other field interpolates
        linearly. Past the last anchor the last value holds.
        """
        if not (self.span[0] <= year <= self.span[1]):
            where = "" if self.source is None else f"{self.source}: "
            raise SpanError(f"{where}year {shown(year)} outside schedule span "
                            f"{shown(self.span[0])}..{shown(self.span[1])}")
        out = {}
        for name, (years, values) in self.tracks.items():
            i = bisect_right(years, year)     # years[i - 1] <= year < years[i]
            if i == 0:
                continue
            prev_year, prev_val = years[i - 1], values[i - 1]
            if (prev_year == year or i == len(years) or name in self.step_fields
                    or isinstance(prev_val, bool)):
                out[name] = prev_val
            else:
                frac = (year - prev_year) / (years[i] - prev_year)
                out[name] = prev_val + (values[i] - prev_val) * frac
        return out


def build_schedule(doc: object, source: str | None = None,
                   digest: str | None = None) -> ScenarioSchedule:
    """The schedule a parsed scenario document describes, checked and indexed in
    one pass over its entries. Every fault raises a ScheduleError naming its place."""
    if not isinstance(doc, dict):
        raise ScheduleError("expected a mapping at top level")
    for key in ("span", "entries", "name"):
        if key not in doc:
            raise ScheduleError(f"missing key {key!r}")
    span = doc["span"]
    if not (isinstance(span, list) and len(span) == 2):
        raise ScheduleError(f"span must be a [first, last] pair of years, got {shown(span)}")
    interpolation = doc.get("interpolation", {})
    if not isinstance(interpolation, dict):
        raise ScheduleError(f"interpolation must be a mapping, got {shown(interpolation)}")
    for key in interpolation:
        if key != "step":
            raise ScheduleError(f"interpolation: unknown key {shown(key)}")
    step = interpolation.get("step", [])
    if not isinstance(step, list):
        raise ScheduleError(
            f"interpolation.step must be a list of schedule keys, got {shown(step)}")
    for key in step:
        if key not in ALL_FIELDS:
            raise ScheduleError(f"interpolation.step: unknown schedule key {shown(key)}")
    first, last = integral(span[0], "span"), integral(span[1], "span")
    if first > last:
        raise ScheduleError(f"span: first year {shown(first)} is after last year {shown(last)}")
    for key in ("name", "vehicle_class"):
        if not isinstance(doc.get(key, ""), str):
            raise ScheduleError(f"{key}: expected a string, got {shown(doc[key])}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ScheduleError(f"entries must be a list of mappings, got {shown(entries)}")
    if not entries:
        raise ScheduleError("schedule needs at least one entry")
    known = set(ALL_FIELDS)
    tracks: dict[str, tuple[list[int], list[object]]] = {}
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ScheduleError(f"entries[{i}]: expected a mapping, got {shown(e)}")
        if "year" not in e:
            raise ScheduleError(f"entries[{i}]: missing key 'year'")
        overrides = dict(e)
        year = integral(overrides.pop("year"), f"entries[{i}]: year")
        if i == 0:
            if year > first:
                raise ScheduleError(
                    f"entries[0]: year {shown(year)} is after the span start {shown(first)}")
            # Each pair's unused key, mapped to the key the schedule uses instead.
            unused = dict(pair if pair[1] in e else pair[::-1] for pair in PRICE_KEYS)
        elif year <= prev_year:
            raise ScheduleError(f"entries[{i}]: year {shown(year)} is not after {shown(prev_year)}")
        prev_year = year
        if not known.issuperset(overrides):
            # sorted as text, since 1 and 'a' do not compare
            unknown = sorted(set(overrides) - known,
                             key=lambda k: k if isinstance(k, str) else shown(k))
            raise ScheduleError(f"entry {shown(year)}: unknown schedule fields: {shown(unknown)}")
        for name, value in overrides.items():
            if name in unused:
                raise ScheduleError(f"entry {shown(year)}: {name}: this schedule uses "
                                    f"{unused[name]}, as its first entry decides")
            # bools are ints; the bound rejects NaN, inf and ints no float holds
            if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
                raise ScheduleError(
                    f"entry {shown(year)}: {name}: expected a finite number, got {shown(value)}")
            if name in INTEGER_FIELDS:
                integral(value, f"entry {shown(year)}: {name}")
            if isinstance(value, bool) != (name in FLAG_FIELDS):
                expected = "true or false" if name in FLAG_FIELDS else "a number"
                raise ScheduleError(
                    f"entry {shown(year)}: {name}: expected {expected}, got {shown(value)}")
            lo, hi = ANCHOR_LIMITS.get(name, (-math.inf, math.inf))
            if not lo <= value <= hi:
                raise ScheduleError(
                    f"entry {shown(year)}: {name}: {shown(value)} outside [{lo}, {hi}]")
            years, values = tracks.setdefault(name, ([], []))
            years.append(year)
            values.append(value)
    for name in ALL_FIELDS:
        if name not in entries[0] and name not in unused and name not in OPTIONAL_FIELDS:
            raise ScheduleError(f"first entry must define every field; missing {name!r}")
    return ScenarioSchedule(
        name=doc["name"], vehicle_class=doc.get("vehicle_class", doc["name"]),
        span=(first, last), tracks=tracks,
        step_fields=frozenset(step) or DEFAULT_STEP_FIELDS, source=source, digest=digest)


def resolve_scenario(sched: ScenarioSchedule, year: int) -> cm.VehicleScenario:
    """Materialize the schedule into one immutable model-year snapshot.

    `values_at` has every key the first entry sets; a price key the schedule
    does not use is absent, as is `consumer_battery_replacements` before its
    first anchor, and the snapshot's default stands in. A snapshot check that
    fails here is raised as a `ScheduleError` naming the schedule's source
    file, when known, and the year.
    """
    v = sched.values_at(year)
    for name in INTEGER_FIELDS:
        if name in v:
            v[name] = int(v[name])
    v["year"] = year
    try:
        return cm.snapshot(v)
    except ValueError as exc:
        raise year_error(sched, year, exc) from exc


def year_error(sched: ScenarioSchedule, year: int, exc: Exception) -> ScheduleError:
    """`exc` as a ScheduleError naming the schedule's source file, when known, and `year`."""
    where = "" if sched.source is None else f"{sched.source}: "
    return ScheduleError(f"{where}year {year}: {exc}")


@dataclass(frozen=True)
class PremiumPoint:
    year: int
    production: float
    acquisition: float
    lifecycle: float
    lcod_ev: float
    lcod_icev: float
    tco_ev: float
    tco_icev: float

    def __post_init__(self) -> None:
        bad = [f"{name} = {v}" for name, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite premium value: {', '.join(bad)}")


@dataclass(frozen=True)
class PremiumSeries:
    """Contiguous per-year premium and levelized-cost outputs."""

    points: tuple[PremiumPoint, ...]

    def __post_init__(self) -> None:
        years = [p.year for p in self.points]
        if years and years != list(range(years[0], years[0] + len(years))):
            raise ValueError("premium series years must be contiguous")

    @property
    def years(self) -> range:
        if not self.points:
            return range(0)
        return range(self.points[0].year, self.points[0].year + len(self.points))

    def point(self, year: int) -> PremiumPoint:
        if year not in self.years:
            raise KeyError(f"year {year} not in premium series")
        return self.points[year - self.years.start]

    def lifecycles(self, years: range) -> list[float]:
        """The lifecycle premiums of the consecutive `years`, all of which the series must cover."""
        have = self.years
        before = range(years.start, min(years.stop, have.start))
        after = range(max(years.start, have.stop), years.stop)
        if before or after:
            raise ValueError(f"premium series missing years {shown([*before[:7], *after[:7]][:7])}")
        return [p.lifecycle for p in self.points[years.start - have.start:years.stop - have.start]]


def evaluate_year(sc: cm.VehicleScenario) -> PremiumPoint:
    """The three premiums, both LCODs and both TCOs of one resolved scenario."""
    production = cm.premium("production", *cm.stage_costs(sc, "production"))
    acquisition = cm.premium("acquisition", *cm.stage_costs(sc, "acquisition"))
    tco_ev, tco_icev = cm.stage_costs(sc, "lifecycle")
    return PremiumPoint(
        year=sc.year,
        production=production,
        acquisition=acquisition,
        lifecycle=cm.premium("lifecycle", tco_ev, tco_icev),
        lcod_ev=cm.lcod(tco_ev, sc),
        lcod_icev=cm.lcod(tco_icev, sc),
        tco_ev=tco_ev,
        tco_icev=tco_icev,
    )


def evaluate(sched: ScenarioSchedule, year: int) -> tuple[cm.VehicleScenario, PremiumPoint]:
    """`year`'s resolved scenario and its evaluation; an evaluation that fails,
    or has a value that is not finite, names the schedule's source file and `year`."""
    sc = resolve_scenario(sched, year)
    try:
        return sc, evaluate_year(sc)
    except ValueError as exc:
        raise year_error(sched, year, exc) from exc


def premium_series(sched: ScenarioSchedule, years: Iterable[int]) -> PremiumSeries:
    return PremiumSeries(tuple(evaluate(sched, y)[1] for y in years))


def parity_year(series: PremiumSeries, which: cm.PremiumKind) -> int | None:
    """First year the selected premium reaches zero; None if it never does."""
    if not series.points:
        raise ValueError("parity_year needs a non-empty series")
    for p in series.points:
        if getattr(p, which) <= 0.0:
            return p.year
    return None


def parity_years(series: PremiumSeries) -> dict[cm.PremiumKind, int | None]:
    return {k: parity_year(series, k) for k in cm.PREMIUM_KINDS}
