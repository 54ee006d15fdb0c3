"""Scenario configuration files.

Scenarios are YAML documents whose keys mirror the scenario field names
one-to-one. Built-in scenarios ship with the package; additional config
directories can be pointed at with $GREENPREMIUM_CONFIG_DIR or by passing
a file path directly.
"""

from __future__ import annotations

import functools
import hashlib
import os
from importlib import resources
from pathlib import Path

import yaml

from .trajectory import (ALL_FIELDS, DEFAULT_STEP_FIELDS, ScenarioSchedule,
                         ScheduleEntry, ScheduleError, integral)

CONFIG_DIR_ENV = "GREENPREMIUM_CONFIG_DIR"
BUILTIN_SCENARIOS = ("long-range", "short-range")

# libyaml's parser feeds the same SafeConstructor and resolver as the
# pure-Python one, so both build the same documents; only the speed differs.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Unreadable or structurally invalid scenario file."""


def _builtin_path(name: str) -> Path | None:
    filename = name.replace("-", "_") + ".yaml"
    ref = resources.files("greenpremium.data") / filename
    return Path(str(ref)) if ref.is_file() else None


def scenario_path(ref: str) -> Path:
    """Resolve a scenario reference: file path, config-dir name, or built-in."""
    p = Path(ref)
    if p.suffix in (".yaml", ".yml") or p.exists():
        if not p.exists():
            raise ConfigError(f"scenario file not found: {ref}")
        return p
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        for candidate in (Path(config_dir) / f"{ref}.yaml",
                          Path(config_dir) / f"{ref.replace('-', '_')}.yaml"):
            if candidate.exists():
                return candidate
    builtin = _builtin_path(ref)
    if builtin is not None:
        return builtin
    raise ConfigError(
        f"unknown scenario {ref!r}; expected a YAML path or one of {BUILTIN_SCENARIOS}")


@functools.cache
def _unique_keys(loader: type) -> type:
    """`loader`, except that a key repeated in one mapping is an error where
    PyYAML keeps the last value. A key may still override a merged (<<) one."""
    class UniqueKeyLoader(loader):
        def construct_mapping(self, node, deep=False):
            own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)
            if len(mapping) == len(node.value):     # no key repeats or overrides a merged one
                return mapping
            keys = [self.construct_object(k) for k in own]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", own[i].start_mark)
            return mapping
    return UniqueKeyLoader


def load_schedule(ref: str) -> ScenarioSchedule:
    path = scenario_path(ref)
    try:
        doc = yaml.load(path.read_text(), Loader=_unique_keys(_Loader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    try:
        span = doc["span"]
        if not (isinstance(span, list) and len(span) == 2):
            raise ScheduleError(f"span must be a [first, last] pair of years, got {span!r}")
        interpolation = doc.get("interpolation", {})
        if not isinstance(interpolation, dict):
            raise ScheduleError(f"interpolation must be a mapping, got {interpolation!r}")
        step = interpolation.get("step", [])
        if not isinstance(step, list):
            raise ScheduleError(
                f"interpolation.step must be a list of schedule keys, got {step!r}")
        for key in step:
            if key not in ALL_FIELDS:
                raise ScheduleError(f"interpolation.step: unknown schedule key {key!r}")
        entries = tuple(
            ScheduleEntry(year=integral(e["year"], "entry year"),
                          overrides={k: v for k, v in e.items() if k != "year"})
            for e in doc["entries"])
        return ScenarioSchedule(
            name=str(doc["name"]),
            vehicle_class=str(doc.get("vehicle_class", doc["name"])),
            span=(integral(span[0], "span"), integral(span[1], "span")),
            entries=entries,
            step_fields=frozenset(step) or DEFAULT_STEP_FIELDS,
            source=str(path),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # ValueError covers ScheduleError and int() of a string or NaN;
        # OverflowError is int() of an infinite year
        raise ConfigError(f"{path}: {exc}") from exc


def schedule_digest(ref: str) -> str:
    """Stable content hash of the scenario file, for run manifests."""
    return hashlib.sha256(scenario_path(ref).read_bytes()).hexdigest()[:12]


def sample_sales_path() -> Path:
    """The packaged China BEV annual-sales series (thousand vehicles)."""
    return Path(str(resources.files("greenpremium.data") / "china_bev_sales.csv"))
