"""Scenario configuration files, and the one reader of every input file.

Scenarios are YAML documents whose keys mirror the scenario field names
one-to-one. Built-in scenarios ship with the package; additional config
directories can be pointed at with $GREENPREMIUM_CONFIG_DIR or by passing
a file path directly.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from pathlib import Path

import yaml

from .trajectory import ScenarioSchedule, ScheduleError, build_schedule

CONFIG_DIR_ENV = "GREENPREMIUM_CONFIG_DIR"
BUILTIN_SCENARIOS = ("long-range", "short-range")
DATA_DIR = Path(__file__).with_name("data")     # built-in scenarios and the sample sales

# libyaml's parser feeds the same SafeConstructor and resolver as the
# pure-Python one, so both build the same documents; only the speed differs.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The YAML 1.2 core schema's plain scalars, ints in decimal only, and the merge key.
_CORE_RULES = (("bool", "true|True|TRUE|false|False|FALSE", "tTfF"),
               ("int", "[-+]?[0-9]+", "-+0123456789"),
               ("float", r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?"
                         r"|[-+]?\.(inf|Inf|INF)|\.(nan|NaN|NAN)", "-+.0123456789"),
               ("null", "~|null|Null|NULL|", ["~", "n", "N", ""]), ("merge", "<<", "<"))


class ConfigError(ValueError):
    """An input file that cannot be read, or a structurally invalid scenario file."""


def read_input(path: str | Path, what: str) -> tuple[str, bytes]:
    """An input file's text, as UTF-8 with any leading byte-order mark dropped
    and universal newlines, and the bytes it was decoded from; `what`
    ("sales", ...) names the file in errors."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n"), data
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:    # a directory, no permission, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read {what} file: {reason}") from None


def scenario_path(ref: str) -> Path:
    """Resolve a scenario reference: an existing or .yaml/.yml path, else
    <ref>.yaml and then <ref with - as _>.yaml in $GREENPREMIUM_CONFIG_DIR,
    else a built-in. The probes are os.path ones, which return False where
    pathlib raises (a directory that cannot be searched); read_input reports
    a path that cannot be read."""
    p = Path(ref)
    if p.suffix in (".yaml", ".yml") or os.path.exists(p):
        return p
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    names = (f"{ref}.yaml", f"{ref.replace('-', '_')}.yaml")
    candidates = [Path(config_dir) / name for name in names] if config_dir else []
    for candidate in [*candidates, DATA_DIR / names[1]]:
        if os.path.exists(candidate):
            return candidate
    raise ConfigError(
        f"unknown scenario {ref!r}; expected a YAML path or one of {BUILTIN_SCENARIOS}")


def _named_faults(construct, what: str, loader, node):
    """`construct(loader, node)`, except that a ValueError (too many digits for
    int, a 13th month) is raised as a YAML error at the scalar's line and column."""
    try:
        return construct(loader, node)
    except ValueError:
        raise yaml.constructor.ConstructorError(
            None, None, f"found {what} that cannot be read", node.start_mark) from None


@functools.cache
def _unique_keys(loader: type) -> type:
    """`loader`, except that a repeated key is an error where PyYAML keeps the
    last value, that plain scalars follow YAML 1.2 (017 is 17; 12:30, yes and
    dates are text), and that an unreadable int or date is a YAML error."""
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
    UniqueKeyLoader.yaml_implicit_resolvers = {}
    for kind, rule, first in _CORE_RULES:
        UniqueKeyLoader.add_implicit_resolver(
            f"tag:yaml.org,2002:{kind}", re.compile(f"^(?:{rule})$"), list(first))
    UniqueKeyLoader.add_constructor(    # 017 is 17, as int() reads it
        "tag:yaml.org,2002:int", lambda self, node: int(self.construct_scalar(node)))
    for kind, what in (("int", "an integer"), ("timestamp", "a date")):
        tag = f"tag:yaml.org,2002:{kind}"
        UniqueKeyLoader.add_constructor(tag, functools.partial(
            _named_faults, UniqueKeyLoader.yaml_constructors[tag], what))
    return UniqueKeyLoader


def load_schedule(ref: str) -> ScenarioSchedule:
    path = scenario_path(ref)
    text, data = read_input(path, "scenario")
    try:
        doc = yaml.load(text, Loader=_unique_keys(_Loader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    except RecursionError:      # the pure-Python parser recurses once per level
        raise ConfigError(f"{path}: invalid YAML (nested too deeply to parse)") from None
    try:
        return build_schedule(doc, str(path), hashlib.sha256(data).hexdigest()[:12])
    except ScheduleError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def schedule_digest(ref: str) -> str:
    """The digest `load_schedule(ref)` records, without parsing the file."""
    return hashlib.sha256(read_input(scenario_path(ref), "scenario")[1]).hexdigest()[:12]


def sample_sales_path() -> Path:
    """The packaged China BEV annual-sales series (thousand vehicles)."""
    return DATA_DIR / "china_bev_sales.csv"
