import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greenpremium import config
from greenpremium.cli import run


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    return request.param


def _typed_entries(sched):
    # == alone would let True pass for 1 and 1 for 1.0; interpolation tells them apart
    return [(e.year, [(k, type(v), v) for k, v in e.overrides.items()])
            for e in sched.entries]


@pytest.mark.parametrize("name", config.BUILTIN_SCENARIOS)
def test_both_yaml_loaders_build_equal_schedules(name, monkeypatch):
    fast = config.load_schedule(name)
    monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    slow = config.load_schedule(name)
    assert slow == fast
    assert _typed_entries(slow) == _typed_entries(fast)


def test_truncated_yaml_names_file_and_line(tmp_path, loader):
    text = config.scenario_path("long-range").read_text()
    bad = tmp_path / "truncated.yaml"
    bad.write_text(text[:text.index("entries:") + 40] + "\n  - [year: ")
    with pytest.raises(config.ConfigError, match=r"truncated\.yaml: invalid YAML") as exc:
        config.load_schedule(str(bad))
    assert str(bad) in str(exc.value)
    assert "line " in str(exc.value)


def test_duplicate_key_names_file_and_line(tmp_path, loader, capsys):
    """PyYAML keeps the last of two equal keys; a scenario file may not have them."""
    text = config.scenario_path("long-range").read_text()
    first = "    battery_unit_cost: 7500\n"
    bad = tmp_path / "duplicate.yaml"
    bad.write_text(text.replace(first, first + "    battery_unit_cost: 100\n", 1))
    line = text[:text.index(first)].count("\n") + 2
    with pytest.raises(config.ConfigError, match=r"duplicate\.yaml: invalid YAML") as exc:
        config.load_schedule(str(bad))
    assert f"found duplicate key 'battery_unit_cost'\n  in \"<unicode string>\", line {line}," \
        in str(exc.value)
    assert run(["tco", "--scenario", str(bad), "--year", "2010"]) == 1
    assert str(bad) in capsys.readouterr().err


def test_a_key_may_override_a_merged_one(tmp_path, loader):
    text = config.scenario_path("long-range").read_text()
    merged = tmp_path / "merged.yaml"
    merged.write_text("defaults: &d\n  name: other\n  vehicle_class: other\n"
                      + text.replace("name: long-range\n", "<<: *d\nname: long-range\n", 1))
    sched = config.load_schedule(str(merged))
    assert (sched.name, sched.vehicle_class) == ("long-range", "long-range")


# --- fuzzing the scenario loader through the CLI -------------------------------

_SHIPPED = yaml.safe_load(config.scenario_path("long-range").read_text())
_FIRST = _SHIPPED["entries"][0]

_wild = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=5),
    st.sampled_from([0, -1, 1e308, -1e308, 5e-324, 10**400, 10**15]),
    st.lists(st.integers(), max_size=2))
_number = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                    st.sampled_from([0, -1, 1e308, 10**15]))


@st.composite
def _entry_values(draw, template: dict, chaos: int) -> dict:
    """The template's fields; each one, with odds `chaos` in 40, is dropped or
    replaced by a number or by junk, and a stray key may be added."""
    out = {}
    for key, value in template.items():
        roll = draw(st.integers(0, 39))
        if roll >= chaos:
            out[key] = value
        elif roll % 4:
            out[key] = draw(_number if roll % 4 < 3 else _wild)
    if draw(st.integers(0, 39)) < chaos:
        out[draw(st.text(max_size=8))] = draw(_wild)
    return out


@st.composite
def _scenario_docs(draw):
    chaos = draw(st.sampled_from([0, 1, 4, 20]))
    later = draw(st.lists(st.integers(2011, 2040), max_size=3, unique=True))
    years = [2010] + sorted(later)
    if draw(st.integers(0, 39)) < chaos:
        years = draw(st.lists(st.integers(1990, 2040) | _wild, min_size=1, max_size=4))
    entries = [draw(_entry_values(_FIRST, chaos))]
    for _ in years[1:]:
        keys = draw(st.lists(st.sampled_from(list(_FIRST)), max_size=4))
        entries.append(draw(_entry_values({k: draw(_number) for k in keys}, chaos)))
    for entry, year in zip(entries, years):
        entry["year"] = year
    doc = {"name": "fuzz", "span": [2010, 2030],
           "interpolation": _SHIPPED["interpolation"], "entries": entries}
    for key in list(doc):
        roll = draw(st.integers(0, 39))
        if roll < chaos:
            doc[key] = draw(_wild | st.lists(_wild, max_size=3)
                            | st.dictionaries(st.text(max_size=4), _wild, max_size=2))
        elif roll < 2 * chaos and roll % 2:
            del doc[key]
    return doc


@given(doc=_scenario_docs() | st.text(max_size=200))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_fuzzed_scenario_exits_cleanly_with_finite_output(doc, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    scenario = workdir / "fuzz.yaml"
    scenario.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    out = workdir / "series.csv"
    code = run(["premium-series", "--scenario", str(scenario), "--out", str(out)])
    assert code in (0, 1)
    if code == 0:
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")][1:]
        assert rows
        assert all(math.isfinite(float(v)) for r in rows for v in r.split(","))


@pytest.mark.parametrize("old, new, message", [
    ("span: [2010, 2030]", "span: [2010]", "span must be a"),
    ("span: [2010, 2030]", "span: 2010", "span must be a"),
    ("  - year: 2013", "  - year: .inf", "infinity"),
    ("  - year: 2013", "  - year: .nan", "NaN"),
    ("interpolation:\n", "interpolation: null\nunused:\n", "interpolation must be a mapping"),
    ("discount_rate: 0.05", "discount_rate: 1.0e+300", "discount_rate: 1e\\+300 outside"),
    ("lifecycle_years: 10", "lifecycle_years: 1000000000000000", "lifecycle_years: .* outside"),
    ("    - credit_price\n", "    - credit_prise\n",
     "interpolation.step: unknown schedule key 'credit_prise'"),
    ("  step:\n    - ev_tax_exempt\n    - acquisition_subsidy\n    - credit_price\n"
     "    - purchase_tax_rate\n    - lifecycle_years\n", "  step: acquisition_subsidy\n",
     "interpolation.step must be a list of schedule keys, got 'acquisition_subsidy'"),
    ("lifecycle_years: 10", "lifecycle_years: 10.9",
     "entry 2010: lifecycle_years: expected an integer, got 10.9"),
    ("lifecycle_years: 10", "lifecycle_years: true",
     "entry 2010: lifecycle_years: expected an integer, got True"),
    ("  - year: 2013", "  - year: 2012.7", "entry year: expected an integer, got 2012.7"),
    ("span: [2010, 2030]", "span: [2010.5, 2030]", "span: expected an integer, got 2010.5"),
    ("span: [2010, 2030]", "span: [2010, '2030']", "span: expected an integer, got '2030'"),
    ("lifecycle_years: 10\n", "lifecycle_years: 10\n    consumer_battery_replacements: 1.5\n",
     "entry 2010: consumer_battery_replacements: expected an integer, got 1.5"),
    ("ev_tax_exempt: true", "ev_tax_exempt: 0.5",
     "entry 2010: ev_tax_exempt: expected true or false, got 0.5"),
    ("ev_tax_exempt: false", "ev_tax_exempt: 7",
     "entry 2023: ev_tax_exempt: expected true or false, got 7"),
    ("battery_capacity: 75", "battery_capacity: true",
     "entry 2010: battery_capacity: expected a number, got True"),
], ids=["span-one-year", "span-scalar", "year-inf", "year-nan", "interpolation-null",
        "discount-rate-huge", "lifecycle-years-huge", "step-misspelt-key", "step-string",
        "lifecycle-years-fraction", "lifecycle-years-bool", "year-fraction", "span-fraction",
        "span-text", "battery-replacements-fraction", "flag-fraction", "flag-integer",
        "number-bool"])
def test_malformed_scenario_exits_1_naming_the_file(tmp_path, capsys, old, new, message):
    text = config.scenario_path("long-range").read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new, 1))
    with pytest.raises(config.ConfigError, match=message):
        config.load_schedule(str(bad))
    assert run(["premium-series", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert str(bad) in capsys.readouterr().err


def test_integral_floats_load_as_their_integers(tmp_path):
    text = config.scenario_path("long-range").read_text()
    whole = text
    for old, new in (("span: [2010, 2030]", "span: [2010.0, 2030.0]"),
                     ("  - year: 2013\n", "  - year: 2013.0\n"),
                     ("lifecycle_years: 10\n", "lifecycle_years: 10.0\n")):
        assert old in whole
        whole = whole.replace(old, new, 1)
    path = tmp_path / "whole.yaml"
    path.write_text(whole)
    outputs = []
    for scenario in ("long-range", str(path)):
        out = tmp_path / "series.csv"
        assert run(["premium-series", "--scenario", scenario, "--out", str(out)]) == 0
        outputs.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
    assert outputs[0] == outputs[1]
