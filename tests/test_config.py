import copy
import math
import re
from decimal import Decimal

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greenpremium import config
from greenpremium import trajectory as tj
from greenpremium.cli import run


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    return request.param


def _typed_tracks(sched):
    # == alone would let True pass for 1 and 1 for 1.0; interpolation tells them apart
    return [(name, years, [(type(v), v) for v in values])
            for name, (years, values) in sched.tracks.items()]


# Numbers that YAML 1.1 reads as text: an exponent without a dot, without a
# sign, or with no digit on one side of the dot.
EXPONENT_FORMS = {"battery_unit_cost: 7500": "battery_unit_cost: 7.5e3",
                  "motor_power: 200": "motor_power: 2E+2",
                  "ev_maintenance: 2000": "ev_maintenance: 2e3",
                  "icev_consumption: 9.7": "icev_consumption: 97e-1",
                  "other_hv_cost: 15000": "other_hv_cost: .15e5",
                  "icev_maintenance: 7000": "icev_maintenance: +7.E3",
                  "acquisition_subsidy: 60000": "acquisition_subsidy: 6.e4",
                  "ev_residual: 35000": "ev_residual: +.35E+5"}


@pytest.mark.parametrize("name", [*config.BUILTIN_SCENARIOS, "exponents"])
def test_both_yaml_loaders_build_equal_schedules(name, monkeypatch, tmp_path):
    if name == "exponents":
        text = config.scenario_path("long-range").read_text()
        for decimal, exponent in EXPONENT_FORMS.items():
            assert text.count(decimal + "\n") == 1
            text = text.replace(decimal + "\n", exponent + "\n")
        name = tmp_path / "exponents.yaml"
        name.write_text(text)
    fast = config.load_schedule(str(name))
    monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    slow = config.load_schedule(str(name))
    assert slow == fast
    assert _typed_tracks(slow) == _typed_tracks(fast)
    if isinstance(name, str):
        return
    decimal = config.load_schedule("long-range").tracks
    for line in EXPONENT_FORMS:
        key = line.split(":")[0]
        value = fast.tracks[key][1][0]
        assert type(value) is float and value == decimal[key][1][0], key
    # the loader classes themselves keep YAML 1.1's reading
    for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        assert yaml.load("x: 7.5e3", Loader=loader) == {"x": "7.5e3"}
        assert yaml.load("x: .5e3", Loader=loader) == {"x": ".5e3"}


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


@st.composite
def _deep_value_docs(draw):
    """The shipped document with one value, of the document or of an entry,
    replaced by lists and mappings nested 2,000 deep."""
    doc = copy.deepcopy(_SHIPPED)
    where = draw(st.sampled_from([doc, *doc["entries"]]))
    value, kinds = draw(_wild), draw(st.sampled_from([[list], [dict], [list, dict]]))
    for level in range(2000):
        value = [value] if kinds[level % len(kinds)] is list else {"k": value}
    where[draw(st.sampled_from(sorted(where)))] = value
    return doc


@given(doc=_scenario_docs() | _deep_value_docs()
       | st.one_of(st.none(), _wild, st.lists(_wild, max_size=3)))
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_build_schedule_raises_only_schedule_errors(doc):
    """Any other exception escaping the one check of a scenario document fails here."""
    try:
        tj.build_schedule(doc)
    except tj.ScheduleError:
        pass


def _unreadable(what, line, column, source_line):
    """The (libyaml, pure-Python) message for a scalar no constructor can read;
    the pure-Python one quotes the line, cut at 75 characters, under a caret."""
    where = (f'found {what} that cannot be read\n'
             f'  in "<unicode string>", line {line}, column {column}')
    return (f"invalid YAML ({where})",
            f"invalid YAML ({where}:\n    {source_line}\n{' ' * (column + 3)}^)")


@pytest.mark.parametrize("old, new, message", [
    ("  - year: 2013", "  - year: x", "entries[1]: year: expected an integer, got 'x'"),
    ("  - year: 2013", "  - year: true", "entries[1]: year: expected an integer, got True"),
    ("  - year: 2013", "  - year: .inf", "entries[1]: year: expected an integer, got inf"),
    ("  - year: 2013", "  - year: .nan", "entries[1]: year: expected an integer, got nan"),
    ("  - year: 2013", "  - year: 2012.5", "entries[1]: year: expected an integer, got 2012.5"),
    ("span: [2010, 2030]", "span: [null, 2030]", "span: expected an integer, got None"),
    ("  - year: 2013", "  - year: 2010", "entries[1]: year 2010 is not after 2010"),
    ("  - year: 2010", "  - year: 2011", "entries[0]: year 2011 is after the span start 2010"),
    ("  - year: 2013\n", "  - year: 2013\n    1: 5\n    nope: 5\n",
     "entry 2013: unknown schedule fields: [1, 'nope']"),
    # libyaml reads the value and build_schedule refuses it; the pure-Python
    # parser recurses too deep to read it
    ("battery_unit_cost: 7500", "battery_unit_cost: " + "[" * 5000 + "]" * 5000,
     ("entry 2010: battery_unit_cost: expected a finite number, got [[[[[[[...]]]]]]]",
      "invalid YAML (nested too deeply to parse)")),
    # int() reads at most 4,300 digits, and a date needs a month of 1..12
    ("battery_unit_cost: 7500", "battery_unit_cost: " + "9" * 5001,
     _unreadable("an integer", 18, 24, "    battery_unit_cost: " + "9" * 32 + " ... ")),
    ("  - year: 2013", "  - year: " + "9" * 5001,
     _unreadable("an integer", 47, 11, "  - year: " + "9" * 32 + " ... ")),
    # a plain date is text under YAML 1.2; only a tagged one reaches the date reader
    ("  - year: 2013", "  - year: 2013-13-45",
     "entries[1]: year: expected an integer, got '2013-13-45'"),
    ("  - year: 2013", "  - year: !!timestamp 2013-13-45",
     _unreadable("a date", 47, 11, "  - year: !!timestamp 2013-13-45")),
], ids=["year-word", "year-bool", "year-inf", "year-nan", "year-fraction", "span-null",
        "year-repeated", "year-after-span-start", "unknown-keys-of-two-types", "value-deep",
        "value-5001-digits", "year-5001-digits", "year-impossible-date",
        "year-tagged-impossible-date"])
def test_scenario_fault_is_named_in_the_tools_own_words(tmp_path, capsys, monkeypatch,
                                                        old, new, message):
    """Under each YAML loader; `message` is one text for both, or a (libyaml,
    pure-Python) pair."""
    text = config.scenario_path("long-range").read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new, 1))
    for loader in (config._Loader, yaml.SafeLoader):
        expected = message[loader is yaml.SafeLoader] if isinstance(message, tuple) else message
        monkeypatch.setattr(config, "_Loader", loader)
        assert run(["tco", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {expected}\n"
        for leak in ("runtime error", "Exceeds the limit", "maximum recursion depth"):
            assert leak not in err


@pytest.mark.parametrize("old, new, message", [
    ("span: [2010, 2030]", "span: [2010]", "span must be a"),
    ("span: [2010, 2030]", "span: 2010", "span must be a"),
    ("  - year: 2013", "  - year: .inf",
     r"bad\.yaml: entries\[1\]: year: expected an integer, got inf$"),
    ("  - year: 2013", "  - year: .nan",
     r"bad\.yaml: entries\[1\]: year: expected an integer, got nan$"),
    ("interpolation:\n", "interpolation: null\nunused:\n", "interpolation must be a mapping"),
    ("discount_rate: 0.05", "discount_rate: 1.0e+300", "discount_rate: 1e\\+300 outside"),
    ("lifecycle_years: 10", "lifecycle_years: 1000000000000000", "lifecycle_years: .* outside"),
    ("    - credit_price\n", "    - credit_prise\n",
     "interpolation.step: unknown schedule key 'credit_prise'"),
    ("  step:\n", "  stpe:\n", "interpolation: unknown key 'stpe'$"),
    ("  step:\n    - ev_tax_exempt\n    - acquisition_subsidy\n    - credit_price\n"
     "    - purchase_tax_rate\n    - lifecycle_years\n", "  step: acquisition_subsidy\n",
     "interpolation.step must be a list of schedule keys, got 'acquisition_subsidy'"),
    ("lifecycle_years: 10", "lifecycle_years: 10.9",
     "entry 2010: lifecycle_years: expected an integer, got 10.9"),
    ("lifecycle_years: 10", "lifecycle_years: true",
     "entry 2010: lifecycle_years: expected an integer, got True"),
    ("  - year: 2013", "  - year: 2012.7",
     r"bad\.yaml: entries\[1\]: year: expected an integer, got 2012\.7$"),
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
    ("entries:\n", "entries: {a: 1}\nunused:\n", r"entries must be a list of mappings, got \{'a': 1\}"),
    ("entries:\n", "entries: 5\nunused:\n", "entries must be a list of mappings, got 5"),
    ("entries:\n", "entries: [5]\nunused:\n", r"entries\[0\]: expected a mapping, got 5"),
    ("span: [2010, 2030]", "span: [2030, 2010]", "span: first year 2030 is after last year 2010"),
    ("  - year: 2010\n", "  - yeer: 2010\n", r"bad\.yaml: entries\[0\]: missing key 'year'$"),
    ("name: long-range", "name: [a, b]", r"bad\.yaml: name: expected a string, got \['a', 'b'\]$"),
    ("vehicle_class: long-range", "vehicle_class: 7",
     r"bad\.yaml: vehicle_class: expected a string, got 7$"),
    ("battery_unit_cost: 7500", "battery_unit_cost: '7.5e3'",
     "entry 2010: battery_unit_cost: expected a finite number, got '7.5e3'"),
    ("battery_unit_cost: 7500", "battery_unit_cost: 1e400",
     "entry 2010: battery_unit_cost: expected a finite number, got inf"),
    ("battery_unit_cost: 7500", "battery_unit_cost: .e3",
     "entry 2010: battery_unit_cost: expected a finite number, got '.e3'"),
    ("battery_unit_cost: 7500", "battery_unit_cost: 1.2.3e4",
     "entry 2010: battery_unit_cost: expected a finite number, got '1.2.3e4'"),
    ("battery_unit_cost: 7500", "battery_unit_cost: '.5e3'",
     "entry 2010: battery_unit_cost: expected a finite number, got '.5e3'"),
], ids=["span-one-year", "span-scalar", "year-inf", "year-nan", "interpolation-null",
        "discount-rate-huge", "lifecycle-years-huge", "step-misspelt-key",
        "interpolation-unknown-key", "step-string",
        "lifecycle-years-fraction", "lifecycle-years-bool", "year-fraction", "span-fraction",
        "span-text", "battery-replacements-fraction", "flag-fraction", "flag-integer",
        "number-bool", "entries-mapping", "entries-scalar", "entry-scalar", "span-reversed",
        "entry-without-year", "name-list", "vehicle-class-number", "exponent-quoted",
        "exponent-overflow", "exponent-no-digits", "exponent-two-dots",
        "exponent-quoted-leading-dot"])
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


# Plain scalars read by the YAML 1.2 core rules, where YAML 1.1 reads
# another number (017 as 15, 12:30 as 750), a bool (yes, on) or text (7.5e3).
CORE_SCALARS = {
    "017": 17, "-017": -17, "+0": 0, "12:30": "12:30", "1:00:00": "1:00:00", "1_0_00": "1_0_00",
    "0b1": "0b1", "0x1F": "0x1F", "0x10": "0x10", "0o17": "0o17", "1:30.5": "1:30.5",
    "yes": "yes", "on": "on", "No": "No", "off": "off", "2013-12-01": "2013-12-01", "=": "=",
    "true": True, "FALSE": False, "~": None, "null": None, "": None, "7.": 7.0, "-.5": -0.5,
    ".e3": ".e3", "1.2.3e4": "1.2.3e4", "1e": "1e", ".": ".", "+": "+",
    # the exponent forms, as the decimal numbers they stand for
    **{exponent.split(": ")[1]: float(decimal.split(": ")[1])
       for decimal, exponent in EXPONENT_FORMS.items()},
}


@pytest.mark.parametrize("text, value", CORE_SCALARS.items(), ids=list(CORE_SCALARS))
def test_plain_scalars_follow_the_yaml_1_2_core_rules(text, value, loader):
    got = yaml.load(f"x: {text}\n", Loader=config._unique_keys(config._Loader))["x"]
    assert (type(got), got) == (type(value), value)


def test_special_floats_follow_the_yaml_1_2_core_rules(loader):
    doc = yaml.load("[.inf, -.Inf, +.INF, .nan, .NaN, .NAN, +.nan]",
                    Loader=config._unique_keys(config._Loader))
    assert doc[:3] == [math.inf, -math.inf, math.inf]
    assert all(map(math.isnan, doc[3:6])) and doc[6] == "+.nan"


def test_a_sexagesimal_value_exits_1_naming_the_key(tmp_path, capsys, loader):
    """YAML 1.1 read 12:30 as 750 and priced it."""
    text = config.scenario_path("long-range").read_text()
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("battery_unit_cost: 7500\n", "battery_unit_cost: 12:30\n"))
    assert run(["tco", "--scenario", str(bad), "--year", "2010"]) == 1
    assert capsys.readouterr().err == (f"error: {bad}: entry 2010: battery_unit_cost: "
                                       "expected a finite number, got '12:30'\n")


# The core schema's decimal int and its finite float, as the YAML 1.2 spec writes them.
CORE_INT = r"[-+]?[0-9]+"
CORE_FLOAT = r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?"


@given(text=st.from_regex(CORE_INT, fullmatch=True) | st.from_regex(CORE_FLOAT, fullmatch=True))
@settings(max_examples=300, deadline=None)
def test_core_numbers_load_as_int_or_float_of_their_text(text):
    for base in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        got = yaml.load(f"x: {text}\n", Loader=config._unique_keys(base))["x"]
        if re.fullmatch(CORE_INT, text):
            assert type(got) is int and got == int(text), text
        else:
            assert type(got) is float and got.hex() == float(text).hex(), text


@st.composite
def _exponent_forms(draw):
    """A number written with an exponent, as a YAML plain scalar, and the same
    number written in decimal."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.sampled_from(["", str(draw(st.integers(0, 99_999)))]))
    fracs = [f".{d}" for d in ("0", "5", "25", "0625")]
    # a dot needs a digit on one side at least: 7.e3 and .5e3, never .e3
    frac = draw(st.sampled_from([*fracs, "", "."] if whole else fracs))
    exp = draw(st.integers(-4, 8))
    exp_text = draw(st.sampled_from(["", "+"] if exp >= 0 else [""])) + str(exp)
    mark = draw(st.sampled_from("eE"))
    written = f"{sign}{whole}{frac}{mark}{exp_text}"
    return written, format(Decimal(written), "f")


@given(forms=_exponent_forms())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exponent_forms_give_the_rows_of_their_decimal_value(forms, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("exponent")
    text = config.scenario_path("long-range").read_text()
    assert text.count("battery_unit_cost: 7500\n") == 1
    outputs = []
    for i, written in enumerate(forms):
        scenario = workdir / f"form{i}.yaml"
        scenario.write_text(text.replace("battery_unit_cost: 7500\n",
                                         f"battery_unit_cost: {written}\n"))
        out = workdir / f"tco{i}.csv"
        code = run(["tco", "--scenario", str(scenario), "--year", "2010", "--out", str(out)])
        rows = ([l for l in out.read_text().splitlines() if not l.startswith("#")]
                if code == 0 else None)
        outputs.append((code, rows))
    assert outputs[0] == outputs[1], forms
