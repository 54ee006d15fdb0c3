import pytest
import yaml

from greenpremium import config


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
