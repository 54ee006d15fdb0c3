import dataclasses

import pytest

from greenpremium import config
from greenpremium import trajectory as tj
from greenpremium.cli import load_sales_csv


def flat_series(years, lifecycle):
    """A premium series whose lifecycle premium is `lifecycle` in every one of `years`."""
    return tj.PremiumSeries(points=tuple(
        tj.PremiumPoint(y, 0.0, 0.0, lifecycle, 1.0, 1.0, 1.0, 1.0) for y in years))


def snapshot_bits(sc):
    """Every field of a scenario snapshot with its value's type and exact text;
    repr round-trips floats, so equal lists mean equal bits."""
    return [(f.name, type(getattr(sc, f.name)), repr(getattr(sc, f.name)))
            for f in dataclasses.fields(sc)]


@pytest.fixture(scope="session")
def long_range():
    return config.load_schedule("long-range")


@pytest.fixture(scope="session")
def short_range():
    return config.load_schedule("short-range")


@pytest.fixture(scope="session")
def lr_2021(long_range):
    return tj.resolve_scenario(long_range, 2021)


@pytest.fixture(scope="session")
def lr_series(long_range):
    return tj.premium_series(long_range, range(2010, 2031))


@pytest.fixture(scope="session")
def sr_series(short_range):
    return tj.premium_series(short_range, range(2010, 2031))


@pytest.fixture(scope="session")
def china_sales():
    return load_sales_csv(str(config.sample_sales_path()))
