"""Green-premium cost modelling and EV market diffusion forecasting."""

from importlib import import_module

from .costmodel import (DomainError, EvPowertrain, IcevPowertrain,
                        MarketPrices, ResidualAndFinance, SubsidyPolicy,
                        UsageProfile, VehicleKind, VehicleScenario,
                        acquisition_premium, annual_operating_cost,
                        cafc_compliance_cost, government_subsidy_ev, lcod,
                        lifecycle_premium, production_cost_ev,
                        production_cost_icev, production_premium, tco_npv)
from .trajectory import (PremiumPoint, PremiumSeries, ScenarioSchedule,
                         ScheduleEntry, parity_year, premium_series,
                         resolve_scenario)
from .sensitivity import (FactorSpec, SensitivityRow, coefficient, perturb,
                          sensitivity_table)

__version__ = "0.1.0"

# The adoption and fitting modules import numpy; they load on first use
# (PEP 562), so the scenario commands start without it.
_LAZY = {
    "diffusion": ("AdoptionState", "BassParams", "closed_form_cumulative",
                  "decision_coefficient", "flows", "simulate"),
    "fitting": ("FitConfig", "FitResult", "ObservationSeries", "compare_models",
                "ga_fit", "objective", "r_squared"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
