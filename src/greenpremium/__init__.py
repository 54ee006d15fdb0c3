"""Green-premium cost modelling and EV market diffusion forecasting."""

from .costmodel import (DomainError, EvPowertrain, IcevPowertrain,
                        MarketPrices, ResidualAndFinance, SubsidyPolicy,
                        UsageProfile, VehicleKind, VehicleScenario,
                        acquisition_premium, annual_operating_cost,
                        cafc_compliance_cost, government_subsidy_ev, lcod,
                        lifecycle_premium, production_cost_ev,
                        production_cost_icev, production_premium, tco_npv)
from .diffusion import (AdoptionState, BassParams, closed_form_cumulative,
                        decision_coefficient, flows, simulate)
from .fitting import (FitConfig, FitResult, ObservationSeries, compare_models,
                      ga_fit, objective, r_squared)
from .trajectory import (PremiumPoint, PremiumSeries, ScenarioSchedule,
                         ScheduleEntry, parity_year, premium_series,
                         resolve_scenario)
from .sensitivity import (FactorSpec, SensitivityRow, coefficient, perturb,
                          sensitivity_table)

__version__ = "0.1.0"
