"""Green-premium cost modelling and EV market diffusion forecasting.

Each name is imported from the module that defines it, e.g.
`greenpremium.fitting.ga_fit`.
"""

__version__ = "0.1.0"
