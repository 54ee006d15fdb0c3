"""Bass-style adoption dynamics, with an optional cost-gap response term.

The annual recursion, written once in `flows`, is
    n(t) = min(m - N, max(0, (p*(m - N) + q*(N/m)*(m - N)) * x(t)))
    N(t+1) = N(t) + n(t)
where x(t) = 1 + beta * lifecycle_premium(t) when a premium series is
supplied and 1 otherwise. Large positive premiums with beta < 0 can push
x(t) negative; flows are clamped at zero rather than allowing disadoption.
This is the generalized Bass model (Bass, Krishnan & Jain 1994).

Units follow the calibration data: vehicles are counted in thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .trajectory import PremiumSeries


@dataclass(frozen=True)
class BassParams:
    """p: innovation rate (1/yr), q: imitation rate (1/yr), m: market
    potential (thousand vehicles), beta: cost-gap influence coefficient."""

    p: float
    q: float
    m: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise ValueError("p must be > 0")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if not self.m > 0:
            raise ValueError("m must be > 0")
        for name in ("p", "q", "m", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class AdoptionState:
    """One simulated year: cumulative adopters entering the year, plus the
    year's new adopters."""

    year: int
    cumulative: float
    new_adopters: float


def decision_coefficient(delta_p3: float, beta: float) -> float:
    """Purchase-decision multiplier driven by the lifecycle cost gap."""
    return 1.0 + delta_p3 * beta


def flows(p, q, m, beta, dp3, initial: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The adoption recursion for a batch of parameter rows.

    p, q, m and beta are scalars or equal-length arrays, one value per row;
    dp3 holds one lifecycle premium per simulated year (zeros give x = 1).
    Every row starts from min(initial, m). Returns (flows, raw), each of
    shape (rows, years): the clamped annual flows and the pre-clamp flows.
    All arithmetic is elementwise, so a row's result does not depend on the
    other rows in the batch.
    """
    p, q, m, beta = np.broadcast_arrays(*np.atleast_1d(p, q, m, beta))
    dp3 = np.asarray(dp3, dtype=float)
    # One block, not two, so the allocator reuses it instead of mapping fresh pages.
    raw, out = np.empty((2, len(dp3), len(p)))
    cumulative = np.minimum(initial, m).astype(float)
    for r, f, dp3_t in zip(raw, out, dp3):
        # r = (p*(m - N) + q*(N/m)*(m - N)) * x in place, rounding as the formula does
        remaining = m - cumulative
        np.multiply(q, cumulative / m, out=r)
        r *= remaining
        r += p * remaining
        r *= decision_coefficient(dp3_t, beta)
        np.minimum(np.maximum(r, 0.0, out=f), remaining, out=f)
        cumulative += f
    return out.T, raw.T


def simulate(params: BassParams,
             premium_by_year: "PremiumSeries | None",
             start_year: int,
             horizon: int,
             initial_cumulative: float = 0.0) -> tuple[AdoptionState, ...]:
    """Run the annual recursion for `horizon` years from `start_year`.

    With a premium series, each year's flow is scaled by
    decision_coefficient(lifecycle premium, beta); the series must cover
    every simulated year.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    years = range(start_year, start_year + horizon)
    if premium_by_year is not None:
        missing = [y for y in years if y not in premium_by_year.years]
        if missing:
            raise ValueError(f"premium series missing years {missing}")
    dp3 = [0.0 if premium_by_year is None else premium_by_year.lifecycle(y)
           for y in years]
    flow, _ = flows(params.p, params.q, params.m, params.beta, dp3, initial_cumulative)
    row = flow[0].tolist()
    entering = accumulate(row, initial=min(initial_cumulative, params.m))
    return tuple(AdoptionState(year=year, cumulative=cumulative, new_adopters=flow)
                 for year, cumulative, flow in zip(years, entering, row))


def closed_form_cumulative(params: BassParams, t: float) -> float:
    """Continuous-time cumulative adoption fraction F(t), starting from zero.

    F(t) = (1 - exp(-(p+q) t)) / (1 + (q/p) exp(-(p+q) t))
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    decay = math.exp(-(params.p + params.q) * t)
    return (1.0 - decay) / (1.0 + (params.q / params.p) * decay)
