"""Genetic-algorithm least squares for adoption-curve parameters.

The estimator searches a real-valued genome (p, q[, beta][, m]) with
tournament selection, blend crossover, Gaussian mutation and one-individual
elitism. Residuals after `late_weight_from_year` carry extra weight, and
negative pre-clamp flows are penalised so the fitted curve stays physical
over the observation window. All randomness flows through one seeded
generator drawn in a fixed order, so a seed fully determines the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .diffusion import BassParams, flows, simulate
from .trajectory import PremiumSeries


class FitError(ValueError):
    """Infeasible configuration or degenerate observations."""


class ObservationError(ValueError):
    """One invalid observation.

    `reason` says what is wrong with it, `index` is its position in the
    points as given and, for a repeated year, `first` is the position of
    the earlier point with that year. A loader maps the positions to lines.
    """

    def __init__(self, reason: str, index: int, first: int | None = None) -> None:
        first_at = "" if first is None else f" (first at observation {first})"
        super().__init__(f"observation {index}: {reason}{first_at}; sales must be "
                         "finite and non-negative, one observation per year")
        self.reason, self.index, self.first = reason, index, first


@dataclass(frozen=True)
class ObservationSeries:
    """Observed (year, annual sales) pairs, sorted and validated."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        seen: dict[int, int] = {}
        for i, (year, sales) in enumerate(self.points):
            if not math.isfinite(sales):
                raise ObservationError("non-finite sales", i)
            if sales < 0:
                raise ObservationError("negative sales", i)
            if year in seen:
                raise ObservationError(f"duplicate year {year}", i, seen[year])
            seen[year] = i
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.points)

    @property
    def sales(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.points)

    def __len__(self) -> int:
        return len(self.points)


DEFAULT_BOUNDS: Mapping[str, tuple[float, float]] = {
    "p": (1e-4, 0.02),
    "q": (0.05, 0.8),
    "beta": (-8.0, 2.0),
    "m": (21_000.0, 150_000.0),
}


@dataclass(frozen=True)
class FitConfig:
    population_size: int = 800
    crossover_prob: float = 0.8
    mutation_prob: float = 0.1
    max_generations: int = 500
    rng_seed: int = 0
    bounds: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_BOUNDS))
    m_mode: str = "free"            # "free" or "fixed"
    m_value: float = 21_000.0       # used when m_mode == "fixed"
    late_weight: float = 4.0
    late_weight_from_year: int = 2018
    penalty_weight: float = 1e4
    early_stop: bool = True
    stagnation_tol: float = 1e-10
    stagnation_patience: int = 50

    def __post_init__(self) -> None:
        if not (0.0 <= self.crossover_prob <= 1.0 and 0.0 <= self.mutation_prob <= 1.0):
            raise FitError("probabilities must lie in [0, 1]")
        if self.population_size < 2:
            raise FitError("population_size must be >= 2")
        if self.m_mode not in ("free", "fixed"):
            raise FitError("m_mode must be 'free' or 'fixed'")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise FitError(f"bounds for {name!r} must be finite and ordered")
        if "m" in self.bounds and not self.bounds["m"][0] > 0:
            raise FitError("bounds for 'm' must have a lower end > 0")
        for name in ("late_weight", "m_value"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise FitError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("penalty_weight", "stagnation_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise FitError(f"{name} must be finite and >= 0, got {value!r}")
        if self.max_generations < 0:
            raise FitError(f"max_generations must be >= 0, got {self.max_generations}")
        if self.stagnation_patience < 1:
            raise FitError(
                f"stagnation_patience must be >= 1, got {self.stagnation_patience}")


@dataclass(frozen=True)
class FitResult:
    params: BassParams
    objective: float
    r_squared: float
    generations_run: int
    converged: bool
    history: tuple[float, ...]
    # (gene, "lower" | "upper") for each fitted gene that ended on a bound
    at_bounds: tuple[tuple[str, str], ...] = ()


class _FitProblem:
    """What every evaluation of one fit shares, built once per fit.

    Genes are p, q, then beta when a premium series is given, then m unless
    it is fixed at `m_value`. Without premiums dp3 is all zeros, so x = 1.
    """

    def __init__(self, obs: ObservationSeries, premiums: PremiumSeries | None,
                 cfg: FitConfig, m_value: float | None) -> None:
        if len(obs) == 0:
            raise FitError("no observations")
        years = obs.years
        sim_years = range(years[0], years[-1] + 1)
        if premiums is not None:
            missing = [y for y in sim_years if y not in premiums.years]
            if missing:
                raise FitError(f"premium series missing years {missing}")
        self.dp3 = np.array([0.0 if premiums is None else premiums.lifecycle(y)
                             for y in sim_years])
        self.genes = (("p", "q") + (("beta",) if premiums is not None else ())
                      + (("m",) if m_value is None else ()))
        self.m_value = m_value
        self.penalty_weight = cfg.penalty_weight
        self.columns = np.array([y - years[0] for y in years])
        self.weights = np.array([cfg.late_weight if y >= cfg.late_weight_from_year
                                 else 1.0 for y in years])[:, None]
        self.seen = np.array(obs.sales)[:, None]

    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Weighted SSE + positivity penalty for each genome row."""
        cols = dict(zip(self.genes, genomes.T))
        flow, raw = flows(cols["p"], cols["q"], cols.get("m", self.m_value),
                          cols.get("beta", 0.0), self.dp3)
        # Both terms are built as (years, rows) blocks in raw's memory, the
        # squared negative raw flows first, then the weighted squared residuals.
        raw = raw.T
        np.negative(raw, out=raw)
        np.maximum(raw, 0.0, out=raw)
        np.square(raw, out=raw)
        # Sums run year by year; a pairwise sum over years would move last bits.
        penalty = np.zeros(len(genomes))
        for term in raw:
            penalty += term
        residual = flow.T.take(self.columns, axis=0, out=raw[:len(self.columns)])
        residual -= self.seen
        np.square(residual, out=residual)
        residual *= self.weights
        total = np.zeros(len(genomes))
        for term in residual:
            total += term
        penalty *= self.penalty_weight
        total += penalty
        return total


def objective(params: BassParams, obs: ObservationSeries,
              premiums: PremiumSeries | None, cfg: FitConfig) -> float:
    """The fitting loss for one parameter vector.

    Sum over observations of w(year) * (predicted - observed)^2, with
    w(year) = late_weight from late_weight_from_year onward, plus
    penalty_weight times the squared negative part of each pre-clamp flow.
    """
    problem = _FitProblem(obs, premiums, cfg, m_value=params.m)
    if premiums is None and params.beta != 0.0:
        raise FitError("a premium series is required to fit beta")
    genome = [params.p, params.q] + ([params.beta] if premiums is not None else [])
    return float(problem.evaluate(np.array([genome]))[0])


def ga_fit(obs: ObservationSeries, premiums: PremiumSeries | None,
           cfg: FitConfig) -> FitResult:
    """Estimate parameters by generational GA; deterministic per rng_seed."""
    if len(obs) < 4:
        raise FitError("need at least 4 observations")
    if all(s == 0 for s in obs.sales):
        raise FitError("degenerate fit: all observations are zero")

    problem = _FitProblem(obs, premiums, cfg,
                          m_value=cfg.m_value if cfg.m_mode == "fixed" else None)
    gene_names = problem.genes
    for g in gene_names:
        if g not in cfg.bounds:
            raise FitError(f"missing bounds for parameter {g!r}")
    lo = np.array([cfg.bounds[g][0] for g in gene_names])
    hi = np.array([cfg.bounds[g][1] for g in gene_names])
    sigma = 0.1 * (hi - lo)

    rng = np.random.default_rng(cfg.rng_seed)
    n_pop, n_genes = cfg.population_size, len(gene_names)
    pop = lo + rng.random((n_pop, n_genes)) * (hi - lo)
    fitness = problem.evaluate(pop)

    # Each generation draws, in this order: tournament contenders; one uniform
    # block split into crossover flags, blend weights and mutation flags; and
    # standard normal mutation noise. Children go straight into the rows after
    # the elite of the other population buffer, and the buffers then swap.
    n_children = n_pop - 1
    uniforms = np.empty(n_children * (1 + 2 * n_genes))
    cx_u = uniforms[:n_children]
    blend_u, mut_u = uniforms[n_children:].reshape(2, n_children, n_genes)
    mut_noise = np.empty((n_children, n_genes))
    # Per-gene vectors repeated per child: same-shape operands are cheaper than broadcasts.
    lo_rows, hi_rows, sigma_rows = (np.tile(v, (n_children, 1)) for v in (lo, hi, sigma))
    next_pop = np.empty_like(pop)
    next_fitness = np.empty_like(fitness)

    history: list[float] = []
    best_obj = float(np.min(fitness))
    stale = 0
    generations = 0
    converged = False
    for _ in range(cfg.max_generations):
        generations += 1
        order = int(np.argmin(fitness))
        next_pop[0] = pop[order]
        next_fitness[0] = fitness[order]

        contenders = rng.integers(0, n_pop, size=(n_children, 2, 3))
        rng.random(out=uniforms)
        rng.standard_normal(out=mut_noise)
        mut_noise *= sigma_rows

        # Tournaments of three per parent slot: strict compares keep the first
        # of equal contenders, as argmin does (fitness is finite).
        cands = contenders.transpose(2, 1, 0).copy()    # (contender, slot, child)
        fit = fitness.take(cands)
        first = fit[1] < fit[0]
        winners = np.where(first, cands[1], cands[0])
        np.copyto(winners, cands[2], where=fit[2] < np.where(first, fit[1], fit[0]))
        pa, pb = pop.take(winners, axis=0)

        # BLX-0.5 blend: sample inside the parent interval widened by half
        # its span on each side; non-crossover children copy parent A.
        # In place: children = gmin - 0.5*span + blend_u*(2.0*span), rounded in that order.
        children = next_pop[1:]
        gmin = np.minimum(pa, pb)
        span = np.maximum(pa, pb)
        span -= gmin
        np.multiply(span, 0.5, out=children)
        np.subtract(gmin, children, out=children)
        span *= 2.0
        span *= blend_u
        children += span
        np.copyto(children, pa, where=(cx_u >= cfg.crossover_prob)[:, None])
        np.add(children, mut_noise, out=children, where=mut_u < cfg.mutation_prob)
        np.maximum(children, lo_rows, out=children)
        np.minimum(children, hi_rows, out=children)

        # Rows evaluate independently, so the elite keeps its fitness.
        next_fitness[1:] = problem.evaluate(children)
        pop, next_pop = next_pop, pop
        fitness, next_fitness = next_fitness, fitness

        gen_best = float(np.min(fitness))
        history.append(gen_best)
        if best_obj - gen_best > cfg.stagnation_tol:
            stale = 0
        else:
            stale += 1
        best_obj = min(best_obj, gen_best)
        if cfg.early_stop and stale >= cfg.stagnation_patience:
            converged = True
            break

    winner = pop[int(np.argmin(fitness))]
    values = dict(zip(gene_names, (float(v) for v in winner)))
    # Clamping puts a gene exactly on its bound, so == finds it.
    at_bounds = tuple((g, "lower" if values[g] == cfg.bounds[g][0] else "upper")
                      for g in gene_names if values[g] in cfg.bounds[g])
    params = BassParams(
        p=values["p"], q=values["q"],
        m=values.get("m", cfg.m_value),
        beta=values.get("beta", 0.0))
    predicted = predictions(params, obs, premiums)
    return FitResult(
        params=params,
        objective=best_obj,
        r_squared=r_squared(predicted, obs.sales),
        generations_run=generations,
        converged=converged,
        history=tuple(history),
        at_bounds=at_bounds,
    )


def predictions(params: BassParams, obs: ObservationSeries,
                premiums: PremiumSeries | None) -> tuple[float, ...]:
    """Fitted annual flows at the observation years."""
    years = obs.years
    states = simulate(params, premiums, years[0], years[-1] - years[0] + 1)
    by_year = {s.year: s.new_adopters for s in states}
    return tuple(by_year[y] for y in years)


def r_squared(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Coefficient of determination about the observed mean."""
    if len(predicted) != len(observed) or len(observed) < 2:
        raise ValueError("need equal-length series of at least 2 points")
    mean = sum(observed) / len(observed)
    sst = sum((o - mean) ** 2 for o in observed)
    if sst == 0:
        raise ValueError("R^2 undefined: observations are all equal")
    sse = sum((p - o) ** 2 for p, o in zip(predicted, observed))
    return 1.0 - sse / sst


def compare_models(obs: ObservationSeries, premiums: PremiumSeries | None,
                   cfg: FitConfig) -> tuple[FitResult, FitResult]:
    """Fit with and without the cost-gap term under identical settings.

    Returns (vanilla, generalized); the vanilla run pins beta to zero by
    ignoring the premium series entirely.
    """
    if premiums is None or not premiums.points:
        raise FitError("compare_models requires a non-empty premium series")
    vanilla = ga_fit(obs, None, cfg)
    generalized = ga_fit(obs, premiums, cfg)
    return vanilla, generalized
