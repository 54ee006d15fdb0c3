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


@dataclass(frozen=True)
class ObservationSeries:
    """Observed (year, annual sales) pairs, sorted and validated."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(self.points))
        object.__setattr__(self, "points", pts)
        years = [y for y, _ in pts]
        if len(set(years)) != len(years):
            dupes = sorted({y for y in years if years.count(y) > 1})
            raise ValueError(f"duplicate observation years: {dupes}")
        if any(s < 0 for _, s in pts):
            raise ValueError("sales must be non-negative")

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


@dataclass(frozen=True)
class FitResult:
    params: BassParams
    objective: float
    r_squared: float
    generations_run: int
    converged: bool
    history: tuple[float, ...]


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
        self.terms = [(y - years[0], cfg.late_weight if y >= cfg.late_weight_from_year
                       else 1.0, seen) for y, seen in obs.points]

    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Weighted SSE + positivity penalty for each genome row."""
        cols = dict(zip(self.genes, genomes.T))
        zeros = np.zeros(len(genomes))
        flow, raw = flows(cols["p"], cols["q"], cols.get("m", self.m_value),
                          cols.get("beta", zeros), self.dp3)
        # Sums run year by year; a pairwise sum(axis=1) would move last bits.
        total = zeros.copy()
        for col, weight, seen in self.terms:
            total += weight * np.square(flow[:, col] - seen)
        penalty = zeros.copy()
        for year_raw in raw.T:
            penalty += np.square(np.maximum(-year_raw, 0.0))
        return total + self.penalty_weight * penalty


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
    pop = lo + rng.random((cfg.population_size, len(gene_names))) * (hi - lo)
    fitness = problem.evaluate(pop)

    history: list[float] = []
    best_obj = float(np.min(fitness))
    stale = 0
    generations = 0
    converged = False
    for _ in range(cfg.max_generations):
        generations += 1
        order = int(np.argmin(fitness))
        elite = pop[order].copy()

        n_children = cfg.population_size - 1
        contenders = rng.integers(0, cfg.population_size, size=(n_children, 2, 3))
        do_cx = rng.random(n_children) < cfg.crossover_prob
        blend_u = rng.random((n_children, len(gene_names)))
        mut_mask = rng.random((n_children, len(gene_names))) < cfg.mutation_prob
        mut_noise = rng.normal(0.0, 1.0, size=(n_children, len(gene_names))) * sigma

        parent_idx = contenders[:, :, 0].copy()
        for slot in (0, 1):
            cand = contenders[:, slot, :]
            cand_fit = fitness[cand]
            parent_idx[:, slot] = cand[np.arange(n_children), np.argmin(cand_fit, axis=1)]
        pa = pop[parent_idx[:, 0]]
        pb = pop[parent_idx[:, 1]]

        # BLX-0.5 blend: sample inside the parent interval widened by half
        # its span on each side; non-crossover children copy parent A.
        gmin = np.minimum(pa, pb)
        gmax = np.maximum(pa, pb)
        span = gmax - gmin
        children = gmin - 0.5 * span + blend_u * (2.0 * span)
        children = np.where(do_cx[:, None], children, pa)
        children = np.where(mut_mask, children + mut_noise, children)
        children = np.clip(children, lo, hi)

        # Rows evaluate independently, so the elite keeps its fitness.
        pop = np.vstack([elite[None, :], children])
        fitness = np.concatenate([fitness[order:order + 1], problem.evaluate(children)])

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
