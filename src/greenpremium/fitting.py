"""Genetic-algorithm least squares for adoption-curve parameters.

The estimator searches a real-valued genome (p, q[, beta][, m]) with
tournament selection, blend crossover, Gaussian mutation and one-individual
elitism. Residuals from `LATE_WEIGHT_FROM_YEAR` on carry extra weight, and
negative pre-clamp flows are penalised so the fitted curve stays physical
over the observation window. All randomness flows through one seeded
generator drawn in a fixed order, so a seed fully determines the result.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

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


# The GA's fixed settings; FitConfig holds the ones a caller chooses.
CROSSOVER_PROB = 0.8            # a child blends its parents, else copies the first
MUTATION_PROB = 0.1             # per gene
LATE_WEIGHT_FROM_YEAR = 2018    # residuals from here on weigh FitConfig.late_weight
PENALTY_WEIGHT = 1e4            # per squared negative pre-clamp flow
# With early_stop, a fit ends after STAGNATION_PATIENCE generations in a row
# that lower the best objective by no more than STAGNATION_TOL.
STAGNATION_TOL = 1e-10
STAGNATION_PATIENCE = 50
# First to last observed year, inclusive; at 800 genomes a 12.8 MB flow block.
MAX_WINDOW_YEARS = 1000
# Genomes per generation; over MAX_WINDOW_YEARS a 1.6 GB flow block.
MAX_POPULATION = 100_000
DEFAULT_BOUNDS: Mapping[str, tuple[float, float]] = MappingProxyType({
    "p": (1e-4, 0.02),
    "q": (0.05, 0.8),
    "beta": (-8.0, 2.0),
    "m": (21_000.0, 150_000.0),
})


@dataclass(frozen=True)
class FitConfig:
    population_size: int = 800
    max_generations: int = 500
    rng_seed: int = 0
    m_value: float | None = None    # pins m when set
    late_weight: float = 4.0
    early_stop: bool = True
    # The fixed parameter box, readable from a config; not a setting.
    bounds: ClassVar[Mapping[str, tuple[float, float]]] = DEFAULT_BOUNDS

    def __post_init__(self) -> None:
        if not 2 <= self.population_size <= MAX_POPULATION:
            raise FitError(f"population_size must be between 2 and {MAX_POPULATION}, "
                           f"got {self.population_size}")
        if self.rng_seed < 0:
            raise FitError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name in ("late_weight", "m_value"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise FitError(f"{name} must be finite and > 0, got {value!r}")
        if self.max_generations < 0:
            raise FitError(f"max_generations must be >= 0, got {self.max_generations}")


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

    Genes are p, q, beta and m, minus those pinned in `fixed`; without
    premiums beta is pinned at 0 (the vanilla model) and dp3 is all zeros.
    """

    def __init__(self, obs: ObservationSeries, premiums: PremiumSeries | None,
                 cfg: FitConfig, fixed: Mapping[str, float]) -> None:
        if len(obs) == 0:
            raise FitError("no observations")
        years = obs.years
        sim_years = range(years[0], years[-1] + 1)
        if len(sim_years) > MAX_WINDOW_YEARS:
            raise FitError(f"observations span {years[0]} to {years[-1]}, more than "
                           f"the {MAX_WINDOW_YEARS} years a fit may simulate")
        try:
            self.dp3 = np.array([0.0] * len(sim_years) if premiums is None
                                else premiums.lifecycles(sim_years))
        except ValueError as exc:
            raise FitError(str(exc)) from None
        self.fixed = {**({"beta": 0.0} if premiums is None else {}), **fixed}
        if premiums is None and self.fixed["beta"] != 0.0:
            raise FitError("a premium series is required to fit beta")
        self.genes = tuple(g for g in ("p", "q", "beta", "m") if g not in self.fixed)
        self.columns = np.array([y - years[0] for y in years])
        self.weights = np.array([cfg.late_weight if y >= LATE_WEIGHT_FROM_YEAR
                                 else 1.0 for y in years])[:, None]
        self.seen = np.array(obs.sales)[:, None]

    def params(self, genome: Sequence[float]) -> BassParams:
        return BassParams(**self.fixed, **{g: float(v) for g, v in zip(self.genes, genome)})

    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Weighted SSE + positivity penalty for each genome row."""
        cols = {**self.fixed, **dict(zip(self.genes, np.ascontiguousarray(genomes.T)))}
        flow, raw = flows(cols["p"], cols["q"], cols["m"], cols["beta"], self.dp3, len(genomes))
        # Both terms are built as (years, rows) blocks in raw's memory, the
        # squared negative raw flows first, then the weighted squared residuals.
        np.minimum(raw, 0.0, out=raw)
        np.square(raw, out=raw)
        # Sums run year by year; a pairwise sum over years would move last bits.
        penalty = np.zeros(len(genomes))
        for term in raw:
            penalty += term
        residual = flow.take(self.columns, axis=0, out=raw[:len(self.columns)])
        residual -= self.seen
        np.square(residual, out=residual)
        residual *= self.weights
        total = np.zeros(len(genomes))
        for term in residual:
            total += term
        penalty *= PENALTY_WEIGHT
        total += penalty
        return total


def objective(params: BassParams, obs: ObservationSeries,
              premiums: PremiumSeries | None, cfg: FitConfig) -> float:
    """The fitting loss for one parameter vector, as a fit with every gene pinned scores it.

    Sum over observations of w(year) * (predicted - observed)^2, with
    w(year) = cfg.late_weight from LATE_WEIGHT_FROM_YEAR onward, plus
    PENALTY_WEIGHT times the squared negative part of each pre-clamp flow.
    A loss that is NaN, from a flow of inf * 0, raises a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(_FitProblem(obs, premiums, cfg, vars(params)).evaluate(np.empty((1, 0)))[0])
    if math.isnan(loss):
        raise ValueError("objective is NaN: a flow is inf * 0, as where the flow before "
                         "1 + premium * beta overflows and that coefficient is 0")
    return loss


def _breed(rng: np.random.Generator, pop: np.ndarray, fitness: np.ndarray, children: np.ndarray,
           lo_rows: np.ndarray, hi_rows: np.ndarray, sigma_rows: np.ndarray) -> None:
    """Fill `children` from `pop` with one generation's draws from `rng`, in
    this order: the tournament contenders, as (contender, slot, child); one
    crossover uniform per child; the blend weights; the mutation flags; and
    standard normal noise scaled by each gene's sigma."""
    n_children = len(children)
    cands = rng.integers(0, len(pop), size=(n_children, 2, 3)).transpose(2, 1, 0)
    keep_a = rng.random((n_children, 1)) >= CROSSOVER_PROB
    blend_u = rng.random(children.shape)
    mutate = rng.random(children.shape) < MUTATION_PROB
    noise = rng.standard_normal(children.shape) * sigma_rows

    # Tournaments of three per parent slot: strict compares keep the first
    # of equal contenders, as argmin does (for any fitness without NaN).
    fit = fitness.take(cands)
    first = fit[1] < fit[0]
    winners = np.where(first, cands[1], cands[0])
    np.copyto(winners, cands[2], where=fit[2] < np.where(first, fit[1], fit[0]))
    pa, pb = pop.take(winners, axis=0)

    # BLX-0.5 blend: sample inside the parent interval widened by half
    # its span on each side; non-crossover children copy parent A.
    # In place: children = gmin - 0.5*span + blend_u*(2.0*span), rounded in that order.
    gmin = np.minimum(pa, pb)
    span = np.maximum(pa, pb)
    span -= gmin
    np.multiply(span, 0.5, out=children)
    np.subtract(gmin, children, out=children)
    span *= 2.0
    span *= blend_u
    children += span
    np.copyto(children, pa, where=keep_a)
    np.add(children, noise, out=children, where=mutate)
    np.maximum(children, lo_rows, out=children)
    np.minimum(children, hi_rows, out=children)


def ga_fit(obs: ObservationSeries, premiums: PremiumSeries | None,
           cfg: FitConfig) -> FitResult:
    """Estimate parameters by generational GA; deterministic per rng_seed."""
    if len(obs) < 4:
        raise FitError("need at least 4 observations")
    if all(s == 0 for s in obs.sales):
        raise FitError("degenerate fit: all observations are zero")
    _sum_of_squares(obs.sales)      # R^2 of the fit must be defined

    problem = _FitProblem(obs, premiums, cfg,
                          {} if cfg.m_value is None else {"m": cfg.m_value})
    gene_names = problem.genes
    lo, hi = np.array([DEFAULT_BOUNDS[g] for g in gene_names]).T
    sigma = 0.1 * (hi - lo)

    rng = np.random.default_rng(cfg.rng_seed)
    n_pop, n_genes = cfg.population_size, len(gene_names)
    pop = lo + rng.random((n_pop, n_genes)) * (hi - lo)

    # Children go straight into the rows after the elite of the other
    # population buffer, and the buffers then swap.
    n_children = n_pop - 1
    # Per-gene vectors repeated per child: same-shape operands are cheaper than broadcasts.
    lo_rows, hi_rows, sigma_rows = (np.tile(v, (n_children, 1)) for v in (lo, hi, sigma))
    next_pop = np.empty_like(pop)
    next_fitness = np.empty(n_pop)

    history: list[float] = []
    stale = 0
    converged = False
    # A genome whose squared error overflows scores inf and loses every tournament.
    with np.errstate(over="ignore"):
        fitness = problem.evaluate(pop)
        order = int(np.argmin(fitness))     # the best genome, NaN first, as np.min reads
        best_obj = float(fitness[order])
        for _ in range(cfg.max_generations):
            next_pop[0] = pop[order]
            next_fitness[0] = fitness[order]
            _breed(rng, pop, fitness, next_pop[1:], lo_rows, hi_rows, sigma_rows)

            # Rows evaluate independently, so the elite keeps its fitness.
            next_fitness[1:] = problem.evaluate(next_pop[1:])
            pop, next_pop = next_pop, pop
            fitness, next_fitness = next_fitness, fitness

            order = int(np.argmin(fitness))
            gen_best = float(fitness[order])
            history.append(gen_best)
            stale = 0 if best_obj - gen_best > STAGNATION_TOL else stale + 1
            best_obj = min(best_obj, gen_best)
            if cfg.early_stop and stale >= STAGNATION_PATIENCE:
                converged = True
                break

    if not math.isfinite(best_obj):
        raise FitError("degenerate fit: no genome has a finite objective; the squared "
                       "error overflows, and the sales (in thousand vehicles), m_value "
                       "and late_weight scale it")
    params = problem.params(pop[order])
    # Clamping puts a gene exactly on its bound, so == finds it.
    at_bounds = tuple((g, "lower" if getattr(params, g) == DEFAULT_BOUNDS[g][0] else "upper")
                      for g in gene_names if getattr(params, g) in DEFAULT_BOUNDS[g])
    predicted = predictions(params, obs, premiums)
    return FitResult(
        params=params,
        objective=best_obj,
        r_squared=r_squared(predicted, obs.sales),
        generations_run=len(history),
        converged=converged,
        history=tuple(history),
        at_bounds=at_bounds,
    )


def predictions(params: BassParams, obs: ObservationSeries,
                premiums: PremiumSeries | None) -> tuple[float, ...]:
    """Fitted annual flows at the observation years."""
    years = obs.years
    states = simulate(params, premiums, years[0], years[-1] - years[0] + 1)
    return tuple(states[y - years[0]].new_adopters for y in years)


def _sum_of_squares(observed: Sequence[float]) -> float:
    """The squared deviations of `observed` about its mean, which R^2 divides
    by; a ValueError when that sum is 0 or not finite."""
    mean = sum(observed) / len(observed)
    try:
        sst = sum((o - mean) ** 2 for o in observed)
    except OverflowError:
        sst = math.inf
    if sst == 0:
        raise ValueError("R^2 undefined: observations are all equal" if len(set(observed)) == 1
                         else "R^2 undefined: observations vary too little")
    if not math.isfinite(sst):
        raise ValueError("R^2 undefined: squared deviations are not finite")
    return sst


def r_squared(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Coefficient of determination about the observed mean."""
    if len(predicted) != len(observed) or len(observed) < 2:
        raise ValueError("need equal-length series of at least 2 points")
    sst = _sum_of_squares(observed)
    try:
        sse = sum((p - o) ** 2 for p, o in zip(predicted, observed))
    except OverflowError:
        sse = math.inf
    if not math.isfinite(sse):
        raise ValueError("R^2 undefined: squared deviations are not finite")
    if not math.isfinite(sse / sst):
        raise ValueError("R^2 undefined: observations vary too little")
    return 1.0 - sse / sst


def _fits_in_parallel() -> bool:
    """Whether `compare_models` forks: this process may run on two CPUs or
    more, and it runs no other Python thread, which a fork would not copy."""
    cpus = getattr(os, "sched_getaffinity", None)
    return cpus is not None and len(cpus(0)) >= 2 and threading.active_count() == 1


def compare_models(obs: ObservationSeries, premiums: PremiumSeries | None,
                   cfg: FitConfig) -> tuple[FitResult, FitResult]:
    """Fit with and without the cost-gap term under identical settings.

    Returns (vanilla, generalized); the vanilla run pins beta to zero by
    ignoring the premium series entirely. Where `_fits_in_parallel` holds,
    the vanilla fit runs in a forked child while this process fits the
    generalized model. Each fit seeds its own generator, so the results are
    the same either way, and so is the error: vanilla's before generalized's.
    """
    if premiums is None or not premiums.points:
        raise FitError("compare_models requires a non-empty premium series")
    if not _fits_in_parallel():
        vanilla = ga_fit(obs, None, cfg)
        return vanilla, ga_fit(obs, premiums, cfg)
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ counts numpy's BLAS pool too; it sits idle, and no fit calls BLAS.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:    # the child: the pickled vanilla fit, or nothing if the fit raised
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(ga_fit(obs, None, cfg)))
        finally:
            os._exit(0)
    os.close(write_fd)
    error = None
    try:
        with open(read_fd, "rb") as pipe:
            try:
                generalized = ga_fit(obs, premiums, cfg)
            except Exception as exc:    # raised once vanilla is known to succeed
                error = exc
            pickled = pipe.read()
    except BaseException:   # an interrupt stops the child too
        import signal
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    # A child that wrote nothing failed; fitting again here raises its error.
    vanilla = pickle.loads(pickled) if pickled else ga_fit(obs, None, cfg)
    if error is not None:
        raise error
    return vanilla, generalized
