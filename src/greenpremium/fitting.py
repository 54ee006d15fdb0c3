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
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Mapping, Sequence

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
    m_value: float | None = None    # pins m when set
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
        if self.rng_seed < 0:
            raise FitError(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise FitError(f"bounds for {name!r} must be finite and ordered")
        if "m" in self.bounds and not self.bounds["m"][0] > 0:
            raise FitError("bounds for 'm' must have a lower end > 0")
        for name in ("late_weight", "m_value"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
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

    Genes are p, q, beta and m, minus those pinned in `fixed`; without
    premiums beta is pinned at 0 (the vanilla model) and dp3 is all zeros.
    """

    def __init__(self, obs: ObservationSeries, premiums: PremiumSeries | None,
                 cfg: FitConfig, fixed: Mapping[str, float]) -> None:
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
        self.fixed = {**({"beta": 0.0} if premiums is None else {}), **fixed}
        self.genes = tuple(g for g in ("p", "q", "beta", "m") if g not in self.fixed)
        self.penalty_weight = cfg.penalty_weight
        self.columns = np.array([y - years[0] for y in years])
        self.weights = np.array([cfg.late_weight if y >= cfg.late_weight_from_year
                                 else 1.0 for y in years])[:, None]
        self.seen = np.array(obs.sales)[:, None]

    def params(self, genome: Sequence[float]) -> BassParams:
        return BassParams(**self.fixed, **{g: float(v) for g, v in zip(self.genes, genome)})

    def evaluate(self, genomes: np.ndarray) -> np.ndarray:
        """Weighted SSE + positivity penalty for each genome row."""
        cols = {**self.fixed, **dict(zip(self.genes, genomes.T))}
        flow, raw = flows(cols["p"], cols["q"], cols["m"], cols["beta"], self.dp3)
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
    problem = _FitProblem(obs, premiums, cfg, {"m": params.m})
    if premiums is None and params.beta != 0.0:
        raise FitError("a premium series is required to fit beta")
    genome = [getattr(params, g) for g in problem.genes]
    return float(problem.evaluate(np.array([genome]))[0])


class _Draws:
    """One generation's fitness-independent draws, in the documented order.

    `fill` draws the tournament contenders, stored as (contender, slot,
    child); one uniform block, from which the crossover flags become the
    keep-parent-A mask and the mutation flags the mutate mask, while the
    blend weights are read as drawn; and standard normal noise scaled by
    each gene's sigma.
    """

    def __init__(self, rng: np.random.Generator, n_pop: int, cfg: FitConfig,
                 sigma_rows: np.ndarray) -> None:
        n_children, n_genes = sigma_rows.shape
        self.rng, self.n_pop, self.sigma_rows = rng, n_pop, sigma_rows
        self.cx_prob, self.mut_prob = cfg.crossover_prob, cfg.mutation_prob
        self.cands = np.empty((3, 2, n_children), dtype=np.int64)
        self.uniforms = np.empty(n_children * (1 + 2 * n_genes))
        self.cx_u = self.uniforms[:n_children]
        self.blend_u, self.mut_u = self.uniforms[n_children:].reshape(2, n_children, n_genes)
        self.keep_a = np.empty((n_children, 1), dtype=bool)
        self.mutate = np.empty((n_children, n_genes), dtype=bool)
        self.noise = np.empty((n_children, n_genes))

    def fill(self) -> _Draws:
        n_children = len(self.noise)
        np.copyto(self.cands, self.rng.integers(0, self.n_pop, size=(n_children, 2, 3))
                  .transpose(2, 1, 0))
        self.rng.random(out=self.uniforms)
        np.greater_equal(self.cx_u, self.cx_prob, out=self.keep_a[:, 0])
        np.less(self.mut_u, self.mut_prob, out=self.mutate)
        self.rng.standard_normal(out=self.noise)
        self.noise *= self.sigma_rows
        return self


# Populations from this size make each generation's draws one generation
# ahead on a helper thread. Below it the handover costs more than the
# overlap saves; see CHANGES.md for the sweep this value comes from.
_AHEAD_MIN_POPULATION = 4096
# After this many generations, a fitting thread that has spent more than this
# share of its time waiting for the helper stops it and draws inline: on a
# host whose second CPU is busy or stolen, the waits cost more than drawing.
_AHEAD_JUDGED_AFTER = 10
_AHEAD_MAX_WAIT_SHARE = 0.1


class _DrawSource:
    """Hands out each generation's draws, in generation order.

    With `ahead`, a one-worker executor fills generation g+1's set while g
    is in use. Only one thread draws from the generator at a time, always
    the next generation, so the stream is the one inline drawing makes.
    Two sets alternate: `next` waits for g's fill, which re-raises an error
    of the helper, and only then submits g+1's fill into the other set, so
    the helper draws at most one generation past the last one used. `close`
    (also run on leaving a `with` block) shuts the executor down and drops
    a fill no `next` asked for. `next` closes it early, with no fill pending,
    once the fitting thread has waited too long for it
    (`_AHEAD_MAX_WAIT_SHARE`); later sets are drawn inline.
    """

    def __init__(self, make_set: Callable[[], _Draws], generations: int,
                 ahead: bool) -> None:
        self.sets = (make_set(), make_set()) if ahead else (make_set(),)
        self.generations = generations
        self.taken = 0
        self.executor: ThreadPoolExecutor | None = None
        self.pending: Future | None = None
        if ahead:
            self.executor = ThreadPoolExecutor(1, thread_name_prefix="ga-draws")
            self.waited, self.started = 0.0, perf_counter()
            self.pending = self.executor.submit(self.sets[0].fill)

    def next(self) -> _Draws:
        draws = self.sets[self.taken % len(self.sets)]
        self.taken += 1
        if self.pending is None:
            return draws.fill()
        start = perf_counter()
        self.pending.result()
        self.waited += perf_counter() - start
        self.pending = None
        if (self.taken >= _AHEAD_JUDGED_AFTER
                and self.waited > _AHEAD_MAX_WAIT_SHARE * (perf_counter() - self.started)):
            self.close()
        elif self.executor is not None and self.taken < self.generations:
            self.pending = self.executor.submit(self.sets[self.taken % 2].fill)
        return draws

    def __enter__(self) -> _DrawSource:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)
            self.executor = None


def _breed(pop: np.ndarray, fitness: np.ndarray, draws: _Draws, children: np.ndarray,
           lo_rows: np.ndarray, hi_rows: np.ndarray) -> None:
    """Fill `children` from `pop` with one generation's draws."""
    # Tournaments of three per parent slot: strict compares keep the first
    # of equal contenders, as argmin does (for any fitness without NaN).
    cands = draws.cands
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
    span *= draws.blend_u
    children += span
    np.copyto(children, pa, where=draws.keep_a)
    np.add(children, draws.noise, out=children, where=draws.mutate)
    np.maximum(children, lo_rows, out=children)
    np.minimum(children, hi_rows, out=children)


def ga_fit(obs: ObservationSeries, premiums: PremiumSeries | None,
           cfg: FitConfig) -> FitResult:
    """Estimate parameters by generational GA; deterministic per rng_seed."""
    if len(obs) < 4:
        raise FitError("need at least 4 observations")
    if all(s == 0 for s in obs.sales):
        raise FitError("degenerate fit: all observations are zero")

    problem = _FitProblem(obs, premiums, cfg,
                          {} if cfg.m_value is None else {"m": cfg.m_value})
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

    # Children go straight into the rows after the elite of the other
    # population buffer, and the buffers then swap.
    n_children = n_pop - 1
    # Per-gene vectors repeated per child: same-shape operands are cheaper than broadcasts.
    lo_rows, hi_rows, sigma_rows = (np.tile(v, (n_children, 1)) for v in (lo, hi, sigma))
    next_pop = np.empty_like(pop)
    next_fitness = np.empty(n_pop)

    history: list[float] = []
    stale = 0
    generations = 0
    converged = False
    source = _DrawSource(lambda: _Draws(rng, n_pop, cfg, sigma_rows), cfg.max_generations,
                         ahead=n_pop >= _AHEAD_MIN_POPULATION and cfg.max_generations > 0)
    # Leaving the block joins the helper. A genome whose squared error
    # overflows scores inf and loses every tournament.
    with source, np.errstate(over="ignore"):
        fitness = problem.evaluate(pop)
        best_obj = float(np.min(fitness))
        for _ in range(cfg.max_generations):
            generations += 1
            order = int(np.argmin(fitness))
            next_pop[0] = pop[order]
            next_fitness[0] = fitness[order]
            _breed(pop, fitness, source.next(), next_pop[1:], lo_rows, hi_rows)

            # Rows evaluate independently, so the elite keeps its fitness.
            next_fitness[1:] = problem.evaluate(next_pop[1:])
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

    if not math.isfinite(best_obj):
        raise FitError("degenerate fit: no genome has a finite objective; sales this "
                       "large overflow the squared error (sales are in thousand vehicles)")
    params = problem.params(pop[int(np.argmin(fitness))])
    # Clamping puts a gene exactly on its bound, so == finds it.
    at_bounds = tuple((g, "lower" if getattr(params, g) == cfg.bounds[g][0] else "upper")
                      for g in gene_names if getattr(params, g) in cfg.bounds[g])
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
    try:
        sst = sum((o - mean) ** 2 for o in observed)
        sse = sum((p - o) ** 2 for p, o in zip(predicted, observed))
    except OverflowError:
        sst = sse = math.inf
    if sst == 0:
        raise ValueError("R^2 undefined: observations are all equal")
    if not math.isfinite(sst + sse):
        raise ValueError("R^2 undefined: squared deviations are not finite")
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
