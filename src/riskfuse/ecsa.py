"""Enhanced crow search: population metaheuristic with rank-driven
dynamic awareness, per-dimension local-neighborhood following, and
best-guided global moves.

The two moves come from two method papers.  The local move is the
follow-a-crow rule of classical crow search, x + r fl (m - x) with one
r ~ U(0, 1) per move (Askarzadeh 2016, Computers & Structures 169),
where m is built per dimension from the neighborhood's memories.  The
global move is the salp-swarm leader update around the best solution
(Mirjalili et al. 2017, Advances in Engineering Software 114): a side
drawn per dimension and a step c1 c2 (ub - lb) whose C1 schedule
decays across the run.

Minimizes a nonnegative objective over a box.  The classical crow
search and a plain random search are included as internal baselines for
benchmarking only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, RiskfuseError

RING_REACH = 2  # neighbors on each side of the shuffled ring (size 5 total)

# A batch objective: (crows, dim) positions in, one value per row out.
Objective = Callable[[np.ndarray], "np.ndarray | float"]


def _clamp(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """np.clip without its Python-level dispatch, which costs more than the
    arithmetic of a crow move; the result is the same."""
    return np.minimum(np.maximum(x, lower), upper)


@dataclass(frozen=True)
class EcsaConfig:
    """Search constants and the box the crows fly in.

    Defaults follow the reference protocol: 10 crows, 100 iterations,
    awareness probability between 0.1 and 0.8, fitness weight 0.9.
    """

    bounds: tuple[tuple[float, float], ...]
    population_size: int = 10
    max_iterations: int = 100
    flight_length: float = 2.0
    ap_min: float = 0.1
    ap_max: float = 0.8
    beta: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise DataError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_iterations < 1:
            raise DataError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 <= self.ap_min < self.ap_max <= 1.0):
            raise DataError(
                f"need 0 <= ap_min < ap_max <= 1, got ({self.ap_min}, {self.ap_max})"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise DataError(f"beta must be in [0, 1], got {self.beta}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if not bounds:
            raise DataError("bounds must cover at least one dimension")
        if any(lo >= hi for lo, hi in bounds):
            raise DataError("every dimension needs lower < upper bound")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])

    @property
    def evaluation_budget(self) -> int:
        """Objective evaluations one run consumes (init + per-iteration)."""
        return self.population_size * (self.max_iterations + 1)


@dataclass
class CrowPopulation:
    """Mutable search state: positions, per-crow memories and ranks."""

    positions: np.ndarray
    memories: np.ndarray
    fitnesses: np.ndarray
    memory_fitnesses: np.ndarray
    ranks: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    neighborhoods: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class OptimizationResult:
    """Best solution of a run plus its per-iteration best-fitness trace."""

    best_position: np.ndarray
    best_fitness: float
    fitness_history: tuple[float, ...]
    metadata: dict


def init_population(config: EcsaConfig, rng: np.random.Generator | None = None) -> CrowPopulation:
    """Scatter the crows uniformly inside the bounds; memories start at
    the initial positions."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    lower, upper = config.lower, config.upper
    positions = lower + rng.random((config.population_size, config.dim)) * (upper - lower)
    n = config.population_size
    return CrowPopulation(
        positions=positions,
        memories=positions.copy(),
        fitnesses=np.full(n, np.inf),
        memory_fitnesses=np.full(n, np.inf),
        ranks=np.arange(1, n + 1),
        lower=lower,
        upper=upper,
    )


def dynamic_awareness_probability(rank: int, config: EcsaConfig) -> float:
    """Awareness probability for a crow of the given rank.

    DAP = ap_min + (ap_max - ap_min) * rank / N_p, so the best crow
    (rank 1) is the least aware and the worst crow the most.
    """
    if not 1 <= rank <= config.population_size:
        raise DataError(f"rank {rank} outside 1..{config.population_size}")
    span = config.ap_max - config.ap_min
    return config.ap_min + span * rank / config.population_size


def reshuffle_neighborhoods(population: CrowPopulation, rng: np.random.Generator) -> None:
    """Rebuild each crow's small static neighborhood from a fresh shuffle.

    Crows are placed on a shuffled ring; a crow's neighborhood is itself
    plus up to two ring neighbors on each side.
    """
    n = population.positions.shape[0]
    order = rng.permutation(n)
    slot_of = np.empty(n, dtype=int)
    slot_of[order] = np.arange(n)
    neighborhoods = []
    for crow in range(n):
        s = slot_of[crow]
        slots = []
        for offset in range(-RING_REACH, RING_REACH + 1):
            slot = (s + offset) % n
            if slot not in slots:
                slots.append(slot)
        neighborhoods.append(order[slots])
    population.neighborhoods = neighborhoods


def local_neighborhood_update(
    crow_index: int,
    population: CrowPopulation,
    flight_length: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Move a crow toward cached positions borrowed from its neighborhood.

    For every dimension independently, a neighborhood member is drawn and
    the coordinate of its memory (the position it caches food at, which
    is what crows follow each other to) forms the guide g.  The crow moves
    to x + r * fl * (g - x) with one r ~ U(0, 1) per move, drawn after the
    neighbor picks (Askarzadeh 2016).  The result is clamped to the bounds.
    """
    position = population.positions[crow_index]
    neighborhood = population.neighborhoods[crow_index]
    dim = position.shape[0]
    picks = rng.integers(0, len(neighborhood), size=dim)
    guides = population.memories[neighborhood[picks], np.arange(dim)]
    step = flight_length * rng.random()
    moved = position + step * (guides - position)
    return _clamp(moved, population.lower, population.upper)


def decay_coefficient(itr: int, max_itr: int) -> float:
    """Best-guided step size C1 = 2 exp(-(4 itr / max_itr)^2), decaying
    from 2 toward 0 across the run."""
    return 2.0 * math.exp(-((4.0 * itr / max_itr) ** 2))


def global_update(
    crow_position: np.ndarray,
    best_position: np.ndarray,
    itr: int,
    max_itr: int,
    rng: np.random.Generator,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Relocate a crow around the global best.

    Salp-swarm leader update (Mirjalili et al. 2017):
    best + s * c1 * c2 * (upper - lower), where c1 is the decaying
    coefficient, c2 ~ U(0, 1) per dimension, and the side s is drawn per
    dimension after c2 (+1 where a uniform draw is below 0.5, else -1).
    Scaling by the box width keeps the move independent of the box's
    units.  Clamped to the bounds.
    """
    if not 0 <= itr <= max_itr:
        raise DataError(f"iteration {itr} outside 0..{max_itr}")
    dim = crow_position.shape[0]
    c1 = decay_coefficient(itr, max_itr)
    c2 = rng.random(dim)
    step = c1 * c2 * (upper - lower)
    # Subtracting the step signed like (draw - 0.5) adds it where the
    # draw is below 0.5 and subtracts it elsewhere.
    moved = best_position - np.copysign(step, rng.random(dim) - 0.5)
    return _clamp(moved, lower, upper)


def fitness(err: float, beta: float) -> float:
    """Weighted fitness beta * err + (1 - beta).

    The second term of the reference fitness weights a selected-subset
    fraction; a search over a continuous box selects no subset, so the
    term is the constant (1 - beta).
    """
    return beta * err + (1.0 - beta)


def _ranks_from_fitness(fitnesses: np.ndarray) -> np.ndarray:
    order = np.argsort(fitnesses, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks


class ObjectiveError(RiskfuseError):
    """Objective raised during a run; names the iteration and keeps the
    original exception as ``__cause__``."""


def _evaluate(
    objective: Objective, positions: np.ndarray, config: EcsaConfig, itr: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fitnesses and raw objective values of a (crows, dim) population.

    The objective is called once with all rows and returns one value per
    row; a scalar result counts for every row.
    """
    errs = np.empty(len(positions))
    try:
        errs[:] = objective(positions)
    except Exception as exc:
        raise ObjectiveError(f"objective failed at iteration {itr}: {exc}") from exc
    return fitness(errs, config.beta), errs


def _remember(
    pop: CrowPopulation, memory_errs: np.ndarray, fits: np.ndarray, errs: np.ndarray
) -> None:
    """Record the new fitnesses; memories move only where a crow improved."""
    pop.fitnesses = fits
    improved = fits < pop.memory_fitnesses
    pop.memory_fitnesses[improved] = fits[improved]
    pop.memories[improved] = pop.positions[improved]
    memory_errs[improved] = errs[improved]


def optimize(
    objective: Objective,
    config: EcsaConfig,
    initial_guesses: Sequence[np.ndarray] = (),
) -> OptimizationResult:
    """Run one enhanced crow search to minimize the objective.

    Each iteration ranks the population, computes per-crow awareness
    probabilities, and moves every crow either by following its local
    neighborhood or toward the global best; memories update only on
    improvement, so the best-fitness history never increases.  Fixed
    seeds reproduce runs bit for bit.

    Args:
        objective: called once per iteration with the (crows, dim)
            positions; returns one value per row, or one scalar for
            every row.
        initial_guesses: optional warm-start positions replacing the
            first crows' random spots (clamped to the bounds).
    """
    rng = np.random.default_rng(config.seed)
    pop = init_population(config, rng)
    n = config.population_size
    if len(initial_guesses) > n:
        raise DataError(
            f"{len(initial_guesses)} initial guesses exceed the population size {n}"
        )
    for j, guess in enumerate(initial_guesses):
        guess = np.clip(np.asarray(guess, dtype=float), config.lower, config.upper)
        if guess.shape != (config.dim,):
            raise DataError(f"initial guess {j} has shape {guess.shape}, expected ({config.dim},)")
        pop.positions[j] = guess
        pop.memories[j] = guess.copy()

    pop.fitnesses, memory_errs = _evaluate(objective, pop.positions, config, 0)
    pop.memory_fitnesses = pop.fitnesses.copy()
    pop.ranks = _ranks_from_fitness(pop.fitnesses)
    history = [float(pop.memory_fitnesses.min())]

    for itr in range(1, config.max_iterations + 1):
        reshuffle_neighborhoods(pop, rng)
        best = pop.memories[int(np.argmin(pop.memory_fitnesses))]

        new_positions = np.empty_like(pop.positions)
        for j in range(n):
            dap = dynamic_awareness_probability(int(pop.ranks[j]), config)
            if rng.random() >= dap:
                new_positions[j] = local_neighborhood_update(
                    j, pop, config.flight_length, rng
                )
            else:
                new_positions[j] = global_update(
                    pop.positions[j], best, itr, config.max_iterations,
                    rng, pop.lower, pop.upper,
                )

        pop.positions = new_positions
        _remember(pop, memory_errs, *_evaluate(objective, pop.positions, config, itr))
        pop.ranks = _ranks_from_fitness(pop.fitnesses)
        history.append(float(pop.memory_fitnesses.min()))

    best_idx = int(np.argmin(pop.memory_fitnesses))
    metadata = {
        "seed": config.seed,
        "iterations_executed": config.max_iterations,
        "evaluations": config.evaluation_budget,
        "best_objective": float(memory_errs[best_idx]),
    }
    return OptimizationResult(
        best_position=pop.memories[best_idx].copy(),
        best_fitness=float(pop.memory_fitnesses[best_idx]),
        fitness_history=tuple(history),
        metadata=metadata,
    )


def classical_csa(objective: Objective, config: EcsaConfig) -> OptimizationResult:
    """Plain crow search baseline (internal, for benchmark comparison).

    Fixed awareness probability (``ap_min``), random crow to follow,
    random relocation on awareness.  Shares the evaluation budget and
    seeding scheme with :func:`optimize`.
    """
    rng = np.random.default_rng(config.seed)
    pop = init_population(config, rng)
    n = config.population_size
    lower, upper = config.lower, config.upper

    pop.fitnesses, memory_errs = _evaluate(objective, pop.positions, config, 0)
    pop.memory_fitnesses = pop.fitnesses.copy()
    history = [float(pop.memory_fitnesses.min())]

    for itr in range(1, config.max_iterations + 1):
        new_positions = np.empty_like(pop.positions)
        for j in range(n):
            target = int(rng.integers(0, n))
            if rng.random() >= config.ap_min:
                step = config.flight_length * rng.random()
                moved = pop.positions[j] + step * (pop.memories[target] - pop.positions[j])
            else:
                moved = lower + rng.random(config.dim) * (upper - lower)
            new_positions[j] = np.clip(moved, lower, upper)
        pop.positions = new_positions
        _remember(pop, memory_errs, *_evaluate(objective, pop.positions, config, itr))
        history.append(float(pop.memory_fitnesses.min()))

    best_idx = int(np.argmin(pop.memory_fitnesses))
    return OptimizationResult(
        best_position=pop.memories[best_idx].copy(),
        best_fitness=float(pop.memory_fitnesses[best_idx]),
        fitness_history=tuple(history),
        metadata={
            "seed": config.seed,
            "iterations_executed": config.max_iterations,
            "evaluations": config.evaluation_budget,
            "best_objective": float(memory_errs[best_idx]),
            "algorithm": "classical-csa",
        },
    )


def random_search(objective: Objective, config: EcsaConfig) -> OptimizationResult:
    """Uniform random sampling with the same evaluation budget (internal
    baseline)."""
    rng = np.random.default_rng(config.seed)
    lower, upper = config.lower, config.upper
    best_fit = math.inf
    best_err = math.inf
    best_pos = lower
    history = []
    for block in range(config.max_iterations + 1):
        positions = lower + rng.random((config.population_size, config.dim)) * (upper - lower)
        fits, errs = _evaluate(objective, positions, config, block)
        # First best row, as a crow-by-crow scan would pick it (NaN never wins).
        j = int(np.argmin(np.where(np.isnan(fits), np.inf, fits)))
        if fits[j] < best_fit:
            best_fit, best_err, best_pos = float(fits[j]), errs[j], positions[j]
        history.append(best_fit)
    return OptimizationResult(
        best_position=best_pos.copy(),
        best_fitness=float(best_fit),
        fitness_history=tuple(history),
        metadata={
            "seed": config.seed,
            "iterations_executed": config.max_iterations,
            "evaluations": config.evaluation_budget,
            "best_objective": float(best_err),
            "algorithm": "random-search",
        },
    )


def sphere(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each row (the last axis) of x."""
    x = np.asarray(x, dtype=float)
    return np.sum(x**2, axis=-1)


def rastrigin(x: np.ndarray) -> np.ndarray:
    """Multimodal benchmark per row of x: 10 d + sum(x^2 - 10 cos(2 pi x))."""
    x = np.asarray(x, dtype=float)
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * math.pi * x), axis=-1)


BENCHMARKS: dict[str, Objective] = {
    "sphere": sphere,
    "rastrigin": rastrigin,
}
