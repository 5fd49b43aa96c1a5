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
benchmarking only.  All three run through one search loop, which owns
the seeding, the start, the evaluation, the memories and the result;
they differ only in the rule that moves the crows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, RiskfuseError

RING_REACH = 2  # neighbors on each side of the shuffled ring (size 5 total)

# The longest array axis numpy can size: the cap on every count.
MAX_COUNT = int(np.iinfo(np.intp).max)

# A batch objective: (crows, dim) positions in, one value per row out.
Objective = Callable[[np.ndarray], "np.ndarray | float"]


def _clamp(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Clamp x to the box in place and return it: np.clip without its
    Python-level dispatch, which costs more than the arithmetic of a crow
    move; the result is the same."""
    return np.minimum(np.maximum(x, lower, out=x), upper, out=x)


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EcsaConfig:
    """Search constants and the box the crows fly in.

    ``bounds`` takes one (lower, upper) pair per dimension, as any
    (dim, 2) table of numbers, and keeps it as one read-only float array.
    Defaults follow the reference protocol: 10 crows, 100 iterations,
    awareness probability between 0.1 and 0.8.
    """

    bounds: np.ndarray
    population_size: int = 10
    max_iterations: int = 100
    flight_length: float = 2.0
    ap_min: float = 0.1
    ap_max: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_iterations", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise DataError(f"{name} must be an integer, got {value!r}")
        check_count("population_size", self.population_size, least=2)
        check_count("max_iterations", self.max_iterations)
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for name in ("flight_length", "ap_min", "ap_max"):
            value = getattr(self, name)
            if not (is_real(value) and value >= 0):
                raise DataError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (0.0 <= self.ap_min < self.ap_max <= 1.0):
            raise DataError(
                f"need 0 <= ap_min < ap_max <= 1, got ({self.ap_min}, {self.ap_max})"
            )
        try:
            # Column-major, so the lower and upper columns are contiguous.
            box = np.array(self.bounds, dtype=float, order="F")
        except (TypeError, ValueError) as exc:
            raise DataError(f"bounds must be numeric (lower, upper) pairs ({exc})") from None
        if box.ndim != 2 or box.shape[1] != 2 or not len(box):
            raise DataError(
                f"bounds must be one (lower, upper) pair per dimension, at least one, "
                f"got shape {box.shape}"
            )
        if not np.isfinite(box).all():
            raise DataError("every bound must be finite")
        if (box[:, 0] >= box[:, 1]).any():
            raise DataError("every dimension needs lower < upper bound")
        box.flags.writeable = False
        object.__setattr__(self, "bounds", box)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def lower(self) -> np.ndarray:
        return self.bounds[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.bounds[:, 1]

    @cached_property
    def awareness_by_rank(self) -> np.ndarray:
        """Awareness probability of the crows ranked 1, 2, ..., N_p."""
        return _read_only(
            dynamic_awareness_probability(np.arange(1, self.population_size + 1), self)
        )

    @property
    def evaluation_budget(self) -> int:
        """Objective evaluations one run consumes (init + per-iteration)."""
        return self.population_size * (self.max_iterations + 1)


def check_count(name: str, value: int, least: int = 1) -> None:
    """``DataError`` unless the integer ``least <= value <= MAX_COUNT``."""
    if not least <= value <= MAX_COUNT:
        raise DataError(f"{name} must be in [{least}, {MAX_COUNT}], got {value}")


def is_integer(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class OptimizationResult:
    """Best solution of a run plus its per-iteration best-fitness trace.

    A fitness is the objective value the search compares: the raw value,
    with NaN scored as +inf.  The run's seed, iterations and evaluation
    budget are on its ``EcsaConfig``, not repeated in ``metadata``."""

    best_position: np.ndarray
    best_fitness: float
    fitness_history: tuple[float, ...]
    metadata: dict


def _uniform(rng: np.random.Generator, shape, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Points drawn uniformly inside the bounds."""
    return lower + rng.random(shape) * (upper - lower)


def dynamic_awareness_probability(ranks: np.ndarray, config: EcsaConfig) -> np.ndarray:
    """Awareness probability of each crow, given the crows' ranks.

    DAP = ap_min + (ap_max - ap_min) * rank / N_p, so the best crow
    (rank 1) is the least aware and the worst crow the most.
    """
    try:
        ranks = np.asarray(ranks, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"ranks must be numbers, got {ranks!r}") from None
    n = config.population_size
    if not ranks.size or not np.all((ranks >= 1) & (ranks <= n) & (ranks % 1 == 0)):
        raise DataError(f"ranks {ranks.tolist()} must be whole numbers in 1..{n}")
    return config.ap_min + (config.ap_max - config.ap_min) * ranks / n


@lru_cache(maxsize=None)
def _ring_slots(n: int) -> np.ndarray:
    """(n, k) slots of each ring slot's neighborhood, from ``RING_REACH``
    back to ``RING_REACH`` ahead, each slot once."""
    offsets = dict.fromkeys(o % n for o in range(-RING_REACH, RING_REACH + 1))
    slots = (np.arange(n)[:, None] + list(offsets)) % n
    slots.flags.writeable = False
    return slots


def reshuffle_neighborhoods(n: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, k) neighborhoods of n crows from a fresh shuffle, k = min(n, 5).

    Crows are placed on a shuffled ring; row j holds crow j's
    neighborhood: the crows from two slots back to two slots ahead of it,
    in ring order, each once (so a ring of fewer than 5 crows gives each
    crow all of them).
    """
    if not (is_integer(n) and n >= 1):
        raise DataError(f"need a whole number of crows >= 1, got {n!r}")
    order = rng.permutation(n)
    slots = _ring_slots(n)
    neighborhoods = np.empty_like(slots)
    neighborhoods[order] = order[slots]
    return neighborhoods


def local_neighborhood_update(
    positions: np.ndarray,
    neighborhoods: np.ndarray,
    picks: np.ndarray,
    r: np.ndarray,
    memories: np.ndarray,
    flight_length: float,
) -> np.ndarray:
    """Move (crows, dim) positions toward memories borrowed from their
    neighborhoods; not clamped.

    For crow i and dimension d, ``picks[i, d]`` selects a member of row i
    of ``neighborhoods``, and the coordinate d of that member's memory
    (the position it caches food at, which is what crows follow each
    other to) forms the guide g.  The crow moves to x + r * fl * (g - x)
    with one r ~ U(0, 1) per crow, ``r[i]`` (Askarzadeh 2016).
    """
    members = neighborhoods[np.arange(len(picks))[:, None], picks]
    moved = memories[members, np.arange(positions.shape[1])]
    moved -= positions
    moved *= (flight_length * r)[:, None]
    moved += positions
    return moved


def decay_coefficient(itr: int, max_itr: int) -> float:
    """Best-guided step size C1 = 2 exp(-(4 itr / max_itr)^2), decaying
    from 2 toward 0 across the run."""
    if not 0 <= itr <= max_itr:
        raise DataError(f"iteration {itr} outside 0..{max_itr}")
    return 2.0 * math.exp(-((4.0 * itr / max_itr) ** 2))


def global_update(
    best_position: np.ndarray,
    c1: float,
    c2: np.ndarray,
    side: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Relocate crows around the global best, one per row of the
    (crows, dim) draws ``c2`` and ``side``; not clamped.

    Salp-swarm leader update (Mirjalili et al. 2017):
    best + s * c1 * c2 * (upper - lower), where c1 is the iteration's
    :func:`decay_coefficient`, c2 ~ U(0, 1) per dimension, and the side s
    is +1 where the uniform draw ``side`` is below 0.5, else -1.
    Scaling by the box width keeps the move independent of the box's
    units.
    """
    step = c1 * c2 * (upper - lower)
    # Subtracting the step signed like (draw - 0.5) adds it where the
    # draw is below 0.5 and subtracts it elsewhere.
    return best_position - np.copysign(step, side - 0.5)


class ObjectiveError(RiskfuseError):
    """Objective raised during a run; names the iteration and keeps the
    original exception as ``__cause__``."""


def _evaluate(objective: Objective, positions: np.ndarray, itr: int) -> np.ndarray:
    """Fitnesses of a (crows, dim) population.

    The objective is called once with all rows and returns one value per
    row; a scalar result counts for every row.  A NaN value scores as
    +inf, so it never becomes a memory or the best.
    """
    fits = np.empty(len(positions))
    try:
        fits[:] = objective(positions)
    except Exception as exc:
        raise ObjectiveError(f"objective failed at iteration {itr}: {exc}") from exc
    np.copyto(fits, np.inf, where=np.isnan(fits))
    return fits


def _search(
    objective: Objective,
    config: EcsaConfig,
    move: Callable[..., np.ndarray],
    initial_guesses: Sequence[np.ndarray] = (),
) -> OptimizationResult:
    """The crow-search loop shared by every search.

    Scatters the crows uniformly inside the bounds (warm-start guesses
    replace the first crows' spots), then alternates one objective call
    with all crows and one move rule,
    ``move(config, rng, itr, positions, fitnesses, memories, best)``,
    which returns the next (crows, dim) positions from the current ones,
    their fitnesses, the memories and the best memory.  A crow's memory
    moves only where it strictly improved, so the best-fitness history
    never increases.
    """
    rng = np.random.default_rng(config.seed)
    n, lower, upper = config.population_size, config.lower, config.upper
    positions = _uniform(rng, (n, config.dim), lower, upper)
    if len(initial_guesses) > n:
        raise DataError(
            f"{len(initial_guesses)} initial guesses exceed the population size {n}"
        )
    for j, guess in enumerate(initial_guesses):
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (config.dim,):
            raise DataError(f"initial guess {j} has shape {guess.shape}, expected ({config.dim},)")
        positions[j] = np.clip(guess, lower, upper)

    memories = positions.copy()
    memory_fits = np.full(n, np.inf)
    history = []
    for itr in range(config.max_iterations + 1):
        if itr:
            positions = move(config, rng, itr, positions, fits, memories, memories[best])
        fits = _evaluate(objective, positions, itr)
        np.copyto(memories, positions, where=(fits < memory_fits)[:, None])
        np.minimum(memory_fits, fits, out=memory_fits)
        best = int(memory_fits.argmin())
        history.append(float(memory_fits[best]))

    return OptimizationResult(
        best_position=memories[best].copy(),
        best_fitness=float(memory_fits[best]),
        fitness_history=tuple(history),
        metadata={"best_objective": float(memory_fits[best])},
    )


def _ecsa_move(config, rng, itr, positions, fitnesses, memories, best):
    """Rank the crows by their fitness; each then follows its ring
    neighborhood, or, on an awareness draw below its probability,
    relocates around the best memory.

    A move makes five generator calls, in this order: the ring shuffle,
    one awareness draw per crow, then the (local, dim) picks and the r
    of the local crows, then one (2, relocated, dim) block holding c2
    and the sides of the relocated crows, each in crow order.  Each move
    then runs once over its crows, and one clamp covers both."""
    n, dim = positions.shape
    neighborhoods = reshuffle_neighborhoods(n, rng)
    awareness = np.empty(n)
    awareness[fitnesses.argsort(kind="stable")] = config.awareness_by_rank
    aware = rng.random(n) < awareness
    local, relocated = np.flatnonzero(~aware), np.flatnonzero(aware)
    picks = rng.integers(0, neighborhoods.shape[1], size=(len(local), dim))
    r = rng.random(len(local))
    c2, side = rng.random((2, len(relocated), dim))
    lower, upper = config.lower, config.upper
    moved = np.empty_like(positions)
    moved[local] = local_neighborhood_update(
        positions[local], neighborhoods[local], picks, r, memories, config.flight_length
    )
    c1 = decay_coefficient(itr, config.max_iterations)
    moved[relocated] = global_update(best, c1, c2, side, lower, upper)
    return _clamp(moved, lower, upper)


def _csa_move(config, rng, itr, positions, fitnesses, memories, best):
    """Each crow picks a random crow to follow toward its memory, or,
    when that crow is aware (fixed probability ``ap_min``), relocates
    uniformly.  A move makes four generator calls, in this order: every
    crow's target, one awareness draw per crow, the r of the following
    crows and one (relocated, dim) block of uniform points, each in crow
    order.  Each move then runs once over its crows; one clamp covers
    both."""
    n, dim = positions.shape
    targets = rng.integers(0, n, size=n)
    aware = rng.random(n) < config.ap_min
    local, relocated = np.flatnonzero(~aware), np.flatnonzero(aware)
    step = config.flight_length * rng.random(len(local))
    here = positions[local]
    moved = np.empty_like(positions)
    moved[local] = here + step[:, None] * (memories[targets[local]] - here)
    moved[relocated] = _uniform(rng, (len(relocated), dim), config.lower, config.upper)
    return _clamp(moved, config.lower, config.upper)


def _random_move(config, rng, itr, positions, fitnesses, memories, best):
    """Every crow draws a fresh uniform point."""
    return _uniform(rng, positions.shape, config.lower, config.upper)


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
    return _search(objective, config, _ecsa_move, initial_guesses)


def classical_csa(objective: Objective, config: EcsaConfig) -> OptimizationResult:
    """Plain crow search baseline (internal, for benchmark comparison).

    Fixed awareness probability (``ap_min``), random crow to follow,
    random relocation on awareness.  Shares the evaluation budget and
    seeding scheme with :func:`optimize`.
    """
    return _search(objective, config, _csa_move)


def random_search(objective: Objective, config: EcsaConfig) -> OptimizationResult:
    """Uniform random sampling with the same evaluation budget (internal
    baseline)."""
    return _search(objective, config, _random_move)


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
