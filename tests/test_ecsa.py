import hashlib
import math

import numpy as np
import pytest

from riskfuse.ecsa import (
    EcsaConfig,
    ObjectiveError,
    _clamp,
    _csa_move,
    _ecsa_move,
    _flight,
    classical_csa,
    decay_coefficient,
    dynamic_awareness_probability,
    global_update,
    local_neighborhood_update,
    optimize,
    random_search,
    rastrigin,
    reshuffle_neighborhoods,
    sphere,
)
from riskfuse.errors import DataError


def unit_config(dim=3, **overrides):
    defaults = dict(
        bounds=((0.0, 1.0),) * dim,
        population_size=6,
        max_iterations=20,
        seed=11,
    )
    defaults.update(overrides)
    return EcsaConfig(**defaults)


class _QueueRng:
    """Stub generator: uniform draws come from a queue of arrays, in order;
    every integer draw is the lowest value."""

    def __init__(self, *draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def random(self, size=None):
        draw = self.draws.pop(0)
        assert draw.shape == (() if size is None else (size,))
        return draw

    def integers(self, low, high, size=None):
        return low if size is None else np.full(size, low, dtype=int)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            unit_config(population_size=1)
        with pytest.raises(DataError):
            unit_config(max_iterations=0)
        with pytest.raises(DataError):
            unit_config(ap_min=0.8, ap_max=0.1)
        with pytest.raises(DataError):
            unit_config(ap_min=0.5, ap_max=0.5)
        with pytest.raises(DataError):
            unit_config(bounds=((1.0, 0.0),))

    @pytest.mark.parametrize("bound", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_bounds(self, bound):
        with pytest.raises(DataError, match="finite"):
            unit_config(bounds=((0.0, 1.0), bound))

    @pytest.mark.parametrize(
        "bounds, message",
        [((("a", "b"),), "must be numeric"), ([[0.0, 1.0, 2.0]], r"one \(lower, upper\) pair"),
         ([0.0, 1.0], r"one \(lower, upper\) pair"), ([], r"one \(lower, upper\) pair")],
        ids=["text", "triple", "flat", "empty"],
    )
    def test_malformed_bounds(self, bounds, message):
        with pytest.raises(DataError, match=message):
            unit_config(bounds=bounds)

    @pytest.mark.parametrize("flight_length", [math.nan, math.inf, -0.5])
    def test_bad_flight_length(self, flight_length):
        with pytest.raises(DataError, match="flight_length"):
            unit_config(flight_length=flight_length)

    @pytest.mark.parametrize(
        "name, value",
        [("flight_length", "2"), ("flight_length", True), ("flight_length", None),
         ("ap_min", None), ("ap_min", "0.1"), ("ap_max", True), ("ap_max", math.nan)],
    )
    def test_constants_must_be_real(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be a finite number"):
            unit_config(**{name: value})

    def test_fractional_population_size(self):
        with pytest.raises(DataError, match="population_size must be an integer"):
            unit_config(population_size=2.5)

    def test_negative_seed(self):
        with pytest.raises(DataError, match="seed must be >= 0"):
            unit_config(seed=-1)

    def test_budget(self):
        config = unit_config(population_size=10, max_iterations=100)
        assert config.evaluation_budget == 1010


def start_positions(config):
    """The positions a search evaluates first: its uniform start."""
    seen = []

    def objective(x):
        seen.append(x.copy())
        return sphere(x)

    optimize(objective, config)
    return seen[0]


class TestInitPopulation:
    def test_within_bounds(self):
        for seed in (0, 1, 99):
            config = unit_config(seed=seed, bounds=((-3.0, 2.0), (0.0, 0.5)))
            positions = start_positions(config)
            assert np.all(positions >= config.bounds[:, 0])
            assert np.all(positions <= config.bounds[:, 1])

    def test_degenerate_interval(self):
        config = unit_config(bounds=((0.7, 0.7 + 1e-12),))
        positions = start_positions(config)
        assert positions == pytest.approx(np.full_like(positions, 0.7))

    def test_seed_reproducibility(self):
        config = unit_config(seed=5)
        assert np.array_equal(start_positions(config), start_positions(config))

    def test_memories_start_at_positions(self):
        # A constant objective never improves a memory, so the best memory
        # is the first crow's start.
        config = unit_config(max_iterations=3)
        result = optimize(lambda x: 1.0, config)
        assert np.array_equal(result.best_position, start_positions(config)[0])


class TestDynamicAwareness:
    def test_reference_constants(self):
        config = unit_config(population_size=10, ap_min=0.1, ap_max=0.8)
        assert dynamic_awareness_probability([1, 10], config) == pytest.approx(
            [0.17, 0.8], abs=1e-12
        )

    def test_monotone_in_rank(self):
        config = unit_config(population_size=8)
        values = dynamic_awareness_probability(np.arange(1, 9), config)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(config.ap_min <= v <= config.ap_max for v in values)

    def test_rank_out_of_range(self):
        config = unit_config()
        with pytest.raises(DataError):
            dynamic_awareness_probability([0, 1], config)
        with pytest.raises(DataError):
            dynamic_awareness_probability([7], config)


def _move_first(positions, neighborhood, flight_length, rng):
    """Local move of crow 0 among crows whose memories are their
    positions, with the search's draws and clamp to the unit box."""
    positions = np.array(positions, dtype=float)
    neighborhood = np.asarray(neighborhood)
    dim = positions.shape[1]
    picks = rng.integers(0, len(neighborhood), size=(1, dim))
    r = np.array([rng.random()])
    moved = local_neighborhood_update(
        positions[:1], neighborhood[None], picks, r, positions, flight_length
    )
    return _clamp(moved, np.zeros(dim), np.ones(dim))[0]


def _relocate(best, c1, c2, side, lower, upper):
    """Global move of one crow, with the search's clamp."""
    moved = global_update(best, c1, np.array([c2]), np.array([side]), lower, upper)
    return _clamp(moved, lower, upper)[0]


class TestLocalUpdate:
    def test_self_neighborhood_no_move(self, rng):
        positions = [[0.3, 0.4], [0.3, 0.4]]
        moved = _move_first(positions, [0, 1], flight_length=2.0, rng=rng)
        assert moved == pytest.approx(positions[0])

    def test_zero_flight_length(self, rng):
        positions = [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]
        moved = _move_first(positions, [0, 1, 2], flight_length=0.0, rng=rng)
        assert moved == pytest.approx(positions[0])

    def test_one_dimensional_step(self):
        moved = _move_first([[0.0], [1.0]], [1], flight_length=0.5, rng=_QueueRng(0.5))
        assert moved == pytest.approx([0.25])  # 0 + 0.5*0.5*(1-0)

    def test_clamped_to_bounds(self):
        moved = _move_first([[0.0], [1.0]], [1], flight_length=2.0, rng=_QueueRng(0.75))
        assert moved == pytest.approx([1.0])  # 0 + 0.75*2*(1-0) = 1.5 clamps to upper


class TestGlobalUpdate:
    def test_decay_endpoints(self):
        assert decay_coefficient(0, 100) == pytest.approx(2.0)
        assert decay_coefficient(100, 100) == pytest.approx(2.0 * math.exp(-16.0), rel=1e-12)

    def test_zero_step_returns_best(self):
        best = np.array([0.2, 0.8])
        moved = _relocate(
            best, decay_coefficient(1, 10), np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2)
        )
        assert moved == pytest.approx(best)

    def test_side_per_dimension_and_step_scaled_to_box(self):
        lower, upper = np.array([0.0, 0.0, -10.0]), np.array([1.0, 4.0, 10.0])
        best = np.array([0.5, 2.0, 0.0])
        # c2 = 0.1 everywhere; direction draws put dimension 1 on the low side.
        moved = _relocate(best, decay_coefficient(0, 10), [0.1, 0.1, 0.1], [0.2, 0.7, 0.2],
                          lower, upper)
        # best + s * c1 * c2 * (upper - lower) with c1 = 2 at itr 0.
        assert moved == pytest.approx([0.5 + 0.2, 2.0 - 0.8, 0.0 + 4.0])

    def test_iteration_range_checked(self, rng):
        with pytest.raises(DataError):
            decay_coefficient(11, 10)

    def test_empty_schedule_rejected(self):
        with pytest.raises(DataError):
            decay_coefficient(0, 0)

    def test_fractional_iteration_rejected(self):
        with pytest.raises(DataError):
            decay_coefficient(1.5, 3)

    def test_bounded(self, rng):
        lower, upper = np.zeros(3), np.ones(3)
        for itr in (0, 3, 10):
            moved = _relocate(np.full(3, 0.9), decay_coefficient(itr, 10),
                              rng.random(3), rng.random(3), lower, upper)
            assert np.all(moved >= lower) and np.all(moved <= upper)


class TestOptimize:
    def test_constant_objective_flat_history(self):
        config = unit_config(max_iterations=5)
        result = optimize(lambda x: 3.0, config)
        assert result.best_fitness == 3.0
        assert result.fitness_history == (3.0,) * 6

    def test_small_instance_matches_exhaustive_evaluation(self):
        config = unit_config(dim=2, population_size=2, max_iterations=1, seed=3)
        seen = []

        def objective(x):
            values = sphere(x)
            seen.extend(values)
            return values

        result = optimize(objective, config)
        assert result.best_fitness == pytest.approx(min(seen))
        assert len(seen) == config.evaluation_budget

    def test_deterministic_runs(self):
        config = unit_config(seed=21)
        a = optimize(sphere, config)
        b = optimize(sphere, config)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_position, b.best_position)
        assert a.fitness_history == b.fitness_history

    def test_history_monotone_and_positions_bounded(self):
        config = unit_config(dim=4, seed=2, bounds=((-2.0, 2.0),) * 4)
        visited = []

        def objective(x):
            visited.append(x.copy())
            return sphere(x)

        result = optimize(objective, config)
        history = np.array(result.fitness_history)
        assert np.all(np.diff(history) <= 0.0)
        assert len(history) == config.max_iterations + 1
        stacked = np.array(visited)
        assert np.all(stacked >= -2.0) and np.all(stacked <= 2.0)
        assert np.all(result.best_position >= -2.0)
        assert np.all(result.best_position <= 2.0)

    def test_initial_guess_injected(self):
        config = unit_config(dim=3, seed=9)
        target = np.array([0.25, 0.5, 0.75])
        result = optimize(lambda x: sphere(x - target), config, initial_guesses=[target])
        assert result.metadata["best_objective"] == pytest.approx(0.0, abs=1e-12)

    def test_more_guesses_than_crows(self):
        config = unit_config(dim=2, population_size=3)
        with pytest.raises(DataError, match="4 initial guesses exceed the population size 3"):
            optimize(sphere, config, initial_guesses=[np.zeros(2)] * 4)

    def test_initial_guess_of_wrong_length(self):
        config = unit_config(dim=3)
        with pytest.raises(DataError, match=r"guess 0 has shape \(4,\), expected \(3,\)"):
            optimize(sphere, config, initial_guesses=[np.zeros(4)])

    @pytest.mark.parametrize(
        "guess, message",
        [(["a"] * 3, "must be numbers"), ([0.5, None, 0.5], "must be finite"),
         ([0.5, math.nan, 0.5], "must be finite"), ([math.inf, 0.5, 0.5], "must be finite"),
         ([0.5, 0.5, -math.inf], "must be finite")],
        ids=["text", "none", "nan", "inf", "-inf"],
    )
    def test_bad_initial_guess_is_data_error(self, guess, message):
        with pytest.raises(DataError, match=f"initial guess 1 {message}"):
            optimize(sphere, unit_config(dim=3), initial_guesses=[[0.5] * 3, guess])

    @pytest.mark.parametrize("search", [optimize, classical_csa, random_search])
    def test_handed_out_batches_are_never_reused(self, search):
        # The kept arrays are the ones handed to the objective; a loop
        # that wrote a later batch into an earlier one, or an objective
        # that wrote into its argument, would make them differ from the
        # copies taken at each call.
        config = unit_config(dim=4, max_iterations=12)
        kept, copies = [], []

        def objective(x):
            kept.append(x)
            copies.append(x.copy())
            return rastrigin(x) + sphere(x)

        search(objective, config)
        assert len({id(x) for x in kept}) == len(kept) == config.max_iterations + 1
        for x, copy in zip(kept, copies):
            assert np.array_equal(x, copy)

    @pytest.mark.parametrize("function", [sphere, rastrigin])
    def test_benchmark_leaves_its_input(self, function):
        x = np.random.default_rng(3).uniform(-5.12, 5.12, (4, 6))
        copy = x.copy()
        function(x)
        function(x[0])
        assert np.array_equal(x, copy)

    def test_objective_error_carries_context(self):
        config = unit_config()

        def bad(x):
            raise RuntimeError("boom")

        with pytest.raises(ObjectiveError, match="^objective failed at iteration 0: boom$") as info:
            optimize(bad, config)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_objective_error_names_later_iteration(self):
        config = unit_config()
        calls = []

        def fails_third(x):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return sphere(x)

        with pytest.raises(ObjectiveError, match="^objective failed at iteration 2: boom$"):
            optimize(fails_third, config)

    def test_one_call_per_iteration_with_all_crows(self):
        config = unit_config(dim=3, population_size=6, max_iterations=4)
        shapes = []

        def objective(x):
            shapes.append(x.shape)
            return sphere(x)

        optimize(objective, config)
        assert shapes == [(6, 3)] * 5

    def test_wrong_result_length_is_objective_error(self):
        config = unit_config()
        with pytest.raises(ObjectiveError, match="iteration 0"):
            optimize(lambda x: np.zeros(len(x) + 1), config)


class TestNeighborhoods:
    def test_ring_members_and_reshuffle(self, rng):
        for crow, members in enumerate(reshuffle_neighborhoods(7, rng)):
            assert crow in members
            assert len(members) == 5
            assert len(set(members.tolist())) == 5

    def test_small_population_ring(self, rng):
        for members in reshuffle_neighborhoods(3, rng):
            assert len(members) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda rng, config: reshuffle_neighborhoods(0, rng),
        lambda rng, config: reshuffle_neighborhoods(-1, rng),
        lambda rng, config: reshuffle_neighborhoods(2.5, rng),
        lambda rng, config: dynamic_awareness_probability([], config),
        lambda rng, config: dynamic_awareness_probability([1.5], config),
        lambda rng, config: dynamic_awareness_probability([math.nan], config),
        lambda rng, config: dynamic_awareness_probability(["a"], config),
    ],
    ids=["ring-0", "ring-negative", "ring-fractional", "ranks-empty", "rank-fractional",
         "rank-nan", "rank-text"],
)
def test_helper_input_is_checked(rng, call):
    with pytest.raises(DataError):
        call(rng, unit_config())


class _RecordingRng:
    """A real generator that records each call it serves: the method's
    name, its arguments and what it returned."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, args, kwargs, out))
            return out

        return record


def _assert_empty_draws_consume_nothing(rng, seed):
    """A twin generator that skips the recorded empty draws ends in the
    same state as the recording one."""
    twin = np.random.default_rng(seed)
    for name, args, kwargs, out in rng.calls:
        if np.size(out):
            getattr(twin, name)(*args, **kwargs)
    assert twin.random() == rng.rng.random()


class TestEcsaMoveDraws:
    @staticmethod
    def _move(config, rng, dim):
        """One ECSA move of the config's crows, ranked in crow order."""
        n = config.population_size
        positions = np.zeros((n, dim))
        return _ecsa_move(
            _flight(config, rng), 1, positions, np.arange(n, dtype=float), positions.copy(),
            np.ones(dim),
        )

    @pytest.mark.parametrize(
        "population_size, ap_min, ap_max, expected_relocated",
        [(2, 0.1, 0.8, None), (3, 0.1, 0.8, None), (10, 0.1, 0.8, None), (50, 0.1, 0.8, None),
         (10, 0.0, 1e-12, 0), (10, 1.0 - 1e-12, 1.0, 10)],
        ids=["2", "3", "10", "50", "none-relocated", "none-local"],
    )
    def test_five_calls_in_order(self, population_size, ap_min, ap_max, expected_relocated):
        n, dim = population_size, 4
        config = unit_config(dim=dim, population_size=n, ap_min=ap_min, ap_max=ap_max)
        rng = _RecordingRng(5)
        self._move(config, rng, dim)
        relocated = int((rng.calls[1][3] < _flight(config, None).awareness_by_rank).sum())
        if expected_relocated is not None:
            assert relocated == expected_relocated
        local = n - relocated
        assert [(name, np.shape(out)) for name, _, _, out in rng.calls] == [
            ("permutation", (n,)),
            ("random", (n,)),
            ("integers", (local, dim)),
            ("random", (local,)),
            ("random", (2, relocated, dim)),
        ]
        _assert_empty_draws_consume_nothing(rng, 5)

    def test_relocation_share_follows_awareness(self):
        # Fixed before running: with 2,000 moves the binomial standard
        # deviation of a share is at most 0.0112, so 0.05 is over 4.4 of
        # them, and a reversed comparison (share 1 - p) misses by more
        # than 0.05 at 9 of the 10 ranks.
        moves, tolerance = 2000, 0.05
        config = unit_config(dim=2, population_size=10, max_iterations=1, flight_length=0.0)
        rng = np.random.default_rng(23)
        relocated = np.zeros(10)
        for _ in range(moves):
            # Local moves of flight 0 stay at 0; relocations land next to
            # the best memory at 1, since C1 = 2 exp(-16) at the last
            # iteration.
            relocated += self._move(config, rng, dim=2)[:, 0] > 0.5
        awareness = _flight(config, rng).awareness_by_rank
        assert relocated / moves == pytest.approx(awareness, abs=tolerance)


class TestCsaMoveDraws:
    @pytest.mark.parametrize(
        "population_size, ap_min, expected_relocated",
        [(2, 0.1, None), (3, 0.1, None), (10, 0.1, None), (50, 0.1, None),
         (10, 0.0, 0), (10, 1.0 - 1e-12, 10)],
        ids=["2", "3", "10", "50", "none-relocated", "none-following"],
    )
    def test_four_calls_in_order(self, population_size, ap_min, expected_relocated):
        n, dim = population_size, 4
        config = unit_config(dim=dim, population_size=n, ap_min=ap_min, ap_max=1.0)
        positions, memories = np.random.default_rng(6).random((2, n, dim))
        rng = _RecordingRng(5)
        moved = _csa_move(_flight(config, rng), 1, positions, None, memories, None)
        targets, awareness, r, points = (out for _, _, _, out in rng.calls)
        relocated = awareness < ap_min
        if expected_relocated is not None:
            assert relocated.sum() == expected_relocated
        local = ~relocated
        assert [(name, np.shape(out)) for name, _, _, out in rng.calls] == [
            ("integers", (n,)),
            ("random", (n,)),
            ("random", (local.sum(),)),
            ("random", (relocated.sum(), dim)),
        ]
        assert targets.max() < n
        # The draws land in crow order: following crows step toward their
        # targets' memories, relocated crows at their points in the unit box.
        here = positions[local]
        step = (config.flight_length * r)[:, None] * (memories[targets[local]] - here)
        assert np.array_equal(moved[local], np.clip(here + step, 0.0, 1.0))
        assert np.array_equal(moved[relocated], points)
        _assert_empty_draws_consume_nothing(rng, 5)

    def test_relocation_share_is_ap_min(self):
        # Fixed before running: with 2,000 moves the binomial standard
        # deviation of a share of 0.1 is 0.0067, so 0.03 is 4.5 of them,
        # and a reversed comparison (share 0.9) misses by 0.8.
        moves, tolerance = 2000, 0.03
        config = unit_config(dim=2, population_size=10, flight_length=0.0)
        rng = np.random.default_rng(29)
        positions = np.zeros((10, 2))
        relocated = np.zeros(10)
        for _ in range(moves):
            # Following crows of flight 0 stay at 0; relocated ones land
            # inside the unit box.
            moved = _csa_move(_flight(config, rng), 1, positions, None, positions, None)
            relocated += moved[:, 0] > 0.0
        assert relocated / moves == pytest.approx(np.full(10, config.ap_min), abs=tolerance)


class TestBaselines:
    def test_classical_csa_deterministic_and_bounded(self):
        config = unit_config(dim=3, seed=17, bounds=((-1.0, 1.0),) * 3)
        a = classical_csa(sphere, config)
        b = classical_csa(sphere, config)
        assert a.best_fitness == b.best_fitness
        assert np.all(np.abs(a.best_position) <= 1.0)
        assert np.all(np.diff(np.array(a.fitness_history)) <= 0.0)

    def test_random_search_budget(self):
        config = unit_config(dim=2, seed=19)
        calls = []

        def objective(x):
            calls.append(len(x))
            return sphere(x)

        random_search(objective, config)
        assert len(calls) == config.max_iterations + 1
        assert sum(calls) == config.evaluation_budget


class TestStreamPins:
    """Fixed-seed results of the three searches on a small sphere.

    ``RAW`` holds each search's best and history in raw objective values.
    The parameters hold the random-search pins as first recorded, when
    the objective was still called once per crow and the search compared
    the weighted fitness 0.9 err + 0.1; each raw value equals
    (old - 0.1) / 0.9 up to the rounding of that conversion, so neither
    the batch call nor dropping the weight moved its random stream or any
    memory update.  The ECSA and CSA raw pins were recorded when their
    moves began drawing in five and four generator calls, which changed
    their streams on purpose, so they have no weighted pins."""

    CONFIG = dict(bounds=((-2.0, 2.0),) * 3, population_size=5, max_iterations=8, seed=42)

    RAW = {
        "optimize": (
            0.2254597346362099,
            (2.0491869547418506, 1.2690567073910801, 1.224526257744368,
             0.3667251047782869, 0.2612523328837637, 0.2612523328837637,
             0.2524867033674497, 0.25243843884186423, 0.2254597346362099),
        ),
        "classical_csa": (
            0.14372189777022337,
            (2.0491869547418506, 1.6201579228873508, 0.3045320054246944,
             0.3045320054246944, 0.21328451329965092, 0.21328451329965092,
             0.21328451329965092, 0.14981262462242842, 0.14372189777022337),
        ),
        "random_search": (
            0.5352117828471736,
            (2.0491869547418506, 2.0491869547418506, 1.826169171465719,
             1.826169171465719) + (0.5352117828471736,) * 5,
        ),
    }

    @pytest.mark.parametrize(
        "search, best, history",
        [
            (optimize, None, None),
            (classical_csa, None, None),
            (
                random_search,
                0.5816906045624562,
                (1.9442682592676657, 1.9442682592676657, 1.7435522543191473,
                 1.7435522543191473) + (0.5816906045624562,) * 5,
            ),
        ],
    )
    def test_sphere(self, search, best, history):
        raw_best, raw_history = self.RAW[search.__name__]
        result = search(sphere, EcsaConfig(**self.CONFIG))
        assert result.best_fitness == raw_best
        assert result.fitness_history == raw_history
        if best is not None:
            unweighted = (np.array((best,) + history) - 0.1) / 0.9
            assert np.array((raw_best,) + raw_history) == pytest.approx(unweighted, rel=1e-15)

    @pytest.mark.parametrize("search", [optimize, classical_csa, random_search])
    def test_nan_value_never_wins(self, search):
        evaluated = []

        def objective(x):
            values = sphere(x)
            if not evaluated:
                values[0] = np.nan
            evaluated.append(values)
            return values

        result = search(objective, EcsaConfig(**self.CONFIG))
        assert np.all(np.isfinite(result.fitness_history))
        assert result.best_fitness == np.nanmin(np.concatenate(evaluated))
        assert math.isfinite(result.metadata["best_objective"])


def _digest(result):
    """SHA-256 of a result's fitness history and best position, bit for bit."""
    digest = hashlib.sha256(np.array(result.fitness_history).tobytes())
    digest.update(result.best_position.tobytes())
    return digest.hexdigest()


class TestMovePins:
    """Fixed-seed results, bit for bit.  The CSA pins were recorded when
    its move began drawing in four generator calls, and the ECSA pins
    when its move began drawing in five.  The
    benchmark's search shape (100-D box [-5.12, 5.12], 10 crows, 30
    iterations) runs both ECSA moves many times; populations of 2 to 4
    crows have rings shorter than five."""

    @pytest.mark.parametrize(
        "search, objective, best, digest",
        [
            (optimize, sphere, 225.94266401162096,
             "eb9b2417906ecc839eada960d364b8a45157181bb1c38445f4d8a94b69b9babd"),
            (optimize, rastrigin, 1024.1237853176785,
             "e393b177637088c5a3eace0ca84602872ac5976d13ef441bbab104a2a0ee5c3f"),
            (classical_csa, sphere, 108.62650302161146,
             "82e91b44e92aaee5b55da44eeab045c978a9625a6a547eadb200420a2da07bb8"),
            (classical_csa, rastrigin, 1078.0785434694878,
             "e1406465d2b350e9ae9688878125dd23968841525cfcdf9ea562d3d2e723e10f"),
        ],
    )
    def test_benchmark_shape(self, search, objective, best, digest):
        config = EcsaConfig(
            bounds=((-5.12, 5.12),) * 100, population_size=10, max_iterations=30, seed=11
        )
        result = search(objective, config)
        assert result.best_fitness == best
        assert _digest(result) == digest

    @pytest.mark.parametrize(
        "population_size, best, digest",
        [
            (2, 3.3079024548491676,
             "f949b6502d417a66582bb836faa6424a376e26394115624e0a1139eff907edb8"),
            (3, 1.5369647474684014,
             "a4f6123a6e27a02be0a0a3316f03cd744618fce5d7b738ebb2f9c8669edc8c34"),
            (4, 1.2736379200084926,
             "a5d23fb03938a872ca07ba1bfd259d0f4acc1eb2e5c5a958ba400704b3ec58e3"),
        ],
    )
    def test_short_ring(self, population_size, best, digest):
        config = EcsaConfig(
            bounds=((-2.0, 2.0),) * 3, population_size=population_size, max_iterations=8, seed=42
        )
        result = optimize(sphere, config)
        assert result.best_fitness == best
        assert _digest(result) == digest
