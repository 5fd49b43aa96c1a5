import json
from dataclasses import replace

import numpy as np
import pytest

from riskfuse import anfis
from riskfuse.anfis import (
    AnfisModel,
    _input_levels,
    _membership_matrix,
    _rule_outputs,
    apply_parameter_scaling,
    bell_membership,
    fit_consequents_least_squares,
    fit_consequents_ridge,
    forward,
    forward_batch,
    init_fis,
    mape,
    model_to_dict,
    rmse,
    scaling_objective,
    subtractive_clustering,
)
from riskfuse.errors import DataError, NumericalError
from riskfuse.pipeline import potential_scores


def make_model(premise_specs, consequents, spans=None):
    """premise_specs: per rule, per dim (m, l, k); consequents: per rule."""
    dim = len(premise_specs[0])
    if spans is None:
        spans = np.column_stack([np.zeros(dim), np.ones(dim)])
    return AnfisModel(
        premises=np.array(premise_specs, dtype=float),
        consequents=np.array(consequents, dtype=float),
        input_normalization=spans,
    )


def random_model(rng, dim=None, n_rules=None):
    dim = dim or int(rng.integers(1, 4))
    n_rules = n_rules or int(rng.integers(1, 5))
    specs = [
        [(rng.uniform(-1, 2), rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0)) for _ in range(dim)]
        for _ in range(n_rules)
    ]
    consequents = rng.normal(size=(n_rules, dim + 1))
    return make_model(specs, consequents)


class TestBellMembership:
    def test_center_gives_one(self):
        assert bell_membership(0.3, m=0.3, l=0.4, k=2.0) == 1.0

    def test_unit_distance_gives_half(self):
        assert bell_membership(1.5, m=1.0, l=0.5, k=1.0) == pytest.approx(0.5)

    def test_derived_point(self):
        assert bell_membership(2.0, 0.0, 1.0, 1.0) == pytest.approx(0.2)

    def test_positivity_constraints(self):
        with pytest.raises(DataError):
            make_model([[(0.0, 0.0, 1.0)]], [[0.0, 0.0]])
        with pytest.raises(DataError):
            make_model([[(0.0, 1.0, -1.0)]], [[0.0, 0.0]])

    def test_symmetric_and_decreasing(self, rng):
        mf = (0.5, 0.7, 1.5)  # m, l, k
        offsets = rng.uniform(0.0, 3.0, size=50)
        left = np.array([bell_membership(0.5 - d, *mf) for d in offsets])
        right = np.array([bell_membership(0.5 + d, *mf) for d in offsets])
        assert left == pytest.approx(right)
        ordered = np.sort(offsets)
        values = [bell_membership(0.5 + d, *mf) for d in ordered]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestForward:
    def test_single_active_rule(self):
        # Second rule's center is absurdly far away; its activation
        # underflows to zero and only the first rule fires.
        model = make_model(
            [[(0.0, 1.0, 1.0)], [(1e300, 1.0, 1.0)]],
            [[0.0, 3.0], [0.0, 2.0]],
        )
        assert forward(model, np.array([0.0])) == pytest.approx(3.0)

    def test_equal_weights_average(self):
        model = make_model(
            [[(0.0, 1.0, 1.0)], [(0.0, 1.0, 1.0)]],
            [[0.0, 3.0], [0.0, 2.0]],
        )
        assert forward(model, np.array([0.7])) == pytest.approx(2.5)

    def test_single_rule_normalization_cancels(self):
        model = make_model([[(0.3, 0.5, 1.0)]], [[2.0, 1.0]])
        assert forward(model, np.array([2.0])) == pytest.approx(5.0)

    def test_dead_activation_raises(self):
        model = make_model([[(1e300, 1.0, 1.0)]], [[1.0, 0.0]])
        with pytest.raises(NumericalError):
            forward(model, np.array([0.0]))

    def test_strengths_normalized_and_output_in_hull(self, rng):
        for _ in range(100):
            model = random_model(rng)
            x = rng.uniform(-1, 2, size=model.input_dim)
            outputs = _rule_outputs(model.consequents, x)
            value = forward(model, x)
            assert outputs.min() - 1e-9 <= value <= outputs.max() + 1e-9

    def test_membership_matrix_matches_rule_loop(self, rng):
        for _ in range(20):
            model = random_model(rng)
            xs = rng.uniform(-1, 2, size=(7, model.input_dim))
            loop = [
                [
                    np.prod([bell_membership(u, m, l, k) for u, (m, l, k) in zip(x, rule)])
                    for rule in model.premises
                ]
                for x in xs
            ]
            expected = np.array(loop).T  # (rules, samples): samples innermost
            levels = _input_levels(xs, model.input_dim)
            assert _membership_matrix(model.premises, levels) == pytest.approx(expected, rel=1e-14)

    def test_membership_matrix_broadcasts_over_candidates(self, rng):
        stacked = np.stack([random_model(rng, dim=2, n_rules=3).premises for _ in range(4)])
        levels = _input_levels(rng.uniform(-1, 2, size=(7, 2)), 2)
        batch = _membership_matrix(stacked[None], levels)
        assert batch.shape == (1, 4, 3, 7)
        for one, premises in zip(batch[0], stacked):
            assert one.tobytes() == _membership_matrix(premises, levels).tobytes()

    def test_input_width_checked(self, rng):
        model = random_model(rng, dim=2, n_rules=2)
        with pytest.raises(DataError, match="2 inputs"):
            forward_batch(model, np.zeros((3, 1)))
        with pytest.raises(DataError):
            forward(model, np.zeros(3))

    def test_batch_matches_scalar(self, rng):
        model = random_model(rng, dim=2, n_rules=3)
        xs = rng.uniform(-1, 2, size=(10, 2))
        batch = forward_batch(model, xs)
        singles = [forward(model, x) for x in xs]
        assert batch == pytest.approx(singles)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry",
        [forward_batch, lambda model, xs: potential_scores(model, list(xs)),
         lambda model, xs: forward(model, xs[1])],
        ids=["forward_batch", "potential_scores", "forward"],
    )
    def test_non_finite_rows_rejected(self, rng, entry, bad):
        model = random_model(rng, dim=2, n_rules=3)
        xs = rng.uniform(-1, 2, size=(4, 2))
        xs[1, 1] = bad
        with pytest.raises(DataError, match="finite"):
            entry(model, xs)



def per_row_strengths(premises, xs):
    """The firing strength of every rule at every row, written out: the
    bell formula evaluated on the rows themselves, inputs multiplied in
    order.  Shape (..., rules, samples)."""
    m, l, k = (p[..., None] for p in np.moveaxis(premises, -1, 0))  # (..., R, D, 1)
    w = 1.0
    with np.errstate(over="ignore"):
        for d in range(xs.shape[1]):
            u = xs[:, d]
            w = w * (1.0 / (1.0 + np.abs((u - m[..., d, :]) / l[..., d, :]) ** (2.0 * k[..., d, :])))
    return w


class TestTiedInputs:
    """Memberships are computed once per distinct input value and
    gathered back to the rows; every strength keeps the bits of the
    per-row formula."""

    ORDINAL = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    def check(self, premises, xs):
        levels = _input_levels(xs, premises.shape[-2])
        values, counts, where = levels
        assert counts.sum() == len(values) and where.shape == xs.T.shape
        for column_levels in np.split(values, np.cumsum(counts)[:-1]):
            assert np.all(np.diff(column_levels) > 0.0)
        for index, column in zip(where, xs.T):
            assert values[index].tobytes() == column.tobytes()
        got = _membership_matrix(premises, levels)
        assert got.tobytes() == per_row_strengths(premises, xs).tobytes()

    def test_repeated_values(self, rng):
        for _ in range(20):
            model = random_model(rng, dim=3, n_rules=4)
            self.check(model.premises, rng.choice(self.ORDINAL, size=(30, 3)))

    def test_signed_zeros_share_a_level(self, rng):
        model = random_model(rng, dim=1, n_rules=3)
        premises = model.premises.copy()
        premises[0, 0, 0] = 0.0  # one bell centred on zero
        xs = np.array([[0.0], [-0.0], [1.0], [-0.0]])
        assert _input_levels(xs, 1)[1].tolist() == [2]
        got = _membership_matrix(premises, _input_levels(xs, 1))
        assert got.tobytes() == per_row_strengths(premises, xs).tobytes()

    def test_duplicate_rows(self, rng):
        model = random_model(rng, dim=3, n_rules=3)
        xs = rng.uniform(-1, 2, size=(6, 3))
        self.check(model.premises, np.vstack([xs, xs[::-1], xs[:2]]))

    def test_constant_column(self, rng):
        model = random_model(rng, dim=3, n_rules=3)
        xs = rng.choice(self.ORDINAL, size=(12, 3))
        xs[:, 1] = 0.5
        assert _input_levels(xs, 3)[1][1] == 1
        self.check(model.premises, xs)

    def test_one_row(self, rng):
        model = random_model(rng, dim=3, n_rules=2)
        self.check(model.premises, rng.uniform(-1, 2, size=(1, 3)))

    def test_leading_candidate_axes(self, rng):
        stacked = np.stack([random_model(rng, dim=2, n_rules=3).premises for _ in range(6)])
        xs = rng.choice(self.ORDINAL, size=(9, 2))
        xs[:, 0] = xs[0, 0]
        self.check(stacked.reshape(2, 3, 3, 2, 3), xs)

    def test_underflow_and_overflow_kept(self):
        # A far-off level overflows |z|^(2k) to inf and its membership
        # underflows to exactly zero, as on the per-row path.
        premises = np.array([[[0.0, 1e-3, 200.0]], [[5.0, 1.0, 1.0]]])
        xs = np.array([[0.0], [4.0], [4.0], [0.0]])
        self.check(premises, xs)
        assert np.count_nonzero(_membership_matrix(premises, _input_levels(xs, 1))[0] == 0.0) == 2


class TestInputsKept:
    """The kernel computes in place only in arrays it allocates itself."""

    @pytest.mark.parametrize("lead", [(), (2, 3)])
    def test_kernel_leaves_its_inputs(self, rng, lead):
        model = random_model(rng, dim=3, n_rules=4)
        xs = rng.choice(TestTiedInputs.ORDINAL, size=(9, 3))
        premises = model.premises * rng.uniform(0.5, 1.5, size=lead + model.premises.shape)
        coefficients = rng.uniform(0.5, 1.5, size=(5, model.n_parameters))
        levels = _input_levels(xs, 3)
        kept = (premises, model.premises, model.consequents, coefficients, xs) + levels
        before = [a.tobytes() for a in kept]
        _membership_matrix(premises, levels)
        anfis._strengths(premises, levels)
        bell_membership(xs, *model.premises[0].T)
        forward_batch(model, xs)
        objective = scaling_objective(model, list(zip(xs, xs.sum(axis=1))))
        first = objective(coefficients)
        assert [a.tobytes() for a in kept] == before
        # The objective's own rows and levels survive the call too.
        assert objective(coefficients).tobytes() == first.tobytes()


class TestSubtractiveClustering:
    def test_single_point(self):
        centers = subtractive_clustering(np.array([[0.3, 0.7]]), radius=0.5)
        assert centers == pytest.approx(np.array([[0.3, 0.7]]))

    def test_duplicates_collapse(self):
        data = np.tile(np.array([[0.4, 0.6]]), (7, 1))
        centers = subtractive_clustering(data, radius=0.5)
        assert centers == pytest.approx(np.array([[0.4, 0.6]]))

    def test_two_blobs_found(self, rng):
        a = rng.normal(loc=0.2, scale=0.03, size=(40, 2))
        b = rng.normal(loc=0.8, scale=0.03, size=(40, 2))
        data = np.clip(np.vstack([a, b]), 0.0, 1.0)
        centers = subtractive_clustering(data, radius=0.3)
        assert len(centers) == 2
        means = np.array([a.mean(axis=0), b.mean(axis=0)])
        for mean in means:
            assert min(np.linalg.norm(c - mean) for c in centers) < 0.1

    def test_input_validation(self):
        with pytest.raises(DataError):
            subtractive_clustering(np.empty((0, 2)), radius=0.5)
        with pytest.raises(DataError):
            subtractive_clustering(np.array([[0.1]]), radius=0.0)


class TestInitFis:
    def test_rule_base_only(self, rng):
        xs = rng.uniform(0.0, 1.0, size=(30, 2))
        model = init_fis([(x, float(x.sum())) for x in xs], radius=0.5)
        assert not model.consequents.any()
        assert model.diagnostics == ()
        assert model.premises[..., 1:].min() > 0.0
        assert model.input_normalization == pytest.approx(
            np.column_stack([xs.min(axis=0), xs.max(axis=0)])
        )

    def test_recovers_global_linear_function(self, rng):
        u = rng.uniform(0.0, 1.0, size=60)
        train = [(np.array([x]), 2.0 * x + 1.0) for x in u]
        model = fit_consequents_least_squares(init_fis(train, radius=2.0), train)
        assert rmse(model, train) < 1e-6

    def test_single_training_point(self):
        train = [(np.array([0.4]), 0.9)]
        model = fit_consequents_least_squares(init_fis(train, radius=0.5), train)
        assert model.n_rules == 1
        assert forward(model, np.array([0.4])) == pytest.approx(0.9)


class TestLeastSquaresFit:
    def test_recovers_known_consequents(self, rng):
        generator = random_model(rng, dim=2, n_rules=2)
        xs = rng.uniform(-0.5, 1.5, size=(80, 2))
        train = [(x, forward(generator, x)) for x in xs]
        blank = make_model(generator.premises, np.zeros((2, 3)))
        refit = fit_consequents_least_squares(blank, train)
        assert rmse(refit, train) < 1e-8

    def test_constant_targets_reproduced(self, rng):
        xs = rng.uniform(0.0, 1.0, size=(30, 1))
        train = [(x, 4.2) for x in xs]
        model = fit_consequents_least_squares(random_model(rng, dim=1, n_rules=2), train)
        predictions = forward_batch(model, xs)
        assert predictions == pytest.approx(np.full(30, 4.2), abs=1e-8)

    def test_refit_is_idempotent(self, rng):
        model = random_model(rng, dim=2, n_rules=3)
        xs = rng.uniform(0.0, 1.0, size=(40, 2))
        train = [(x, float(np.sin(x.sum()))) for x in xs]
        once = fit_consequents_least_squares(model, train)
        twice = fit_consequents_least_squares(once, train)
        for c1, c2 in zip(once.consequents, twice.consequents):
            assert c2 == pytest.approx(c1, abs=1e-9)

    def test_fit_never_hurts(self, rng):
        for _ in range(10):
            model = random_model(rng, dim=1, n_rules=2)
            xs = rng.uniform(0.0, 1.0, size=(25, 1))
            train = [(x, float(rng.normal())) for x in xs]
            assert rmse(fit_consequents_least_squares(model, train), train) <= rmse(model, train) + 1e-12

    def test_rank_deficient_flagged(self):
        # Two identical rules make the design columns collinear.
        model = make_model(
            [[(0.5, 1.0, 1.0)], [(0.5, 1.0, 1.0)]],
            [[0.0, 0.0], [0.0, 0.0]],
        )
        train = [(np.array([x]), float(x)) for x in np.linspace(0, 1, 12)]
        refit = fit_consequents_least_squares(model, train)
        assert any("rank" in note for note in refit.diagnostics)
        assert rmse(refit, train) < 1e-8


class TestRidgeFit:
    def test_matches_primal_solve(self, rng):
        # Either side of the fit equals the textbook primal ridge system
        # (A^T A + lambda n I) theta = A^T y on the rule design A.  With
        # p = rules * (inputs + 1) unknowns on n rows, 9 < 20 solves the
        # primal system, 12 = 12 and 9 > 8 the dual one.
        for n_rows, n_rules in [(20, 3), (12, 4), (8, 3)]:
            model = random_model(rng, dim=2, n_rules=n_rules)
            xs = rng.uniform(0.0, 1.0, size=(n_rows, 2))
            ys = np.sin(3.0 * xs.sum(axis=1))
            fitted = fit_consequents_ridge(model, list(zip(xs, ys)))
            m, l, k = model.premises.transpose(2, 0, 1)
            w = bell_membership(xs[:, None, :], m, l, k).prod(axis=2)
            wbar = w / w.sum(axis=1, keepdims=True)
            augmented = np.column_stack([xs, np.ones(n_rows)])
            design = (wbar[:, :, None] * augmented[:, None, :]).reshape(n_rows, -1)
            lhs = design.T @ design + anfis.RIDGE * n_rows * np.eye(design.shape[1])
            primal = np.linalg.solve(lhs, design.T @ ys)
            assert fitted.consequents.ravel() == pytest.approx(primal, rel=1e-8, abs=1e-10)

    def test_shrinks_below_least_squares(self, rng):
        model = random_model(rng, dim=2, n_rules=3)
        xs = rng.uniform(0.0, 1.0, size=(12, 2))
        train = [(x, float(rng.normal())) for x in xs]
        ridge = fit_consequents_ridge(model, train)
        exact = fit_consequents_least_squares(model, train)
        assert np.linalg.norm(ridge.consequents) < np.linalg.norm(exact.consequents)
        assert rmse(ridge, train) >= rmse(exact, train) - 1e-12

    def test_dead_rows_raise(self):
        model = make_model([[(1e300, 1.0, 1.0)]], [[1.0, 0.0]])
        with pytest.raises(NumericalError):
            fit_consequents_ridge(model, [(np.array([0.0]), 1.0)])


class TestErrorMetrics:
    def test_perfect_predictions(self, rng):
        model = random_model(rng, dim=1, n_rules=2)
        xs = rng.uniform(0.0, 1.0, size=(15, 1))
        data = [(x, forward(model, x)) for x in xs]
        assert rmse(model, data) == pytest.approx(0.0, abs=1e-12)
        nonzero = [(x, y) for x, y in data if abs(y) > 1e-9]
        assert mape(model, nonzero) == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset(self):
        model = make_model([[(0.0, 1e6, 1.0)]], [[0.0, 11.0]])  # predicts 11 everywhere
        data = [(np.array([float(i)]), 10.0) for i in range(5)]
        assert rmse(model, data) == pytest.approx(1.0)
        assert mape(model, data) == pytest.approx(10.0)

    def test_mixed_errors(self):
        model = make_model([[(0.0, 1e6, 1.0)]], [[2.0, 9.0]])  # 2x + 9
        data = [(np.array([1.0]), 10.0), (np.array([0.0]), 10.0)]  # errors +1, -1
        assert rmse(model, data) == pytest.approx(1.0)
        assert mape(model, data) == pytest.approx(10.0)

    def test_mape_zero_target_rejected(self, rng):
        model = random_model(rng, dim=1, n_rules=1)
        with pytest.raises(DataError, match="zero targets"):
            mape(model, [(np.array([0.5]), 0.0)])


BAD_SAMPLES = {
    "ragged-inputs": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3]), 2.0)],
    "input-matrix": [(np.array([[0.1, 0.2]]), 1.0), (np.array([[0.3, 0.4]]), 2.0)],
    "text-input": [(np.array([0.1, 0.2]), 1.0), (["a", 0.4], 2.0)],
    "nan-input": [(np.array([0.1, 0.2]), 1.0), (np.array([np.nan, 0.4]), 2.0)],
    "text-target": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3, 0.4]), "high")],
    "vector-target": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3, 0.4]), [2.0, 3.0])],
    "none-target": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3, 0.4]), None)],
    "nan-target": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3, 0.4]), float("nan"))],
    "inf-target": [(np.array([0.1, 0.2]), 1.0), (np.array([0.3, 0.4]), float("inf"))],
    "empty": [],
}

ENTRY_POINTS = {
    "init_fis": lambda model, samples: init_fis(samples, radius=0.5),
    "least_squares": fit_consequents_least_squares,
    "ridge": fit_consequents_ridge,
    "scaling_objective": scaling_objective,
    "rmse": rmse,
    "mape": mape,
}


class TestSampleBoundary:
    """Every entry point that takes (input, target) samples rejects a
    malformed list with ``DataError``."""

    @pytest.mark.parametrize("samples", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_malformed_samples_rejected(self, rng, entry, samples):
        with pytest.raises(DataError, match="sample"):
            entry(random_model(rng, dim=2, n_rules=2), samples)

    def test_scalar_inputs_are_one_input(self, rng):
        model = random_model(rng, dim=1, n_rules=2)
        scalars = [(0.25, 1.0), (0.75, 2.0)]
        vectors = [(np.array([u]), y) for u, y in scalars]
        assert rmse(model, scalars) == rmse(model, vectors)


class TestParameterScaling:
    def test_identity_coefficients(self, rng):
        model = random_model(rng, dim=2, n_rules=2)
        scaled = apply_parameter_scaling(model, np.ones(model.n_parameters))
        assert scaled.premises == pytest.approx(model.premises)

    def test_single_width_doubles(self, rng):
        model = random_model(rng, dim=2, n_rules=2)
        coefficients = np.ones(model.n_parameters)
        coefficients[1] = 2.0  # width of rule 0, dimension 0
        scaled = apply_parameter_scaling(model, coefficients)
        before = model.premises.ravel()
        after = scaled.premises.ravel()
        assert after[1] == pytest.approx(2.0 * before[1])
        mask = np.ones(model.n_parameters, dtype=bool)
        mask[1] = False
        assert after[mask] == pytest.approx(before[mask])

    def test_negative_width_clamped_with_diagnostic(self, rng):
        model = random_model(rng, dim=1, n_rules=1)
        coefficients = np.ones(model.n_parameters)
        coefficients[1] = -1.0
        scaled = apply_parameter_scaling(model, coefficients)
        assert np.all(scaled.premises[..., 1] > 0.0)
        assert any("clamp" in note for note in scaled.diagnostics)

    def test_length_mismatch(self, rng):
        model = random_model(rng)
        with pytest.raises(DataError):
            apply_parameter_scaling(model, np.ones(model.n_parameters + 1))

    def test_flattening_order(self, rng):
        # Coefficient i scales premises.ravel()[i]: per rule, per input,
        # (m, l, k).  Premises only: the consequents are fitted, not tuned.
        model = random_model(rng, dim=2, n_rules=3)
        assert model.n_parameters == 18
        for i in range(model.n_parameters):
            coefficients = np.ones(model.n_parameters)
            coefficients[i] = 3.0
            scaled = apply_parameter_scaling(model, coefficients)
            expected = model.premises.ravel().copy()
            expected[i] *= 3.0
            assert scaled.premises.ravel().tobytes() == expected.tobytes()
            assert scaled.consequents.tobytes() == model.consequents.tobytes()


class TestGradients:
    def test_consequent_sensitivities(self, rng):
        # Output is linear in the consequents: the analytic derivative of
        # the output w.r.t. coefficient (j, d) is wbar_j * x_d (bias: wbar_j).
        for _ in range(20):
            model = random_model(rng, dim=2, n_rules=2)
            x = rng.uniform(0.0, 1.0, size=2)
            h = 1e-4
            strengths = []
            for rule in model.premises:  # (dim, 3) rows of (m, l, k)
                w = np.prod(bell_membership(x, *rule.T))
                strengths.append(w)
            wbar = np.array(strengths) / sum(strengths)
            for j in range(2):
                for d in range(3):  # slopes then bias
                    analytic = wbar[j] * (x[d] if d < 2 else 1.0)
                    bump = np.zeros_like(model.consequents)
                    bump[j, d] = h
                    up = replace(model, consequents=model.consequents + bump)
                    dn = replace(model, consequents=model.consequents - bump)
                    numeric = (forward(up, x) - forward(dn, x)) / (2 * h)
                    assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)


class TestModelToDict:
    def test_layout(self, rng):
        model = random_model(rng, dim=2, n_rules=3)
        model = replace(model, diagnostics=("a note",))
        payload = model_to_dict(model)
        assert list(payload) == ["input_dim", "rules", "input_normalization", "diagnostics"]
        assert payload["input_dim"] == 2
        assert len(payload["rules"]) == 3
        for rule, premises, consequent in zip(payload["rules"], model.premises, model.consequents):
            assert list(rule) == ["premises", "consequent"]
            assert rule["premises"] == premises.tolist()
            assert rule["consequent"] == consequent.tolist()
        assert payload["input_normalization"] == model.input_normalization.tolist()
        assert payload["diagnostics"] == ["a note"]
        assert json.loads(json.dumps(payload)) == payload  # JSON-native lists and numbers
