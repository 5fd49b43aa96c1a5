import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from riskfuse import anfis, dematel
from riskfuse.anfis import (
    AnfisModel,
    apply_parameter_scaling,
    fit_consequents_least_squares,
    fit_consequents_ridge,
    init_fis,
    rmse,
    scaling_objective,
)
from riskfuse.config import PipelineConfig, config_from_dict
from riskfuse.dataset import FeatureMapping, bundled_path
from riskfuse.ecsa import EcsaConfig, optimize
from riskfuse.errors import DataError, PipelineError
from riskfuse.fuzzy import DEFAULT_DEMATEL_SCALE
from riskfuse.pipeline import (
    RiskReport,
    aggregate_risk,
    cv_folds,
    potential_scores,
    prepare_samples,
    run_pipeline,
    split_train_test,
    tune_anfis_with_ecsa,
)
from riskfuse.reporting import report_to_json
from riskfuse.topsis import CriterionKind, IfDecisionMatrix, rank_weighted


def linear_samples(rng, n=50, dim=2):
    xs = rng.uniform(0.0, 1.0, size=(n, dim))
    slope = np.arange(1, dim + 1, dtype=float)
    return [(x, float(x @ slope + 0.5)) for x in xs]


def bumpy_samples(rng, n=80):
    xs = rng.uniform(0.0, 1.0, size=(n, 1))
    return [(x, float(np.sin(3.0 * x[0]) + 0.1 * x[0])) for x in xs]


@pytest.fixture(scope="module")
def respondent_fixture():
    payload = json.loads(bundled_path("respondents.json").read_text())
    return payload["respondents"]


class TestDeriveWeights:
    def test_two_by_two_trace(self):
        matrices = [[[0.0, 2.0], [1.0, 0.0]]]
        s = dematel.aggregate_responses(matrices, DEFAULT_DEMATEL_SCALE)
        weights = dematel.evaluate(s).weights
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_near_symmetric_judgments_near_uniform(self):
        cell = (0.25, 0.5, 0.75)
        matrix = [[0.0 if i == j else cell for j in range(3)] for i in range(3)]
        matrix[0][1] = (0.2500001, 0.5000001, 0.7500001)
        s = dematel.aggregate_responses([matrix], DEFAULT_DEMATEL_SCALE)
        weights = dematel.evaluate(s).weights
        assert weights == pytest.approx(np.full(3, 1 / 3), abs=1e-5)


class TestSplit:
    def test_nasa_proportions(self, nasa_records):
        train, test = split_train_test(nasa_records, 0.7, seed=3)
        assert (len(train), len(test)) == (65, 28)

    def test_partition_exact(self, nasa_records):
        train, test = split_train_test(nasa_records, 0.7, seed=3)
        ids = sorted(r.identifier for r in train + test)
        assert ids == sorted(r.identifier for r in nasa_records)

    def test_boundary_fractions_rejected(self, nasa_records):
        for fraction in (0.0, 1.0, 1.2):
            with pytest.raises(DataError):
                split_train_test(nasa_records, fraction, seed=0)
        with pytest.raises(DataError):
            split_train_test([], 0.7, seed=0)

    def test_seed_determinism(self, nasa_records):
        first = split_train_test(nasa_records, 0.7, seed=9)
        second = split_train_test(nasa_records, 0.7, seed=9)
        assert [r.identifier for r in first[0]] == [r.identifier for r in second[0]]


class TestCvFolds:
    def test_93_records_three_folds(self, nasa_records):
        folds = cv_folds(nasa_records, 3, seed=1)
        assert [len(test) for _, test in folds] == [31, 31, 31]
        assert all(len(train) == 62 for train, _ in folds)

    def test_remainder_distribution(self):
        folds = cv_folds(list(range(94)), 3, seed=1)
        assert sorted(len(test) for _, test in folds) == [31, 31, 32]

    def test_rotation_covers_everything(self):
        records = list(range(10))
        folds = cv_folds(records, 3, seed=2)
        for train, test in folds:
            assert sorted(train + test) == records

    def test_too_few_records(self):
        with pytest.raises(DataError):
            cv_folds([1, 2], 3, seed=0)

    def test_one_fold_rejected(self):
        with pytest.raises(DataError, match="fold count must be >= 2, got 1"):
            cv_folds([1, 2, 3], 1, seed=0)


class TestTuning:
    def test_winner_is_a_kept_run_model(self, nasa_records, catalog, quick_config):
        _, fold, base = _fold0(nasa_records, catalog, "groups")
        base = fit_consequents_least_squares(base, fold)
        assert any(d.startswith("rank-deficient") for d in base.diagnostics)
        tuning = tune_anfis_with_ecsa(fold, fold[:10], quick_config, base_model=base)
        assert len(tuning.coefficients) == 3 * base.n_rules * base.input_dim
        assert tuning.train_rmse <= tuning.base_train_rmse
        winner = min(tuning.run_stats, key=lambda run: run["test_rmse"])
        assert (tuning.train_rmse, tuning.test_rmse) == (winner["best_fitness"], winner["test_rmse"])
        # A run's best fitness is its model's training RMSE.
        assert abs(winner["best_fitness"] - rmse(tuning.model, fold)) <= 1e-12
        # The winner is the run's ridge-fitted model, not a refit of it,
        # and carries no note of the base model's least-squares fit.
        refit = fit_consequents_ridge(apply_parameter_scaling(base, tuning.coefficients), fold)
        assert np.array_equal(tuning.model.consequents, refit.consequents)
        assert not any(d.startswith("rank-deficient") for d in tuning.model.diagnostics)

    def test_perturbed_base_strictly_improved(self, rng):
        config = PipelineConfig(runs=3, max_iterations=30, cluster_radius=0.4)
        samples = bumpy_samples(rng)
        train, test = split_train_test(samples, 0.7, seed=2)
        base = init_fis(train, config.cluster_radius)
        coefficients = np.ones(base.n_parameters)
        dim = base.input_dim
        for j in range(base.n_rules):
            for d in range(dim):
                coefficients[(j * dim + d) * 3 + 1] = 2.0  # double every width
        from riskfuse.anfis import apply_parameter_scaling

        perturbed = apply_parameter_scaling(base, coefficients)
        tuning = tune_anfis_with_ecsa(train, test, config, base_model=perturbed)
        assert tuning.train_rmse <= tuning.base_train_rmse
        assert tuning.train_rmse < 0.95 * tuning.base_train_rmse

    def test_base_consequents_ignored(self, nasa_records, catalog, quick_config):
        """Tuning reads only the base premises: random consequents and a
        diagnostic note on the base change no result."""
        _, fold, base = _fold0(nasa_records, catalog, "groups")
        noisy = replace(
            base,
            consequents=np.random.default_rng(9).normal(size=base.consequents.shape),
            diagnostics=("a note",),
        )
        plain = tune_anfis_with_ecsa(fold, fold[:10], quick_config, base_model=base)
        tuned = tune_anfis_with_ecsa(fold, fold[:10], quick_config, base_model=noisy)
        assert tuned.coefficients.tobytes() == plain.coefficients.tobytes()
        assert tuned.model.consequents.tobytes() == plain.model.consequents.tobytes()
        assert tuned.model.diagnostics == plain.model.diagnostics
        assert tuned.run_stats == plain.run_stats
        assert tuned.base_train_rmse == plain.base_train_rmse

    def test_deterministic_under_master_seed(self, rng, quick_config):
        samples = bumpy_samples(rng, n=40)
        train, test = split_train_test(samples, 0.7, seed=4)
        a = tune_anfis_with_ecsa(train, test, quick_config)
        b = tune_anfis_with_ecsa(train, test, quick_config)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.test_rmse == b.test_rmse


def _fold0(nasa_records, catalog, mode):
    """Training rows and base model of fold 0 of the seed-11 protocol."""
    config = PipelineConfig(anfis_inputs=mode, seed=11)
    mapping = FeatureMapping.fit(nasa_records, config.ordinal_values, config.missing_value)
    samples, _, _ = prepare_samples(nasa_records, catalog, mapping, mode)
    split_seed, cv_seed = np.random.SeedSequence(config.seed).generate_state(4)[:2]
    train, _ = split_train_test(samples, config.split_fraction, int(split_seed))
    fold, _ = cv_folds(train, config.cv_folds, int(cv_seed))[0]
    return config, fold, init_fis(fold, config.cluster_radius)


class TestSearchObjective:
    """The tuning objective against the model-building reference path."""

    @pytest.mark.parametrize("mode, shape", [("groups", (3, 6)), ("codes", (43, 13))])
    def test_matches_scale_refit_rmse_bit_for_bit(self, nasa_records, catalog, mode, shape):
        """Each row scores the same bits alone as in a batch, and matches
        the RMSE of the scaled, ridge-fitted model.

        The two agree exactly in exact arithmetic: the fit's training
        residual is RIDGE n alpha.  In floating point they differ by the
        solve's backward error, about eps ||K|| ||alpha|| in the residual,
        where the kernel K = (wbar wbar^T) * gram has ||K|| <= ||gram||
        (wbar rows have norm <= 1).  Relative to the RMSE RIDGE sqrt(n)
        ||alpha|| that is eps ||gram|| / (RIDGE n); the test allows 64
        times it.
        """
        config, fold, base = _fold0(nasa_records, catalog, mode)
        assert (base.n_rules, base.input_dim) == shape
        assert base.n_parameters == 3 * shape[0] * shape[1]
        objective = scaling_objective(base, fold)
        x = np.array([inp for inp, _ in fold])
        augmented = np.column_stack([x, np.ones(len(x))])
        gram_norm = np.linalg.norm(augmented @ augmented.T, 2)
        rel = 64 * np.finfo(float).eps * gram_norm / (anfis.RIDGE * len(fold))

        rng = np.random.default_rng(3)
        # The default box, then the signed one, whose negative width and
        # shape coefficients hit the MIN_SHAPE_PARAM clamp.
        for lo, hi in (config.coefficient_bounds(), (-10.0, 10.0)):
            batch = rng.uniform(lo, hi, size=(4, base.n_parameters))
            batch[0] = 1.0
            values = objective(batch)
            rows = np.concatenate([objective(row[None]) for row in batch])
            assert values.tobytes() == rows.tobytes()
            scaled = [apply_parameter_scaling(base, row) for row in batch]
            expected = [rmse(fit_consequents_ridge(model, fold), fold) for model in scaled]
            assert values == pytest.approx(expected, rel=rel)
        assert any(d.startswith("clamped") for d in scaled[1].diagnostics)

    def test_primal_side_agrees_with_dual_side(self, nasa_records, catalog):
        """The groups fold solves the primal system (p = 21 < n = 43); the
        dual solve of the same fits, written out here, scores the same
        candidates to 1e-12 relative."""
        config, fold, base = _fold0(nasa_records, catalog, "groups")
        x = np.array([inp for inp, _ in fold])
        y = np.array([target for _, target in fold])
        n, p = len(fold), base.n_rules * (base.input_dim + 1)
        assert p < n
        batch = np.random.default_rng(5).uniform(
            *config.coefficient_bounds(), size=(8, base.n_parameters)
        )
        batch[0] = 1.0
        premises = anfis._scaled_premises(base.premises, batch)
        wbar, _ = anfis._strengths(premises, anfis._input_levels(x, base.input_dim))
        augmented = np.column_stack([x, np.ones(n)])
        kernel = (np.swapaxes(wbar, -1, -2) @ wbar) * (augmented @ augmented.T)
        alpha = np.linalg.solve(kernel + anfis.RIDGE * n * np.eye(n), y)
        dual = anfis.RIDGE * np.sqrt(n) * np.linalg.norm(alpha, axis=-1)
        assert scaling_objective(base, fold)(batch) == pytest.approx(dual, rel=1e-12)

    def test_dual_side_scores_pinned(self, nasa_records, catalog):
        """The codes fold (p = 602 unknowns on n = 43 rows) solves the dual
        system.  Its scores are pinned bit for bit: the codes reports
        depend on every bit of them, since the search ranks crows whose
        scores tie to rounding."""
        config, fold, base = _fold0(nasa_records, catalog, "codes")
        batch = np.random.default_rng(7).uniform(
            *config.coefficient_bounds(), size=(4, base.n_parameters)
        )
        batch[0] = 1.0
        values = scaling_objective(base, fold)(batch)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "2781bb830d27e3879981b903e212ae3fb242b1525be87e8f61a013b976c3c1d7"
        )

    def test_primal_side_scores_pinned(self, nasa_records, catalog):
        """The groups fold (p = 21 unknowns on n = 43 rows) solves the
        primal system.  Its scores are pinned bit for bit: the groups
        reports depend on every bit of them, since the search ranks crows
        whose scores tie to rounding."""
        config, fold, base = _fold0(nasa_records, catalog, "groups")
        batch = np.random.default_rng(7).uniform(
            *config.coefficient_bounds(), size=(4, base.n_parameters)
        )
        batch[0] = 1.0
        values = scaling_objective(base, fold)(batch)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "c493f6773419112ac5ce1f1aa50330ab49460bd8b14789222fe4c1dd5d41d379"
        )

    @pytest.mark.parametrize(
        "mode, digest",
        [("groups", "5cbb227ede1ab8cff7e97c4f9364c1d02d9d0ed5bca90b1e18ece436b89fb345"),
         ("codes", "3fcd26ac67c5057b5a07ab93fa45e3b3e61bd988e3229514261c3cc8ac3a7bb3")],
    )
    def test_search_sized_batch_pinned_and_rows_alone(self, nasa_records, catalog, mode, digest):
        """A batch of 10, the search's population: the all-ones row, eight
        rows of the default box and one of the signed box, whose width and
        shape coefficients hit the clamp.  Its scores keep the bits they
        had before the fold constants and the rows-first membership
        gather; each row scores the same bits alone, on the primal
        (groups) and the dual (codes) side."""
        config, fold, base = _fold0(nasa_records, catalog, mode)
        rng = np.random.default_rng(28)
        batch = rng.uniform(*config.coefficient_bounds(), size=(10, base.n_parameters))
        batch[0] = 1.0
        batch[9] = rng.uniform(-10.0, 10.0, size=base.n_parameters)
        objective = scaling_objective(base, fold)
        values = objective(batch)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest
        rows = np.concatenate([objective(row[None]) for row in batch])
        assert rows.tobytes() == values.tobytes()

    def test_underflowing_candidate_scores_inf(self):
        # One rule centred at 0; the candidate clamps its width to 1e-6 and
        # raises its shape exponent to 300, so every membership underflows.
        base = AnfisModel(
            premises=[[[0.0, 1.0, 1.0]]],
            consequents=[[1.0, 0.0]],
            input_normalization=[[0.0, 1.0]],
        )
        train = [(np.array([u]), 2.0 * u) for u in np.linspace(0.5, 1.0, 6)]
        objective = scaling_objective(base, train)
        candidate = np.array([1.0, 0.0, 300.0])
        values = objective(np.array([candidate, np.ones(3)]))
        assert values[0] == np.inf and np.isfinite(values[1])
        config = EcsaConfig(bounds=((-1.0, 300.0),) * base.n_parameters, seed=1)
        result = optimize(objective, config, initial_guesses=[candidate])
        assert np.isfinite(result.best_fitness)
        assert not np.array_equal(result.best_position, candidate)


class TestGoldenReport:
    """The seed-11 JSON reports under the benchmark's two pipeline
    configs, pinned bit for bit: any change to a report's bytes must be
    deliberate and re-pin these digests."""

    @pytest.mark.parametrize(
        "payload, digest",
        [
            ({"runs": 1},
             "ddcaf1e2ae13c14f1a2b4aa1b1f96e2879fcd259ca9e2d3c6c990d26e3c33b4c"),
            ({"anfis_inputs": "codes", "runs": 1, "max_iterations": 6},
             "c2f27abca4242fd42c691b029f6955bd22b167364c41a76151bc5c3a11323ef5"),
        ],
        ids=["groups", "codes"],
    )
    def test_report_digest_pinned(self, nasa_records, respondent_fixture, payload, digest):
        config = config_from_dict({**payload, "seed": 11})
        text = report_to_json(run_pipeline(nasa_records, respondent_fixture, config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestHeldoutGuard:
    @pytest.mark.parametrize("seed", range(41, 46))
    def test_heldout_rmse_bounded(self, nasa_records, respondent_fixture, seed):
        # Targets lie in [0, 1]; a tuned model that interpolates noise
        # extrapolates far outside that range on held-out rows.
        config = PipelineConfig(runs=1, seed=seed)
        report = run_pipeline(nasa_records, respondent_fixture, config)
        assert report.metadata["heldout_rmse"] <= 1.0


class TestScoresAndAggregate:
    def test_training_point_scored_close(self, rng, quick_config):
        samples = linear_samples(rng, n=40)
        model = fit_consequents_least_squares(init_fis(samples, quick_config.cluster_radius), samples)
        x, y = samples[0]
        model_rmse = rmse(model, samples)
        scores = potential_scores(model, [x])
        assert abs(scores[0] - y) <= max(5.0 * model_rmse, 1e-6)

    def test_identical_factors_identical_scores(self, rng, quick_config):
        samples = linear_samples(rng, n=40)
        model = fit_consequents_least_squares(init_fis(samples, quick_config.cluster_radius), samples)
        probe = samples[0][0]
        scores = potential_scores(model, [probe, probe])
        assert scores[0] == scores[1]

    def test_empty_factor_list(self, rng, quick_config):
        samples = linear_samples(rng, n=40)
        model = init_fis(samples, quick_config.cluster_radius)
        assert potential_scores(model, []).size == 0

    def test_aggregate_examples(self):
        assert aggregate_risk([0.5, 0.5], [0.2, 0.4]) == pytest.approx(0.3)
        assert aggregate_risk([1.0, 0.0], [0.7, 0.9]) == pytest.approx(0.7)
        assert aggregate_risk([0.3, 0.7], [0.0, 0.0]) == 0.0
        with pytest.raises(DataError):
            aggregate_risk([0.5], [0.2, 0.4])


class TestRiskReport:
    def test_p_out_must_recompute(self):
        with pytest.raises(DataError):
            RiskReport(
                criteria=["a", "b"],
                weights=[0.5, 0.5],
                potential_scores=[0.2, 0.4],
                closeness=[0.5, 0.5],
                ranking=[0, 1],
                p_out=0.9,
            )

    def test_weights_and_scores_lengths_must_match(self):
        with pytest.raises(DataError, match="differ in length"):
            RiskReport(
                criteria=["a", "b"],
                weights=[0.5, 0.5],
                potential_scores=[0.2],
                closeness=[0.5, 0.5],
                ranking=[0, 1],
                p_out=0.1,
            )

    def test_ranking_must_be_permutation(self):
        with pytest.raises(DataError):
            RiskReport(
                criteria=["a", "b"],
                weights=[0.5, 0.5],
                potential_scores=[0.2, 0.4],
                closeness=[0.5, 0.5],
                ranking=[0, 0],
                p_out=0.3,
            )


@pytest.fixture(scope="module")
def quick_pipeline_report(nasa_records, respondent_fixture):
    config = PipelineConfig(runs=2, max_iterations=10, population_size=4, seed=5)
    return run_pipeline(nasa_records, respondent_fixture, config)


class TestRunPipeline:
    def test_report_is_deterministic(self, nasa_records, respondent_fixture, quick_pipeline_report):
        config = PipelineConfig(runs=2, max_iterations=10, population_size=4, seed=5)
        again = run_pipeline(nasa_records, respondent_fixture, config)
        assert again.to_dict() == quick_pipeline_report.to_dict()

    def test_report_consistency(self, quick_pipeline_report):
        report = quick_pipeline_report
        assert sorted(report.ranking) == list(range(6))
        assert report.p_out == pytest.approx(
            float(np.dot(report.weights, report.potential_scores)), abs=1e-9
        )
        assert sum(report.weights) == pytest.approx(1.0, abs=1e-9)

    def test_topsis_internally_consistent(self, quick_pipeline_report):
        report = quick_pipeline_report
        kinds = tuple(
            CriterionKind(k) for k in report.intermediates["criteria_kinds"]
        )
        matrix = IfDecisionMatrix(
            rows=report.intermediates["weighted_if_matrix"], criteria_kinds=kinds
        )
        xi, ranking = rank_weighted(matrix.rows, matrix.benefit)
        assert xi == pytest.approx(report.closeness, abs=1e-12)
        assert ranking == report.ranking

    def test_missing_respondents_names_stage(self, nasa_records):
        config = PipelineConfig(runs=2, max_iterations=5, population_size=4)
        with pytest.raises(PipelineError, match="dematel"):
            run_pipeline(nasa_records, [], config)

    def test_unknown_label_names_stage(self, nasa_records, respondent_fixture):
        grid = [list(row) for row in respondent_fixture[0]]
        grid[0][1] = "Purple"
        config = PipelineConfig(runs=2, max_iterations=5, population_size=4)
        with pytest.raises(PipelineError, match="dematel.*Purple"):
            run_pipeline(nasa_records, [grid], config)

    def test_wrong_matrix_size_names_stage(self, nasa_records):
        config = PipelineConfig(runs=2, max_iterations=5, population_size=4)
        with pytest.raises(PipelineError, match="dematel"):
            run_pipeline(nasa_records, [[[0.0, 1.0], [1.0, 0.0]]], config)

    def test_fold_metrics_recorded(self, quick_pipeline_report):
        metrics = quick_pipeline_report.metadata["fold_metrics"]
        assert len(metrics) == 3
        for entry in metrics:
            assert entry["train_rmse"] <= entry["base_train_rmse"] + 1e-12
            assert entry["test_mape"] > 0.0

    def test_single_criterion_run(self, nasa_records):
        from riskfuse.dataset import CriteriaCatalog

        catalog = CriteriaCatalog(groups={"Q": ("RELY",)}, columns={"RELY": "rely"})
        config = PipelineConfig(runs=2, max_iterations=5, population_size=4, seed=3)
        report = run_pipeline(nasa_records, [[[0.0]]], config, catalog=catalog)
        assert report.weights == [1.0]
        assert report.ranking == [0]
        assert report.p_out == pytest.approx(report.potential_scores[0])
