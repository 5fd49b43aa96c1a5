"""End-to-end risk evaluation pipeline.

Chains the stages: DEMATEL criterion weights from respondent judgments,
a crow-search-tuned neuro-fuzzy model for risk magnitudes (70/30 split
with k-fold cross-validation inside the training portion), intuitionistic
TOPSIS ranking of the risk factors, and the final weighted risk score.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import anfis, dematel, topsis
from .config import PipelineConfig
from .dataset import (
    CriteriaCatalog,
    FeatureMapping,
    ProjectRecord,
    default_catalog,
    feature_table,
)
from .ecsa import optimize
from .errors import DataError, PipelineError, RiskfuseError
from .fuzzy import lift_crisp

P_OUT_TOL = 1e-9


@dataclass(frozen=True)
class RiskReport:
    """Everything a pipeline run produced, JSON-native throughout.

    The aggregate score always recomputes from the recorded weights and
    potential scores, and the ranking is a permutation of the factor
    indices; both are enforced at construction.
    """

    criteria: list[str]
    weights: list[float]
    potential_scores: list[float]
    closeness: list[float]
    ranking: list[int]
    p_out: float
    intermediates: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != len(self.potential_scores):
            raise DataError("weights and potential scores differ in length")
        recomputed = float(np.dot(self.weights, self.potential_scores))
        if abs(recomputed - self.p_out) > P_OUT_TOL:
            raise DataError(
                f"p_out {self.p_out} does not recompute from weights and scores "
                f"({recomputed})"
            )
        if sorted(self.ranking) != list(range(len(self.criteria))):
            raise DataError("ranking is not a permutation of the factor indices")

    def to_dict(self) -> dict:
        """The fields in order, shallow: every value is already JSON-native,
        so a deep copy would only cost time."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RiskReport":
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise DataError(f"not a risk report: {exc}") from exc


@contextmanager
def _stage(name: str):
    """Re-raise a package error from the block as stage ``name``'s
    :class:`PipelineError`, keeping the original as its cause."""
    try:
        yield
    except RiskfuseError as exc:
        raise PipelineError(name, str(exc)) from exc


def split_train_test(records: Sequence, fraction: float, seed: int) -> tuple[list, list]:
    """Seeded shuffle then split; the training part takes
    floor(n * fraction) records and the partition is exact."""
    if not records:
        raise DataError("cannot split an empty record list")
    if not (0.0 < fraction < 1.0):
        raise DataError(f"split fraction must be inside (0, 1), got {fraction}")
    order = np.random.default_rng(seed).permutation(len(records))
    cut = math.floor(len(records) * fraction)
    train = [records[i] for i in order[:cut]]
    test = [records[i] for i in order[cut:]]
    return train, test


def cv_folds(records: Sequence, k: int, seed: int) -> list[tuple[list, list]]:
    """Seeded k-fold rotation: k (train, test) pairs with fold sizes
    differing by at most one."""
    if k < 2:
        raise DataError(f"fold count must be >= 2, got {k}")
    if len(records) < k:
        raise DataError(f"{len(records)} records cannot fill {k} folds")
    order = np.random.default_rng(seed).permutation(len(records))
    chunks = np.array_split(order, k)
    pairs = []
    for i in range(k):
        test = [records[j] for j in chunks[i]]
        train = [records[j] for c, chunk in enumerate(chunks) if c != i for j in chunk]
        pairs.append((train, test))
    return pairs


@dataclass(frozen=True)
class TuningResult:
    """Best tuned model with per-run statistics."""

    model: anfis.AnfisModel
    coefficients: np.ndarray
    base_train_rmse: float
    train_rmse: float
    test_rmse: float
    test_mape: float
    run_stats: list[dict]


def tune_anfis_with_ecsa(
    train: anfis.Samples,
    test: anfis.Samples,
    config: PipelineConfig,
    base_model: anfis.AnfisModel | None = None,
) -> TuningResult:
    """Tune a neuro-fuzzy model by searching premise-scaling coefficients.

    Builds the base model by subtractive clustering (unless one is
    supplied), then runs the configured number of independent crow
    searches over the coefficient box (Jang's hybrid scheme: the search
    moves the premises, the consequents follow in closed form).  The
    objective scales the base premises, fits the consequents by ridge
    regression, and scores training RMSE.  The all-ones coefficient
    vector is injected into every initial population, so no run ends
    above the base premises' score, ``base_train_rmse``.  Each run keeps
    its best candidate's model; the winner across runs is picked by test
    RMSE.  A run's ``best_fitness`` is its model's training RMSE.
    """
    train, test = anfis._stack_samples(train), anfis._stack_samples(test)
    if base_model is None:
        base_model = anfis.init_fis(train, config.cluster_radius)
    # The tuned models replace the base consequents, so they carry none of
    # the notes of a supplied base's own fit.
    base_model = replace(base_model, diagnostics=())
    objective = anfis.scaling_objective(base_model, train)
    n_coeff = base_model.n_parameters
    identity = np.ones(n_coeff)

    search = config.ecsa_config(n_coeff)
    run_seeds = np.random.SeedSequence(config.seed).generate_state(config.runs)
    run_stats: list[dict] = []
    kept: list[tuple[anfis.AnfisModel, np.ndarray]] = []
    for run_index, run_seed in enumerate(run_seeds):
        result = optimize(objective, replace(search, seed=int(run_seed)), initial_guesses=[identity])
        candidate = anfis.fit_consequents_ridge(
            anfis.apply_parameter_scaling(base_model, result.best_position), train
        )
        kept.append((candidate, result.best_position))
        run_stats.append(
            {
                "run": run_index,
                "seed": int(run_seed),
                "best_fitness": result.best_fitness,
                "test_rmse": anfis.rmse(candidate, test),
            }
        )

    winner = min(range(len(kept)), key=lambda i: run_stats[i]["test_rmse"])
    model, coefficients = kept[winner]
    return TuningResult(
        model=model,
        coefficients=coefficients,
        base_train_rmse=float(objective(identity[None])[0]),
        train_rmse=run_stats[winner]["best_fitness"],
        test_rmse=run_stats[winner]["test_rmse"],
        test_mape=anfis.mape(model, test),
        run_stats=run_stats,
    )


@dataclass(frozen=True)
class CrossValidation:
    """The tuning protocol's artifacts: the seeds it derived, the sample
    row indices of the train/test split and of the folds of the training
    part, and one tuning result per fold."""

    stage_seeds: dict[str, int]
    train: list[int]
    test: list[int]
    folds: list[tuple[list[int], list[int]]]
    tunings: list[TuningResult]


def cross_validate(samples: anfis.Samples, config: PipelineConfig) -> CrossValidation:
    """Run the tuning protocol on the samples.

    Derives the split, fold and tuning seeds from ``config.seed``, stacks
    the samples once, splits their row indices, cuts the training part
    into folds, and tunes one model per fold on its rows (fold i searches
    with the tuning seed plus i).  Split failures raise
    :class:`PipelineError` for stage ``split``, tuning failures for stage
    ``tuning``.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(4)
    split_seed, cv_seed, tune_seed = (int(s) for s in seeds[:3])
    with _stage("split"):
        x, y = anfis._stack_samples(samples)
        train, test = split_train_test(range(len(y)), config.split_fraction, split_seed)
        folds = cv_folds(train, config.cv_folds, cv_seed)
    with _stage("tuning"):
        tunings = [
            tune_anfis_with_ecsa((x[tr], y[tr]), (x[te], y[te]), replace(config, seed=tune_seed + i))
            for i, (tr, te) in enumerate(folds)
        ]
    return CrossValidation(
        stage_seeds={"split": split_seed, "cv": cv_seed, "tuning": tune_seed},
        train=train,
        test=test,
        folds=folds,
        tunings=tunings,
    )


def potential_scores(model: anfis.AnfisModel, factor_inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Model output per risk factor's probe feature vector."""
    if not len(factor_inputs):
        return np.array([])
    return anfis.forward_batch(model, np.array(factor_inputs, dtype=float))


def aggregate_risk(w: np.ndarray, f: np.ndarray) -> float:
    """Weighted risk score: the weight/score dot product."""
    w = np.asarray(w, dtype=float)
    f = np.asarray(f, dtype=float)
    if w.shape != f.shape:
        raise DataError(f"weights {w.shape} and scores {f.shape} differ in length")
    return float(w @ f)


def prepare_samples(
    records: list[ProjectRecord],
    catalog: CriteriaCatalog,
    mapping: FeatureMapping,
    mode: str,
) -> tuple[list[tuple[np.ndarray, float]], np.ndarray, np.ndarray]:
    """Turn records into (features, target) samples plus the full feature
    matrix and a (groups, features) mask of the columns each criterion
    group owns.

    The feature table holds one column per resolvable catalog code.  In
    ``groups`` mode each group's feature is the mean of its columns; a
    group with none (reuse risk on COCOMO-81 data) reads the mapping's
    missing value, a constant column.
    """
    features, targets = feature_table(records, catalog, mapping)
    codes = catalog.resolvable_codes()
    owned = np.array(
        [[code in catalog.groups[group] for code in codes] for group in catalog.groups],
        dtype=bool,
    )
    if mode == "groups":
        features = np.column_stack([
            features[:, columns].mean(axis=1) if columns.any()
            else np.full(len(features), mapping.missing_value)
            for columns in owned
        ])
        owned = np.eye(len(owned), dtype=bool)
    return list(zip(features, targets.tolist())), features, owned


def run_pipeline(
    records: list[ProjectRecord],
    respondent_matrices: list,
    config: PipelineConfig,
    catalog: CriteriaCatalog | None = None,
) -> RiskReport:
    """Execute the full risk-evaluation flow and collect every artifact.

    Stage failures raise :class:`PipelineError` carrying the stage name.
    Fixed seeds make the resulting report byte-identical across runs.
    """
    catalog = catalog or default_catalog()
    criteria = list(catalog.group_names())
    n = len(criteria)

    # DEMATEL criterion weights.
    with _stage("dematel"):
        s = dematel.aggregate_responses(respondent_matrices, config.scale)
        if len(s) != n:
            raise DataError(
                f"judgment matrices are {len(s)}x{len(s)} but the catalog defines {n} criteria"
            )
        dematel_result = dematel.evaluate(s)
    weights = dematel_result.weights

    # Feature extraction.
    with _stage("features"):
        mapping = FeatureMapping.fit(records, config.ordinal_values, config.missing_value)
        samples, features, owned = prepare_samples(
            records, catalog, mapping, config.anfis_inputs
        )
        x, y = anfis._stack_samples(samples)

    # Protocol: split, per-fold tuning, winner by fold-test error.
    cv = cross_validate((x, y), config)
    fold_metrics = [
        {
            "fold": fold_index,
            "train_size": len(fold_train),
            "test_size": len(fold_test),
            "base_train_rmse": tuning.base_train_rmse,
            "train_rmse": tuning.train_rmse,
            "test_rmse": tuning.test_rmse,
            "test_mape": tuning.test_mape,
        }
        for fold_index, ((fold_train, fold_test), tuning) in enumerate(zip(cv.folds, cv.tunings))
    ]
    best_tuning = min(cv.tunings, key=lambda tuning: tuning.test_rmse)
    model = best_tuning.model
    with _stage("tuning"):
        heldout = (x[cv.test], y[cv.test])
        heldout_rmse = anfis.rmse(model, heldout)
        heldout_mape = anfis.mape(model, heldout)

    # Potential scores per risk factor.
    with _stage("scores"):
        # Each factor's probe: dataset-mean features with the factor's
        # own columns stressed to their observed maximum.
        probes = np.where(owned, features.max(axis=0), features.mean(axis=0))
        f = potential_scores(model, probes)

    # Intuitionistic TOPSIS ranking of the factors.
    with _stage("topsis"):
        kinds = config.kinds_for(n)
        # A lone criterion's total relation is zero: full evidence.
        t = dematel_result.t
        evidence = t / t.max() if n > 1 else np.ones((n, n))
        raw_matrix = topsis.IfDecisionMatrix(
            rows=lift_crisp(np.clip(f, 0.0, 1.0)[:, None] * evidence), criteria_kinds=kinds
        )
        weighted, xi, ranking = topsis.evaluate(raw_matrix, topsis.lift_crisp_weights(weights))
        ties = topsis.tied_groups(xi)

    # Aggregate risk score.
    with _stage("aggregate"):
        p_out = aggregate_risk(weights, f)

    intermediates = {
        "direct_relation": s.tolist(),
        "normalized_relation": dematel_result.q.tolist(),
        "total_relation": dematel_result.t.tolist(),
        "prominence": dematel_result.prominence.tolist(),
        "relation": dematel_result.relation.tolist(),
        "raw_if_matrix": raw_matrix.rows.tolist(),
        "weighted_if_matrix": weighted.tolist(),
        "criteria_kinds": [k.value for k in kinds],
        "factor_probes": probes.tolist(),
        "model": anfis.model_to_dict(model),
    }
    metadata = {
        "seed": config.seed,
        "stage_seeds": cv.stage_seeds,
        "records": len(records),
        "train_size": len(cv.train),
        "test_size": len(cv.test),
        "fold_metrics": fold_metrics,
        "heldout_rmse": heldout_rmse,
        "heldout_mape": heldout_mape,
        "run_stats": best_tuning.run_stats,
        "ties": ties,
    }
    return RiskReport(
        criteria=criteria,
        weights=[float(w) for w in weights],
        potential_scores=[float(v) for v in f],
        closeness=[float(v) for v in xi],
        ranking=[int(i) for i in ranking],
        p_out=p_out,
        intermediates=intermediates,
        metadata=metadata,
    )
