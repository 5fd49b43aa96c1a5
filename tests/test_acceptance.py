"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from riskfuse.anfis import (
    AnfisModel,
    apply_parameter_scaling,
    bell_membership,
    fit_consequents_least_squares,
    forward,
    init_fis,
    rmse,
)
from riskfuse.cli import cli_main
from riskfuse.config import PipelineConfig
from riskfuse.dataset import bundled_path, load_dataset
from riskfuse.dematel import (
    evaluate as dematel_evaluate,
    normalize_direct_matrix,
    total_relation_matrix,
)
from riskfuse.ecsa import (
    EcsaConfig,
    classical_csa,
    optimize,
    random_search,
    rastrigin,
    sphere,
)
from riskfuse.fuzzy import DEFAULT_DEMATEL_SCALE, IntuitionisticFuzzyValue, tfn_from_linguistic
from riskfuse.pipeline import cv_folds, run_pipeline, split_train_test, tune_anfis_with_ecsa
from riskfuse.topsis import CriterionKind, IfDecisionMatrix, evaluate as topsis_evaluate


def report_line(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} ({label}): {status}{suffix}")


# ---------------------------------------------------------------------------
# 1. DEMATEL oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_01_dematel_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        entries = rng.random((n, n)) * 4.0
        np.fill_diagonal(entries, 0.0)
        q = normalize_direct_matrix(entries)
        t = total_relation_matrix(q)

        oracle = np.zeros_like(q)
        term = q.copy()
        while np.abs(term).sum(axis=1).max() >= 1e-9:
            oracle += term
            term = term @ q
        oracle += term
        assert np.max(np.abs(t - oracle)) < 1e-6

        weights = dematel_evaluate(entries).weights
        assert abs(weights.sum() - 1.0) < 1e-9
        assert np.all(weights >= 0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_line(1, "DEMATEL oracle equivalence", True, f"{elapsed:.2f}s for 200 matrices")


# ---------------------------------------------------------------------------
# 2. DEMATEL hand trace
# ---------------------------------------------------------------------------

def test_acceptance_02_dematel_hand_trace():
    s = np.array([[0.0, 2.0], [1.0, 0.0]])
    result = dematel_evaluate(s)
    assert np.max(np.abs(result.t - np.array([[1.0, 2.0], [1.0, 1.0]]))) <= 1e-12
    assert np.max(np.abs(result.weights - np.array([0.5, 0.5]))) <= 1e-12
    report_line(2, "DEMATEL 2x2 hand trace", True)


# ---------------------------------------------------------------------------
# 3. ANFIS exact recovery
# ---------------------------------------------------------------------------

def test_acceptance_03_anfis_exact_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    generator = AnfisModel(
        premises=np.array(
            [
                [[0.25, 0.3, 1.0], [0.3, 0.4, 1.5]],
                [[0.75, 0.35, 1.2], [0.7, 0.3, 1.0]],
            ]
        ),
        consequents=np.array([[1.5, -0.7, 0.2], [-0.4, 2.1, -1.0]]),
        input_normalization=np.array([[0.0, 1.0], [0.0, 1.0]]),
    )
    xs = rng.uniform(0.0, 1.0, size=(120, 2))
    train = [(x, forward(generator, x)) for x in xs]
    blank = AnfisModel(
        premises=generator.premises,
        consequents=np.zeros((2, 3)),
        input_normalization=generator.input_normalization,
    )
    refit = fit_consequents_least_squares(blank, train)
    error = rmse(refit, train)
    elapsed = time.perf_counter() - started
    assert error < 1e-8
    assert elapsed < 1.0
    report_line(3, "ANFIS exact recovery", True, f"rmse={error:.2e}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 4. ANFIS structural invariants
# ---------------------------------------------------------------------------

def _random_model(rng):
    dim = int(rng.integers(1, 4))
    n_rules = int(rng.integers(1, 5))
    # Draw order per rule: (m, l, k) for each input, then the consequent.
    premises, consequents = [], []
    for _ in range(n_rules):
        premises.append(
            [
                (rng.uniform(-1.0, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0))
                for _ in range(dim)
            ]
        )
        consequents.append(rng.normal(size=dim + 1))
    spans = np.column_stack([np.full(dim, -1.0), np.full(dim, 2.0)])
    return AnfisModel(
        premises=np.array(premises), consequents=np.array(consequents), input_normalization=spans
    )


def test_acceptance_04_anfis_structural_invariants():
    from riskfuse.anfis import _input_levels, _rule_outputs, _strengths

    rng = np.random.default_rng(104)
    for _ in range(1000):
        model = _random_model(rng)
        x = rng.uniform(-1.0, 2.0, size=model.input_dim)
        wbar = _strengths(model.premises, _input_levels(x[None, :], model.input_dim))[0][:, 0]
        assert abs(wbar.sum() - 1.0) < 1e-9
        assert np.all(wbar >= 0.0)
        outputs = _rule_outputs(model.consequents, x)
        value = forward(model, x)
        assert outputs.min() - 1e-9 <= value <= outputs.max() + 1e-9
    report_line(4, "ANFIS structural invariants", True, "1000 random models")


# ---------------------------------------------------------------------------
# 5. ANFIS gradient check
# ---------------------------------------------------------------------------

def test_acceptance_05_anfis_gradient_check():
    rng = np.random.default_rng(105)
    h = 1e-4
    for _ in range(100):
        model = _random_model(rng)
        dim = model.input_dim
        n_rules = model.n_rules
        x = rng.uniform(-1.0, 2.0, size=dim)
        strengths = np.array(
            [np.prod(bell_membership(x, *rule.T)) for rule in model.premises]
        )
        wbar = strengths / strengths.sum()
        j = int(rng.integers(0, n_rules))
        d = int(rng.integers(0, dim + 1))
        analytic = wbar[j] * (x[d] if d < dim else 1.0)

        def with_bump(direction):
            consequents = model.consequents.copy()
            consequents[j, d] += direction * h
            return AnfisModel(
                premises=model.premises,
                consequents=consequents,
                input_normalization=model.input_normalization,
            )

        numeric = (forward(with_bump(+1), x) - forward(with_bump(-1), x)) / (2 * h)
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-10)
    report_line(5, "ANFIS consequent gradient check", True, "100 instances")


# ---------------------------------------------------------------------------
# 6-8. ECSA protocol: shared 20-run benchmark campaign at reference scale
# ---------------------------------------------------------------------------

RUN_SEEDS = [int(s) for s in np.random.SeedSequence(2024).generate_state(20)]


@pytest.fixture(scope="module")
def sphere_campaign():
    started = time.perf_counter()
    results = []
    for seed in RUN_SEEDS:
        config = EcsaConfig(
            bounds=((-5.0, 5.0),) * 5,
            population_size=10,
            max_iterations=100,
            ap_min=0.1,
            ap_max=0.8,
            seed=seed,
        )
        results.append(
            (
                optimize(sphere, config),
                random_search(sphere, config),
                classical_csa(sphere, config),
            )
        )
    return results, time.perf_counter() - started


def test_acceptance_06_ecsa_sphere_protocol(sphere_campaign):
    results, elapsed = sphere_campaign
    ecsa_values = [r[0].metadata["best_objective"] for r in results]
    random_values = [r[1].metadata["best_objective"] for r in results]
    median_ecsa = statistics.median(ecsa_values)
    median_random = statistics.median(random_values)
    ok = median_ecsa < 1e-2 and median_ecsa < median_random and elapsed < 30.0
    report_line(
        6, "ECSA sphere protocol", ok,
        f"median={median_ecsa:.3g} vs random={median_random:.3g}, {elapsed:.1f}s",
    )
    assert median_ecsa < 1e-2
    assert median_ecsa < median_random
    assert elapsed < 30.0


def test_acceptance_07_ecsa_monotone_and_deterministic(sphere_campaign):
    results, _ = sphere_campaign
    for ecsa_result, _, _ in results:
        history = np.array(ecsa_result.fitness_history)
        assert np.all(np.diff(history) <= 0.0)
    config = EcsaConfig(
        bounds=((-5.0, 5.0),) * 5,
        population_size=10,
        max_iterations=100,
        seed=RUN_SEEDS[0],
    )
    again = optimize(sphere, config)
    first = results[0][0]
    assert again.best_fitness == first.best_fitness
    assert np.array_equal(again.best_position, first.best_position)
    assert again.fitness_history == first.fitness_history
    report_line(7, "ECSA monotone history + determinism", True)


def test_acceptance_08_ecsa_vs_classical_csa(sphere_campaign):
    results, _ = sphere_campaign
    sphere_ecsa = statistics.median([r[0].metadata["best_objective"] for r in results])
    sphere_csa = statistics.median([r[2].metadata["best_objective"] for r in results])

    rastrigin_ecsa, rastrigin_csa = [], []
    for seed in RUN_SEEDS:
        config = EcsaConfig(
            bounds=((-5.12, 5.12),) * 5,
            population_size=10,
            max_iterations=100,
            seed=seed,
        )
        rastrigin_ecsa.append(optimize(rastrigin, config).metadata["best_objective"])
        rastrigin_csa.append(classical_csa(rastrigin, config).metadata["best_objective"])
    median_ecsa = statistics.median(rastrigin_ecsa)
    median_csa = statistics.median(rastrigin_csa)

    sphere_ok = sphere_ecsa <= sphere_csa
    rastrigin_ok = median_ecsa <= median_csa
    report_line(
        8, "ECSA vs classical CSA", sphere_ok and rastrigin_ok,
        f"sphere {sphere_ecsa:.3g} vs {sphere_csa:.3g}; "
        f"rastrigin {median_ecsa:.4g} vs {median_csa:.4g}",
    )
    assert sphere_ok, "ECSA must not lose to classical CSA on the sphere"
    assert rastrigin_ok, (
        "ECSA median on 5-D Rastrigin exceeds the classical-CSA baseline "
        f"({median_ecsa:.4g} > {median_csa:.4g})"
    )


# ---------------------------------------------------------------------------
# 9. IF-TOPSIS brute-force equivalence
# ---------------------------------------------------------------------------

def _oracle_topsis(rows, kinds, weights):
    """Independent straight-line recomputation with plain loops."""
    n_alt, n_crit = len(rows), len(rows[0])
    weighted = []
    for i in range(n_alt):
        row = []
        for j in range(n_crit):
            (amu, anu), (wmu, wnu) = rows[i][j], weights[j]
            mu = amu * wmu
            nu = anu + wnu - anu * wnu
            row.append((mu, nu, 1.0 - mu - nu))
        weighted.append(row)
    positive, negative = [], []
    for j in range(n_crit):
        mus = [weighted[i][j][0] for i in range(n_alt)]
        nus = [weighted[i][j][1] for i in range(n_alt)]
        best, worst = (max(mus), min(nus)), (min(mus), max(nus))
        if kinds[j] == "benefit":
            positive.append(best)
            negative.append(worst)
        else:
            positive.append(worst)
            negative.append(best)
    xi = []
    for i in range(n_alt):
        vp = vn = 0.0
        for j in range(n_crit):
            mu, nu, pi = weighted[i][j]
            pmu, pnu = positive[j]
            nmu, nnu = negative[j]
            vp += (mu - pmu) ** 2 + (nu - pnu) ** 2 + (pi - (1 - pmu - pnu)) ** 2
            vn += (mu - nmu) ** 2 + (nu - nnu) ** 2 + (pi - (1 - nmu - nnu)) ** 2
        vp = math.sqrt(vp / (2.0 * n_crit))
        vn = math.sqrt(vn / (2.0 * n_crit))
        xi.append(vn / (vn + vp))
    return sorted(range(n_alt), key=lambda i: (-xi[i], i)), xi


def test_acceptance_09_topsis_bruteforce_equivalence():
    rng = np.random.default_rng(109)
    for _ in range(500):
        n_alt = int(rng.integers(2, 4))
        n_crit = int(rng.integers(1, 4))
        cells = []
        for _ in range(n_alt):
            row = []
            for _ in range(n_crit):
                mu = rng.uniform(0.0, 1.0)
                nu = rng.uniform(0.0, 1.0 - mu)
                row.append((mu, nu))
            cells.append(row)
        kind_names = [str(rng.choice(["benefit", "cost"])) for _ in range(n_crit)]
        weight_pairs = []
        for _ in range(n_crit):
            mu = rng.uniform(0.0, 1.0)
            weight_pairs.append((mu, rng.uniform(0.0, 1.0 - mu)))

        matrix = IfDecisionMatrix(
            rows=tuple(
                tuple(IntuitionisticFuzzyValue(mu, nu) for mu, nu in row)
                for row in cells
            ),
            criteria_kinds=tuple(CriterionKind(k) for k in kind_names),
        )
        weights = tuple(IntuitionisticFuzzyValue(mu, nu) for mu, nu in weight_pairs)
        _, xi, ranking = topsis_evaluate(matrix, weights)
        oracle_ranking, oracle_xi = _oracle_topsis(cells, kind_names, weight_pairs)
        assert ranking == oracle_ranking
        assert xi == pytest.approx(oracle_xi, abs=1e-12)
        assert np.all((xi >= 0.0) & (xi <= 1.0))
    report_line(9, "IF-TOPSIS brute-force equivalence", True, "500 matrices")


# ---------------------------------------------------------------------------
# 10. Pipeline tuned-never-worse on perturbed bases
# ---------------------------------------------------------------------------

def _double_widths(model):
    coefficients = np.ones(model.n_parameters)
    dim = model.input_dim
    for j in range(model.n_rules):
        for d in range(dim):
            coefficients[(j * dim + d) * 3 + 1] = 2.0
    return apply_parameter_scaling(model, coefficients)


def test_acceptance_10_pipeline_tuned_never_worse():
    rng = np.random.default_rng(110)
    config = PipelineConfig(runs=3, max_iterations=30, cluster_radius=0.35)
    generators = [
        lambda x: float(np.sin(4.0 * x[0])),
        lambda x: float(x[0] ** 2 - 0.5 * x[0] + 0.3 * math.cos(5.0 * x[0])),
        lambda x: float(abs(x[0] - 0.5) + 0.2 * np.sin(8.0 * x[0])),
    ]
    improvements = []
    for index, generator in enumerate(generators):
        xs = rng.uniform(0.0, 1.0, size=(70, 1))
        samples = [(x, generator(x)) for x in xs]
        train, test = split_train_test(samples, 0.7, seed=index)
        base = init_fis(train, config.cluster_radius)
        perturbed = _double_widths(base)
        tuning = tune_anfis_with_ecsa(train, test, config, base_model=perturbed)
        assert tuning.train_rmse <= tuning.base_train_rmse + 1e-12
        improvements.append(1.0 - tuning.train_rmse / tuning.base_train_rmse)
    best = max(improvements)
    assert best >= 0.05, f"no fixture improved by >= 5% (best {best:.1%})"
    report_line(
        10, "pipeline tuned-never-worse", True,
        "improvements: " + ", ".join(f"{v:.1%}" for v in improvements),
    )


# ---------------------------------------------------------------------------
# 11. NASA-93 protocol end to end
# ---------------------------------------------------------------------------

def test_acceptance_11_nasa93_protocol(tmp_path):
    records = load_dataset(bundled_path("nasa93.arff"))
    assert len(records) == 93
    train, test = split_train_test(records, 0.7, seed=11)
    assert (len(train), len(test)) == (65, 28)
    folds = cv_folds(records, 3, seed=11)
    assert [len(fold_test) for _, fold_test in folds] == [31, 31, 31]

    outputs = []
    durations = []
    for attempt in ("a", "b"):
        out = tmp_path / f"report_{attempt}.json"
        started = time.perf_counter()
        code = cli_main(["--seed", "11", "--out", str(out), "pipeline"])
        durations.append(time.perf_counter() - started)
        assert code == 0
        outputs.append(out.read_bytes())
    assert max(durations) < 300.0
    assert outputs[0] == outputs[1]

    report = json.loads(outputs[0])
    recomputed = float(np.dot(report["weights"], report["potential_scores"]))
    assert abs(recomputed - report["p_out"]) <= 1e-9
    assert sorted(report["ranking"]) == list(range(len(report["criteria"])))
    report_line(
        11, "NASA-93 protocol", True,
        f"two runs {durations[0]:.0f}s/{durations[1]:.0f}s, byte-identical",
    )


# ---------------------------------------------------------------------------
# 12. Scale invariance of the judgments
# ---------------------------------------------------------------------------

def test_acceptance_12_scale_invariance():
    records = load_dataset(bundled_path("nasa93.arff"))
    payload = json.loads(bundled_path("respondents.json").read_text())
    label_matrices = payload["respondents"]
    tfn_matrices = [
        [
            [tfn_from_linguistic(cell, DEFAULT_DEMATEL_SCALE) for cell in row]
            for row in matrix
        ]
        for matrix in label_matrices
    ]
    scaled_matrices = (3.0 * np.array(tfn_matrices)).tolist()
    config = PipelineConfig(runs=2, max_iterations=10, population_size=4, seed=12)
    base = run_pipeline(records, tfn_matrices, config)
    scaled = run_pipeline(records, scaled_matrices, config)
    weight_delta = np.max(np.abs(np.array(base.weights) - np.array(scaled.weights)))
    p_out_delta = abs(base.p_out - scaled.p_out)
    assert weight_delta <= 1e-9
    assert scaled.ranking == base.ranking
    assert p_out_delta <= 1e-9
    report_line(
        12, "judgment scale invariance", True,
        f"max weight delta {weight_delta:.1e}, p_out delta {p_out_delta:.1e}",
    )
