"""One unit of benchmark work, run in a fresh process by ``run.py``.

Usage: python3 perfbench/unit.py '<spec JSON>'

The spec names the kind of unit (``pipeline``, ``ecsa`` or ``micro``),
its seed, the workload's settings, the output path and, for a traced unit,
the JSONL trace path.  The last line of standard output is a JSON record
with the unit's timings; ``t_ready`` is the ``time.perf_counter`` reading
(a system-wide monotonic clock) at which the inputs were validated, so the
parent can subtract its own reading taken just before the spawn.
"""

import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from riskfuse import anfis, config, dataset, dematel, ecsa, pipeline, reporting, topsis
from riskfuse.fuzzy import IntuitionisticFuzzyValue

from spans import Tracer

MICRO_BLOCKS = 7
BOX = (-5.12, 5.12)  # the classical sphere/Rastrigin search box


def load_respondents() -> list:
    """The bundled respondents' judgment grids (linguistic labels)."""
    return json.loads(dataset.bundled_path("respondents.json").read_text())["respondents"]


def pipeline_config(workload: dict, seed: int):
    """The workload's pipeline config; the default one for ``ecsa-search``."""
    return config.config_from_dict({**workload.get("config", {}), "seed": seed})


def run_pipeline_unit(spec: dict):
    records = dataset.load_dataset(dataset.bundled_path("nasa93.arff"))
    matrices = load_respondents()
    cfg = pipeline_config(spec["workload"], spec["seed"])
    t_ready = time.perf_counter()
    report = pipeline.run_pipeline(records, matrices, cfg)
    reporting.emit_report(report, "json", spec["out"])
    return t_ready, time.perf_counter()


def run_ecsa_unit(spec: dict):
    workload = spec["workload"]
    run_seeds = np.random.SeedSequence(spec["seed"]).generate_state(workload["runs"])
    configs = [
        ecsa.EcsaConfig(bounds=(BOX,) * workload["dim"], seed=int(s)) for s in run_seeds
    ]
    objectives = {"sphere": ecsa.sphere, "rastrigin": ecsa.rastrigin}
    t_ready = time.perf_counter()
    results = {}
    for name, objective in objectives.items():
        results[name] = []
        for cfg in configs:
            result = ecsa.optimize(objective, cfg)
            results[name].append({
                "seed": cfg.seed,
                "best_objective": result.metadata["best_objective"],
                "fitness_history": list(result.fitness_history),
            })
    Path(spec["out"]).write_text(json.dumps(results) + "\n")
    return t_ready, time.perf_counter()


def per_call_us(fn, budget_s: float, calls_per_fn: int) -> float:
    """Median microseconds per call over timed blocks, after warm-up."""
    for _ in range(2):
        fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    n = max(1, int(budget_s / MICRO_BLOCKS / max(once, 1e-7)))
    blocks = []
    for _ in range(MICRO_BLOCKS):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        blocks.append((time.perf_counter() - start) / n)
    return median(blocks) * 1e6 / calls_per_fn


def micro_kernels(spec: dict) -> dict:
    """Fixed-input kernels on the seed-11 fold-0 model of a pipeline
    workload (of the default config on ``ecsa-search``, where the ECSA
    iteration searches the workload's own box instead)."""
    constant = lambda x: 1.0  # noqa: E731 - the search's own cost, no objective
    iterations = 100
    workload = spec["workload"]
    cfg = pipeline_config(workload, spec["seed"])
    records = dataset.load_dataset(dataset.bundled_path("nasa93.arff"))
    mapping = dataset.FeatureMapping.fit(records, cfg.ordinal_values, cfg.missing_value)
    samples, _, _ = pipeline.prepare_samples(
        records, dataset.default_catalog(), mapping, cfg.anfis_inputs
    )
    split_seed, cv_seed = np.random.SeedSequence(cfg.seed).generate_state(4)[:2]
    train, _ = pipeline.split_train_test(samples, cfg.split_fraction, int(split_seed))
    fold, _ = pipeline.cv_folds(train, cfg.cv_folds, int(cv_seed))[0]
    model = anfis.fit_consequents_least_squares(anfis.init_fis(fold, cfg.cluster_radius), fold)
    x = np.array([inp for inp, _ in fold])
    ones = np.ones(model.n_parameters)
    if workload["kind"] == "ecsa":
        box = (BOX,) * workload["dim"]
    else:
        box = (cfg.coefficient_bounds(),) * model.n_parameters
    search = ecsa.EcsaConfig(bounds=box, max_iterations=iterations, seed=cfg.seed)

    def objective():
        scaled = anfis.apply_parameter_scaling(model, ones)
        return anfis.rmse(anfis.fit_consequents_least_squares(scaled, fold), fold)

    s = dematel.aggregate_responses(load_respondents(), cfg.scale)
    weights = dematel.evaluate(s)
    evidence = weights.t / weights.t.max()
    n = evidence.shape[0]
    raw = topsis.IfDecisionMatrix(
        rows=tuple(
            tuple(IntuitionisticFuzzyValue.from_crisp(0.5 * float(evidence[i, j])) for j in range(n))
            for i in range(n)
        ),
        criteria_kinds=cfg.kinds_for(n),
    )
    lifted = topsis.lift_crisp_weights(weights.weights)
    return {
        "anfis.forward_batch.us": (lambda: anfis.forward_batch(model, x), 1),
        "anfis.fit_consequents_least_squares.us": (
            lambda: anfis.fit_consequents_least_squares(model, fold), 1),
        "anfis.objective.us": (objective, 1),
        "ecsa.iteration.us": (lambda: ecsa.optimize(constant, search), iterations),
        "dematel.evaluate.us": (lambda: dematel.evaluate(s), 1),
        "topsis.evaluate.us": (lambda: topsis.evaluate(raw, lifted), 1),
    }


def run_micro_unit(spec: dict) -> dict:
    kernels = micro_kernels(spec)
    budget = spec["budget_s"] / len(kernels)
    return {name: per_call_us(fn, budget, calls) for name, (fn, calls) in kernels.items()}


def main() -> None:
    spec = json.loads(sys.argv[1])
    record = {"kind": spec["kind"], "seed": spec["seed"]}
    if spec["kind"] == "micro":
        record["micro"] = run_micro_unit(spec)
    else:
        tracer = Tracer(spec["run_id"]) if spec.get("trace") else None
        if tracer:
            tracer.install()
        run = run_pipeline_unit if spec["kind"] == "pipeline" else run_ecsa_unit
        start = time.perf_counter()
        t_ready, t_done = run(spec)
        record.update(t_ready=t_ready, run_s=t_done - t_ready)
        if tracer:
            tracer.root(start, t_done)
            tracer.write(spec["trace"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(rss_mb=usage.ru_maxrss / 1024.0, cpu_s=usage.ru_utime + usage.ru_stime)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
