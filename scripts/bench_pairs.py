#!/usr/bin/env python3
"""Alternating parent/change pairs of the riskfuse benchmark, summarized.

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workload pipeline-codes --pairs 10 --seconds 40 --out BENCH.json

Pair k runs ``python3 perfbench/run.py --workload W --seed k --seconds S
--trace 0`` once in each tree, so each tree measures its own sources with
its own perfbench.  The parent runs first in odd pairs and the change in
even ones.  The output file keeps every pair under ``pairs`` and one
``summary.workloads`` entry per workload: for each end-to-end metric the
median and quartiles of each side, the pairs in which the change read
lower and higher, and the change's median over the parent's; the failed
and attempted unit counts; and the report digests of every seed.  A run
for another workload adds it to an existing output file.

Each end-to-end metric of ``BENCHMARK.json`` also gets three verdicts,
read in the direction its ``better`` names.  ``claim_met``: the change is
better in at least 9 of 10 pairs (ties count for neither side), and its
median beats the parent's by more than the parent's q3 - q1.
``regressed``: the change's median is worse than the parent's by more
than the metric's ``bound``, a fraction of the parent's median.
``unresolved``: the parent's q3 - q1 is wider than that bound, so the
medians cannot tell a change within it, and not every run of the change
beats every run of the parent.

Two more workloads run each side as a fresh process with BLAS threads 1
on one pinned CPU, as perfbench's units run, the first side alternating
as above; they get no verdict, and ``--seconds`` does not apply.
``--workload north-star`` times the north star's own run, ``python3 -m
riskfuse.cli --seed 11 --out <tmp> pipeline``: ``summary.north_star``
keeps each side's wall-time spread, the pairs in which the change ran
faster, its median over the parent's, the exit codes and the report
digests.  ``--workload objective`` times the ANFIS search objective
alone.  Once, on the parent tree, ``pipeline.cross_validate`` runs for
each pipeline workload of ``perfbench/run.py`` at seed 11 through an
``anfis.scaling_objective`` that keeps each fold's rows and base model
and every batch it scores.  Each side then scores those batches once
for the digests and ``OBJECTIVE_PASSES`` times timed.  Per workload,
``summary.objective`` keeps the call count, each side's microseconds
per call, the pairs in which the change was lower and the score
digests; the tool exits 1 when the scores differ between runs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SCRIPTS = Path(__file__).resolve().parent
BENCHMARK = SCRIPTS.parent / "BENCHMARK.json"
PERFBENCH = SCRIPTS.parent / "perfbench" / "run.py"
NORTH_STAR = "north-star"
OBJECTIVE = "objective"
OBJECTIVE_SEED = 11
OBJECTIVE_PASSES = 20
# Prints ``bench_pairs.<step>(<dir>)`` as JSON; the script's directory,
# the step and the directory follow.
OBJECTIVE_CHILD = ("-c", "import json, sys; sys.path.insert(0, sys.argv[1]); import bench_pairs; "
                   "print(json.dumps(getattr(bench_pairs, sys.argv[2])(sys.argv[3])))")
# The north star's Python arguments; ``{out}`` is the report path.
NORTH_STAR_ARGS = ("-m", "riskfuse.cli", "--seed", "11", "--out", "{out}", "pipeline")
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` benchmark run in a tree: its JSON result, the
    digest of its sources and each seed's report digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (tree / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    digests: dict[str, set] = {}
    for unit in record["units"]:
        if "sha256" in unit:
            digests.setdefault(str(unit["seed"]), set()).add(unit["sha256"])
    return {
        **result,
        "src_sha256": record["env"]["src_sha256"],
        "report_sha256_per_seed": {seed: sorted(shas) for seed, shas in sorted(digests.items())},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_rules() -> dict:
    """Each end-to-end metric's entry in ``BENCHMARK.json``, by name."""
    return {rule["name"]: rule for rule in json.loads(BENCHMARK.read_text())["end_to_end"]}


def verdicts(parent: list[float], change: list[float], rule: dict) -> dict:
    """``claim_met``, ``regressed`` and ``unresolved`` of one metric's
    paired values under its ``BENCHMARK.json`` rule; values are negated
    when higher is better."""
    sign = 1.0 if rule["better"] == "lower" else -1.0
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    base, change_median = spread(parent), statistics.median(change)
    better_pairs = sum(c < p for p, c in zip(parent, change))
    width = base["q3"] - base["q1"]
    bound = rule["bound"] * abs(base["median"])
    return {
        "claim_met": better_pairs >= 0.9 * len(parent) and change_median < base["median"] - width,
        "regressed": change_median > base["median"] + bound,
        "unresolved": width > bound and max(change) >= min(parent),
    }


def compare(values: dict) -> dict:
    """One metric's paired values, ``{side: [value per pair]}``: each
    side's spread, the pairs in which the change read lower and higher
    (ties count for neither), and the change's median over the parent's."""
    parent, change = values["parent"], values["change"]
    return {
        **{side: spread(values[side]) for side in SIDES},
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "change_higher_pairs": sum(c > p for p, c in zip(parent, change)),
        "median_ratio": statistics.median(change) / statistics.median(parent),
    }


def summarize(pairs: list[dict], rules: dict | None = None) -> dict:
    """The summary of one workload's pairs, each ``{"parent": result,
    "change": result}`` with the results of ``run_side``.  A metric that
    ``rules`` (from ``end_to_end_rules``) names also gets its verdicts."""
    rules = rules or {}
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        metrics[name] = {
            **compare(values),
            **(verdicts(values["parent"], values["change"], rules[name]) if name in rules else {}),
        }
    digests = {side: {} for side in SIDES}
    for pair in pairs:
        for side in SIDES:
            for seed, shas in pair[side]["report_sha256_per_seed"].items():
                digests[side][seed] = sorted(set(digests[side].get(seed, [])) | set(shas))
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "failed_units": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted_units": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "report_sha256_per_seed": digests,
        "reports_identical_to_parent": digests["parent"] == digests["change"],
    }


def pin_to_one_cpu() -> None:
    """Run on the highest-numbered CPU allowed, as perfbench pins its units."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(tree: Path, args) -> tuple[subprocess.CompletedProcess, float]:
    """One fresh Python process with ``args`` in a tree, on the tree's
    sources, with BLAS threads 1 on one pinned CPU: the finished process
    and its wall time."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, preexec_fn=pin_to_one_cpu)
    return proc, time.perf_counter() - start


def run_north_star(tree: Path, args=NORTH_STAR_ARGS) -> dict:
    """``run_child`` with ``args`` in a tree, their ``{out}`` a temporary
    report path: wall time, exit code and the report's SHA-256 (None when
    no report was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        proc, wall_s = run_child(tree, [arg.format(out=out) for arg in args])
        sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"wall_s": wall_s, "exit_code": proc.returncode, "report_sha256": sha}


def summarize_north_star(pairs: list[dict]) -> dict:
    """The summary of north-star pairs, each ``{"parent": run, "change":
    run}`` with the runs of ``run_north_star``."""
    wall = {side: [pair[side]["wall_s"] for pair in pairs] for side in SIDES}
    shas = {side: [pair[side]["report_sha256"] for pair in pairs] for side in SIDES}
    every_sha = set(shas["parent"] + shas["change"])
    return {
        "pairs": len(pairs),
        "wall_s": compare(wall),
        "exit_codes": {side: [pair[side]["exit_code"] for pair in pairs] for side in SIDES},
        "report_sha256": {side: sorted(set(shas[side]) - {None}) for side in SIDES},
        # Every run of both sides wrote a report, and all with one digest.
        "reports_identical_to_parent": len(every_sha) == 1 and None not in every_sha,
    }


def pipeline_configs() -> dict:
    """The riskfuse config of each pipeline workload in perfbench's
    ``WORKLOADS``, in its order."""
    module = ast.parse(PERFBENCH.read_text())
    workloads = next(ast.literal_eval(node.value) for node in module.body
                     if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WORKLOADS")
    return {name: w["config"] for name, w in workloads.items() if w["kind"] == "pipeline"}


def record(data) -> None:
    """Run ``pipeline.cross_validate`` once per pipeline workload at
    ``OBJECTIVE_SEED`` through a recording ``anfis.scaling_objective``;
    write each fold's rows, base model and scored batches, in call order,
    to ``data/<workload>.npz``.  Raises unless each fold had one objective."""
    import numpy as np

    from riskfuse import anfis, config, dataset, pipeline

    scaling_objective = anfis.scaling_objective
    records = dataset.load_dataset(dataset.bundled_path("nasa93.arff"))
    for name, payload in pipeline_configs().items():
        cfg = config.config_from_dict({**payload, "seed": OBJECTIVE_SEED})
        mapping = dataset.FeatureMapping.fit(records, cfg.ordinal_values, cfg.missing_value)
        samples, _, _ = pipeline.prepare_samples(
            records, dataset.default_catalog(), mapping, cfg.anfis_inputs)
        folds = []

        def recording(model0, train):
            objective, batches = scaling_objective(model0, train), []
            folds.append((model0, train, batches))
            # Keep a copy of each batch, then score it.
            return lambda batch: batches.append(np.array(batch, dtype=float)) or objective(batch)

        anfis.scaling_objective = recording
        try:
            cv = pipeline.cross_validate(samples, cfg)
        finally:
            anfis.scaling_objective = scaling_objective
        if len(folds) != len(cv.folds):
            raise RuntimeError(f"{name}: {len(folds)} objectives for {len(cv.folds)} folds")
        arrays = {}
        for i, (model0, (x, y, *_), batches) in enumerate(folds):
            arrays |= {f"x{i}": x, f"y{i}": y, f"sizes{i}": [len(b) for b in batches],
                       f"batches{i}": np.concatenate(batches), f"premises{i}": model0.premises,
                       f"consequents{i}": model0.consequents,
                       f"spans{i}": model0.input_normalization}
        np.savez(Path(data) / f"{name}.npz", folds=len(folds), **arrays)


def replay(data, passes: int = OBJECTIVE_PASSES) -> dict:
    """Score the batches that ``record`` wrote to ``data`` through one
    fresh objective per fold: per workload the call count, microseconds
    per call over ``passes`` timed passes after one scoring pass, and
    that pass's SHA-256; and the SHA-256 of all scores in call order."""
    import numpy as np

    from riskfuse import anfis

    workloads, every_score = {}, hashlib.sha256()
    for name in pipeline_configs():
        arrays = np.load(Path(data) / f"{name}.npz")
        calls = []
        for i in range(int(arrays["folds"])):
            base = anfis.AnfisModel(*(arrays[f"{key}{i}"] for key in
                                      ("premises", "consequents", "spans")))
            objective = anfis.scaling_objective(base, (arrays[f"x{i}"], arrays[f"y{i}"]))
            batches = np.split(arrays[f"batches{i}"], np.cumsum(arrays[f"sizes{i}"])[:-1])
            calls += [(objective, batch) for batch in batches]
        scores = np.concatenate([objective(batch) for objective, batch in calls]).tobytes()
        every_score.update(scores)
        start = time.perf_counter()
        for _ in range(passes):
            for objective, batch in calls:
                objective(batch)
        us = (time.perf_counter() - start) / (passes * len(calls)) * 1e6
        workloads[name] = {"calls": len(calls), "us_per_call": us,
                           "scores_sha256": hashlib.sha256(scores).hexdigest()}
    return {"workloads": workloads, "scores_sha256": every_score.hexdigest()}


def run_objective(tree: Path, step: str, data: str):
    """``record`` or ``replay`` of ``data`` in ``run_child`` on a tree: its result."""
    proc, _ = run_child(tree, [*OBJECTIVE_CHILD, str(SCRIPTS), step, data])
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: objective {step} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def summarize_objective(pairs: list[dict]) -> dict:
    """The summary of objective pairs, each ``{"parent": run, "change":
    run}`` with the results of ``replay``."""
    def digests(pick):
        return {side: sorted({pick(pair[side]) for pair in pairs}) for side in SIDES}

    workloads = {name: {
        "calls": first["calls"],
        "us_per_call": compare({side: [pair[side]["workloads"][name]["us_per_call"]
                                       for pair in pairs] for side in SIDES}),
        "scores_sha256": digests(lambda run: run["workloads"][name]["scores_sha256"]),
    } for name, first in pairs[0]["parent"]["workloads"].items()}
    every = digests(lambda run: run["scores_sha256"])
    return {
        "pairs": len(pairs),
        "workloads": workloads,
        "scores_sha256": every,
        # Every run of both sides scored every call with the same bits.
        "scores_identical": len(set(every["parent"] + every["change"])) == 1,
    }


def alternating_pairs(n_pairs: int, run) -> list[dict]:
    """Pairs k = 1 .. ``n_pairs``, each holding ``run(side, k)`` of both
    sides; the parent runs first in odd pairs, the change in even ones.
    Each run's wall time goes to stderr as it ends."""
    pairs = []
    for k in range(1, n_pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pairs.append({"pair": k, "first": order[0]})
        for side in order:
            start = time.perf_counter()
            pairs[-1][side] = run(side, k)
            print(f"pair {k} {side}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True, help=f"a BENCHMARK.json workload, "
                        f"{NORTH_STAR}: the north star's run, or {OBJECTIVE}: its objective")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="seconds per perfbench run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    if args.seconds is None and args.workload not in (NORTH_STAR, OBJECTIVE):
        parser.error(f"--seconds is required for workload {args.workload}")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    summary = out.setdefault("summary", {})
    order = "the parent runs first in odd pairs, the change in even ones"
    code = 0
    if args.workload == NORTH_STAR:
        pairs = alternating_pairs(args.pairs, lambda side, k: run_north_star(trees[side]))
        summary["north_star"] = {
            "command": " ".join(["python3", *NORTH_STAR_ARGS]).format(out="<tmp>"),
            "order": order, **summarize_north_star(pairs)}
    elif args.workload == OBJECTIVE:
        with tempfile.TemporaryDirectory() as data:
            run_objective(trees["parent"], "record", data)
            pairs = alternating_pairs(
                args.pairs, lambda side, k: run_objective(trees[side], "replay", data))
        objective = summary["objective"] = {"seed": OBJECTIVE_SEED, "passes": OBJECTIVE_PASSES,
                                            "order": order, **summarize_objective(pairs)}
        for name, workload in objective["workloads"].items():
            print(f"{name}: {workload['calls']} calls, us per call change/parent "
                  f"{workload['us_per_call']['median_ratio']:.3f}", file=sys.stderr)
        if not objective["scores_identical"]:
            print("scores differ", file=sys.stderr)
            code = 1
    else:
        pairs = alternating_pairs(
            args.pairs, lambda side, k: run_side(trees[side], args.workload, k, args.seconds))
        summary["command"] = ("python3 perfbench/run.py --workload <name> --seed <k> "
                              "--seconds <s> --trace 0")
        summary["order"] = f"pair k uses --seed k; {order}"
        workload = summary.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, **summarize(pairs, end_to_end_rules())}
        for name, metric in workload["metrics"].items():
            if "claim_met" in metric:
                print(f"{name}: claim_met {metric['claim_met']}, regressed {metric['regressed']}",
                      file=sys.stderr)
    out.setdefault("pairs", {})[args.workload] = pairs
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
