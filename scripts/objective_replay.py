#!/usr/bin/env python3
"""Per-call time of the ANFIS search objective on the seed-11 search batches.

    python3 scripts/objective_replay.py TREE [TREE ...] [--rounds 7] [--passes 20]

Records, in a fresh process on the first tree, every batch that the
seed-11 crow searches of the benchmark's two pipeline workloads hand the
objective (``pipeline-groups``: the default config with ``runs: 1``;
``pipeline-codes``: ``codes`` inputs, ``runs: 1``, ``max_iterations: 6``),
plus each fold's all-ones base call.  It builds each fold and search as
``pipeline.tune_anfis_with_ecsa`` does and passes ``ecsa.optimize`` a
recording objective; the searches' best fitnesses must match the
``run_stats`` of ``pipeline.cross_validate``.

Then it replays the batches in fresh processes, one per tree and round,
the trees in alternating order.  Each process builds one
``anfis.scaling_objective`` per fold, scores every batch once for the
digest, then times ``--passes`` passes over all batches.  Each process
runs with BLAS threads 1 on one pinned CPU, as perfbench's units do.

Prints, per tree and workload, the microseconds per objective call
(median, q1, q3 over the rounds) and one SHA-256 of all scores in call
order.  Exits 1 when the digests differ between trees or rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import BLAS_THREADS, pin_to_one_cpu, spread

SEED = 11
WORKLOADS = {
    "pipeline-groups": {"runs": 1},
    "pipeline-codes": {"anfis_inputs": "codes", "runs": 1, "max_iterations": 6},
}


def record(out: Path) -> None:
    """Write each workload's fold rows, base premises and spans, and its
    search batches in call order, to ``out/<workload>.npz``."""
    from dataclasses import replace

    import numpy as np

    from riskfuse import anfis, config, dataset, ecsa, pipeline

    records = dataset.load_dataset(dataset.bundled_path("nasa93.arff"))
    for name, payload in WORKLOADS.items():
        cfg = config.config_from_dict({**payload, "seed": SEED})
        mapping = dataset.FeatureMapping.fit(records, cfg.ordinal_values, cfg.missing_value)
        samples, x, _ = pipeline.prepare_samples(
            records, dataset.default_catalog(), mapping, cfg.anfis_inputs
        )
        y = np.array([target for _, target in samples])
        cv = pipeline.cross_validate((x, y), cfg)
        arrays = {}
        for i, ((rows, _), tuning) in enumerate(zip(cv.folds, cv.tunings)):
            fold_cfg = replace(cfg, seed=cv.stage_seeds["tuning"] + i)
            train = (x[rows], y[rows])
            base = anfis.init_fis(train, cfg.cluster_radius)
            objective = anfis.scaling_objective(base, train)
            batches = []

            def recording(batch):
                batches.append(np.array(batch, dtype=float))
                return objective(batch)

            ones = np.ones(base.n_parameters)
            search = fold_cfg.ecsa_config(base.n_parameters)
            seeds = np.random.SeedSequence(fold_cfg.seed).generate_state(fold_cfg.runs)
            best = [
                ecsa.optimize(recording, replace(search, seed=int(s)), initial_guesses=[ones])
                .best_fitness for s in seeds
            ]
            if best != [stats["best_fitness"] for stats in tuning.run_stats]:
                raise SystemExit(f"{name} fold {i}: the recorded searches differ from the pipeline's")
            batches.append(ones[None])
            arrays[f"x{i}"], arrays[f"y{i}"] = train
            arrays[f"premises{i}"], arrays[f"spans{i}"] = base.premises, base.input_normalization
            arrays[f"sizes{i}"] = [len(batch) for batch in batches]
            arrays[f"batches{i}"] = np.concatenate(batches)
        np.savez(out / f"{name}.npz", folds=len(cv.folds), **arrays)


def replay(out: Path, passes: int) -> dict:
    """Each workload's microseconds per objective call over ``passes``
    timed passes, its call count, and the scores' bytes as hex."""
    import numpy as np

    from riskfuse import anfis

    result = {}
    for name in WORKLOADS:
        data = np.load(out / f"{name}.npz")
        calls = []
        for i in range(int(data["folds"])):
            premises = data[f"premises{i}"]
            base = anfis.AnfisModel(
                premises=premises,
                consequents=np.zeros((len(premises), premises.shape[1] + 1)),
                input_normalization=data[f"spans{i}"],
            )
            objective = anfis.scaling_objective(base, (data[f"x{i}"], data[f"y{i}"]))
            batches = np.split(data[f"batches{i}"], np.cumsum(data[f"sizes{i}"])[:-1])
            calls += [(objective, batch) for batch in batches]
        scores = np.concatenate([objective(batch) for objective, batch in calls])
        start = time.perf_counter()
        for _ in range(passes):
            for objective, batch in calls:
                objective(batch)
        elapsed = time.perf_counter() - start
        result[name] = {
            "us_per_call": elapsed / (passes * len(calls)) * 1e6,
            "calls": len(calls),
            "scores": scores.tobytes().hex(),
        }
    return result


def child(tree: Path, *args: str) -> str:
    """Run this script's ``args`` in a fresh process on a tree's sources."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, __file__, *args], cwd=tree, env=env,
                          capture_output=True, text=True, preexec_fn=pin_to_one_cpu)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(args[:1])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", type=Path, nargs="*", help="source trees to compare")
    parser.add_argument("--rounds", type=int, default=7, help="fresh processes per tree")
    parser.add_argument("--passes", type=int, default=20, help="timed passes per process")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.replay:
        print(json.dumps(replay(args.replay, args.passes)))
        return 0
    if not args.trees or args.rounds < 2 or args.passes < 1:
        parser.error("need at least one tree, --rounds >= 2 and --passes >= 1")

    trees = [tree.resolve() for tree in args.trees]
    runs = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as tmp:
        child(trees[0], "--record", tmp)
        for k in range(args.rounds):
            for tree in trees if k % 2 == 0 else trees[::-1]:
                runs[tree].append(json.loads(child(tree, "--replay", tmp, "--passes",
                                                   str(args.passes))))

    digests = set()
    print(f"batches recorded on {trees[0]}; seed {SEED}; {args.rounds} rounds x "
          f"{args.passes} passes")
    for tree in trees:
        tree_digests = {
            hashlib.sha256(b"".join(bytes.fromhex(run[name]["scores"]) for name in WORKLOADS))
            .hexdigest() for run in runs[tree]
        }
        digests |= tree_digests
        print(f"{tree}: scores sha256 {' '.join(sorted(tree_digests))}")
        for name in WORKLOADS:
            us = spread([run[name]["us_per_call"] for run in runs[tree]])
            print(f"  {name}: {runs[tree][0][name]['calls']} calls, us per call median "
                  f"{us['median']:.1f} (q1 {us['q1']:.1f}, q3 {us['q3']:.1f})")
    if len(digests) > 1:
        print("scores differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
