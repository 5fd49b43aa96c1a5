"""riskfuse benchmark: closed-loop workloads, output checks and a traced run.

Usage (from the root of a riskfuse source tree):

    python3 perfbench/run.py --workload pipeline-groups --seed 1 --seconds 30 --trace 0

Every unit of work (one pipeline run, or one batch of ECSA searches) is a
fresh ``python3 perfbench/unit.py`` process that imports ``riskfuse`` from
``src/``; units run one at a time.  Each unit takes its seed from a fixed
cycle of ``CYCLE`` seeds that starts at the workload seed, and whole cycles
run until ``--seconds`` is used up, so every seed recurs and its report
must repeat byte for byte.  ``--seed`` only rotates the cycle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
fixed-input micro kernels, then alternates untraced and traced cycles and
reports the per-layer metrics; traced units write their spans as JSONL
under ``.bench_out/trace``.  Human-readable lines come first; the last line
of standard output is the JSON result.  Exits 2 without a result when the
tree holds no riskfuse sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
WORKLOAD_SEED = 11
CYCLE = 3
BLAS_THREADS = "1"
UNIT_TIMEOUT_S = 60
P_OUT_TOL = 1e-9

# Pipeline workloads keep the default protocol's shapes (inputs, rules,
# search dimensions, 3 folds, 10 crows, 1,010 evaluations per search) and
# cut only the number of searches (and, for codes, their iterations) so a
# whole seed cycle fits several times into one run.
WORKLOADS = {
    "pipeline-groups": {"kind": "pipeline", "config": {"runs": 1}},
    "pipeline-codes": {
        "kind": "pipeline",
        "config": {"anfis_inputs": "codes", "runs": 1, "max_iterations": 6},
    },
    # Pipeline-shaped searches on a near-free objective: ECSA's own cost.
    "ecsa-search": {"kind": "ecsa", "runs": 40, "dim": 100},
}

END_TO_END = (
    ("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("result_error", "1"),
)
ANFIS_LAYER = (
    ("anfis.apply_parameter_scaling.calls", "count"),
    ("anfis.apply_parameter_scaling.self_s", "s"),
    ("anfis.apply_parameter_scaling.clamped", "count"),
    ("anfis.fit_consequents_least_squares.calls", "count"),
    ("anfis.fit_consequents_least_squares.self_s", "s"),
    ("anfis.fit_consequents_least_squares.rank_deficient", "count"),
    ("anfis.rmse.calls", "count"),
    ("anfis.rmse.self_s", "s"),
    ("anfis.init_fis.self_s", "s"),
)
SPAN_LAYER = ANFIS_LAYER + (
    ("ecsa.optimize.calls", "count"),
    ("ecsa.optimize.self_s", "s"),
    ("ecsa.optimize.evaluations", "count"),
    ("ecsa.optimize.improving_iter_ratio", "ratio"),
    ("ecsa.optimize.objective_errors", "count"),
    ("dematel.aggregate_responses.self_s", "s"),
    ("dematel.evaluate.self_s", "s"),
    ("topsis.evaluate.self_s", "s"),
    ("dataset.load_dataset.self_s", "s"),
    ("pipeline.prepare_samples.self_s", "s"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("reporting.emit_report.self_s", "s"),
)
MICRO = (
    "anfis.forward_batch.us", "anfis.fit_consequents_least_squares.us",
    "anfis.objective.us", "ecsa.iteration.us", "dematel.evaluate.us", "topsis.evaluate.us",
)
PER_LAYER = SPAN_LAYER + tuple((name, "us") for name in MICRO) + (
    ("process.cpu_s", "s"), ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)


def pin_to_one_cpu() -> None:
    """Keep a unit on the highest-numbered CPU it may use.  Unpinned units
    migrated between the two CPUs of the reference box and their run-to-run
    spread of ``run_s`` was about twice as wide."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Bench:
    """One benchmark run: spawns units, checks their outputs, keeps records."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.trace = trace
        self.deadline = time.perf_counter() + seconds
        self.cycle = [WORKLOAD_SEED + (seed + i) % CYCLE for i in range(CYCLE)]
        self.out = root / ".bench_out"
        for sub in ("reports", "trace", "results"):
            (self.out / sub).mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        self.units: list[dict] = []
        self.first_sha: dict[int, str] = {}
        self.micro: dict = {}

    def spawn(self, spec: dict) -> dict:
        """Run one unit process; returns its record with ``ok`` and ``error``."""
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=UNIT_TIMEOUT_S, preexec_fn=pin_to_one_cpu,
            )
        except subprocess.TimeoutExpired:
            return {**spec, "ok": False, "error": f"timed out after {UNIT_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {**spec, "ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
        record = {**spec, **json.loads(lines[-1]), "ok": True, "error": None}
        if "t_ready" in record:
            record["setup_s"] = record["t_ready"] - t_spawn
        return record

    def run_unit(self, seed: int, traced: bool) -> dict:
        index = len(self.units)
        stem = f"{self.name}-{index:02d}-seed{seed}"
        spec = {
            "kind": self.workload["kind"], "workload": self.workload, "seed": seed,
            "run_id": stem, "out": str(self.out / "reports" / f"{stem}.json"),
            "trace": str(self.out / "trace" / f"{stem}.jsonl") if traced else None,
        }
        record = self.spawn(spec)
        if record["ok"]:
            try:
                self.check(record)
            except (ValueError, KeyError, TypeError) as exc:
                record.update(ok=False, error=f"output check: {exc}")
        self.units.append(record)
        return record

    def check(self, record: dict) -> None:
        """Output checks; raise ValueError on the first one that fails."""
        data = Path(record["out"]).read_bytes()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        payload = json.loads(data)
        if self.workload["kind"] == "pipeline":
            record.update(check_report(payload))
        else:
            record.update(check_searches(payload))
        first = self.first_sha.setdefault(record["seed"], record["sha256"])
        if record["sha256"] != first:
            raise ValueError(f"seed {record['seed']} output differs from its first run")

    def run_cycle(self, traced: bool) -> float:
        start = time.perf_counter()
        for seed in self.cycle:
            self.run_unit(seed, traced)
        return time.perf_counter() - start

    def run(self) -> None:
        if self.trace:
            budget = 0.15 * (self.deadline - time.perf_counter())
            spec = {"kind": "micro", "workload": self.workload, "seed": WORKLOAD_SEED,
                    "budget_s": budget}
            record = self.spawn(spec)
            self.units.append(record)
            self.micro = record.get("micro", {})
        # Untraced cycles only, or untraced and traced cycles in turn; at
        # least two cycles either way.
        modes = (False, True) if self.trace else (False,)
        longest, done = 0.0, 0
        while done < 2 or time.perf_counter() + longest <= self.deadline:
            longest = max(longest, self.run_cycle(modes[done % len(modes)]))
            done += 1


def finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_report(report: dict) -> dict:
    """Checks on one pipeline report; returns its behaviour fingerprint."""
    w, f, xi = report["weights"], report["potential_scores"], report["closeness"]
    rmse = report["metadata"]["heldout_rmse"]
    if not finite(w + f + xi + [report["p_out"], rmse]):
        raise ValueError("a weight, score, closeness, p_out or heldout_rmse is not finite")
    if abs(sum(w) - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {sum(w)!r}, not 1")
    recomputed = math.fsum(a * b for a, b in zip(w, f))
    if len(w) != len(f) or abs(recomputed - report["p_out"]) > P_OUT_TOL:
        raise ValueError(f"p_out {report['p_out']!r} does not recompute ({recomputed!r})")
    if sorted(report["ranking"]) != list(range(len(report["criteria"]))):
        raise ValueError("ranking is not a permutation of the factors")
    return {"p_out": report["p_out"], "heldout_rmse": rmse}


def check_searches(results: dict) -> dict:
    """Checks on one ECSA batch; returns the median best per function."""
    fingerprint = {}
    for name, runs in results.items():
        for run in runs:
            history = run["fitness_history"]
            if not finite(history + [run["best_objective"]]):
                raise ValueError(f"{name} seed {run['seed']}: non-finite result")
            if any(b > a for a, b in zip(history, history[1:])):
                raise ValueError(f"{name} seed {run['seed']}: fitness_history increases")
        fingerprint[f"{name}_best"] = median(run["best_objective"] for run in runs)
    return fingerprint


def cycle_mean(units: list[dict], value) -> float:
    """Median per seed, then the mean over the seeds, so a cycle weighs
    each seed once whatever the number of whole cycles run."""
    by_seed: dict[int, list[float]] = {}
    for unit in units:
        by_seed.setdefault(unit["seed"], []).append(value(unit))
    if not by_seed:
        return math.nan
    return sum(median(v) for v in by_seed.values()) / len(by_seed)


def seed_median(units: list[dict], key: str) -> float:
    """Median over the cycle's seeds of a value that is fixed per seed."""
    per_seed = {unit["seed"]: unit[key] for unit in units}
    return median(per_seed.values()) if per_seed else math.nan


def end_to_end(bench: Bench, units: list[dict]) -> dict:
    metrics = {
        "run_s": cycle_mean(units, lambda u: u["run_s"]),
        "setup_s": median(u["setup_s"] for u in units) if units else math.nan,
        "peak_rss_mb": median(u["rss_mb"] for u in units) if units else math.nan,
    }
    if bench.workload["kind"] == "pipeline":
        metrics["heldout_rmse"] = seed_median(units, "heldout_rmse")
        metrics["result_error"] = metrics["heldout_rmse"]
    else:
        metrics["sphere_best"] = seed_median(units, "sphere_best")
        metrics["rastrigin_best"] = seed_median(units, "rastrigin_best")
        metrics["result_error"] = math.sqrt(metrics["sphere_best"] * metrics["rastrigin_best"])
    return metrics


def per_layer(bench: Bench, plain: list[dict], traced: list[dict]) -> dict:
    for unit in traced:
        unit["summary"] = spans.summarize(unit["trace"])

    def layer_value(unit, name):
        s = unit["summary"]
        base, _, field = name.rpartition(".")
        if field == "self_s":
            return s["self_s"].get(base, 0.0)
        if field == "calls":
            return s["calls"].get(base, 0)
        if field == "improving_iter_ratio":
            iters = s["counters"].get("ecsa.optimize.iterations", 0)
            return s["counters"].get("ecsa.optimize.improving_iters", 0) / iters if iters else 0.0
        return s["counters"].get(name, 0)

    metrics = {name: cycle_mean(traced, lambda u, n=name: layer_value(u, n))
               for name, _ in SPAN_LAYER}
    metrics.update({name: bench.micro.get(name, 0.0) for name in MICRO})
    metrics["process.cpu_s"] = cycle_mean(plain, lambda u: u["cpu_s"])
    metrics["trace.coverage"] = (
        median(u["summary"]["coverage"] for u in traced) if traced else math.nan
    )
    metrics["trace.overhead"] = (
        cycle_mean(traced, lambda u: u["run_s"]) / cycle_mean(plain, lambda u: u["run_s"])
    )
    return metrics


def environment(root: Path) -> dict:
    """What the numbers depend on besides the code under test."""
    import numpy  # after the BLAS thread variables are set

    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "unit_cpu": max(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskfuse" / "__init__.py").is_file():
        print(f"error: no riskfuse sources under {root / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    env = environment(root)

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    ok = [u for u in bench.units if u["ok"] and u["kind"] != "micro"]
    plain = [u for u in ok if not u["trace"]]
    traced = [u for u in ok if u["trace"]]
    failed = sum(not u["ok"] for u in bench.units)
    e2e = end_to_end(bench, plain)
    layers = per_layer(bench, plain, traced) if args.trace else {}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: seed cycle "
          f"{bench.cycle}, {len(plain)} untraced and {len(traced)} traced units measured")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for unit in bench.units:
        if not unit["ok"]:
            print(f"FAILED {unit.get('run_id', unit['kind'])}: {unit['error']}")
    for seed in sorted(bench.first_sha):
        unit = next(u for u in ok if u["seed"] == seed)
        extra = " ".join(f"{k}={unit[k]!r}" for k in ("p_out", "heldout_rmse",
                         "sphere_best", "rastrigin_best") if k in unit)
        print(f"fingerprint seed {seed} sha256={bench.first_sha[seed]} {extra}")
    units = dict(END_TO_END + (("heldout_rmse", "1"), ("sphere_best", "1"),
                               ("rastrigin_best", "1")) + PER_LAYER)
    for name, value in {**e2e, **layers}.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<52} {failed / len(bench.units):>14.6g} 1 "
          f"({failed} of {len(bench.units)} units; n={len(plain)} untraced)")

    reported = layers if args.trace else e2e
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(bench.units),
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in names},
    }
    record = {**result, "env": env, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "all_metrics": {**e2e, **layers}, "units": bench.units}
    results = bench.out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
