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

``--workload north-star`` times the north star's own run instead:
``python3 -m riskfuse.cli --seed 11 --out <tmp> pipeline``, the default
protocol on the bundled data, once per side and pair, each run a fresh
process with BLAS threads 1 on one pinned CPU, as perfbench's units run.
The first side alternates as above.  ``summary.north_star`` keeps each
side's wall-time median and quartiles, the pairs in which the change ran
faster, the change's median over the parent's, the exit codes and the
report digests.  ``BENCHMARK.json`` has no such workload, so there is no
verdict, and ``--seconds`` does not apply.
"""

from __future__ import annotations

import argparse
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
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
NORTH_STAR = "north-star"
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


def run_north_star(tree: Path, args=NORTH_STAR_ARGS) -> dict:
    """One fresh Python process with ``args`` in a tree, their ``{out}`` a
    temporary report path: wall time, exit code and the report's SHA-256
    (None when no report was written)."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *(arg.format(out=out) for arg in args)],
                              cwd=tree, env=env, capture_output=True, preexec_fn=pin_to_one_cpu)
        wall_s = time.perf_counter() - start
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


def alternating_pairs(n_pairs: int, run) -> list[dict]:
    """Pairs k = 1 .. ``n_pairs``, each holding ``run(side, k)`` of both
    sides; the parent runs first in odd pairs, the change in even ones."""
    pairs = []
    for k in range(1, n_pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pairs.append({"pair": k, "first": order[0], **{side: run(side, k) for side in order}})
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True,
                        help=f"a BENCHMARK.json workload, or {NORTH_STAR}: the north star's run")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help=f"seconds per perfbench run; does not apply to {NORTH_STAR}")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    if args.seconds is None and args.workload != NORTH_STAR:
        parser.error(f"--seconds is required for workload {args.workload}")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.workload == NORTH_STAR:
        def north_star_run(side, k):
            run = run_north_star(trees[side])
            print(f"pair {k} {side}: wall_s {run['wall_s']:.3f}, exit {run['exit_code']}",
                  file=sys.stderr)
            return run

        pairs = alternating_pairs(args.pairs, north_star_run)
        out.setdefault("summary", {})["north_star"] = {
            "command": " ".join(["python3", *NORTH_STAR_ARGS]).format(out="<tmp>"),
            "order": "the parent runs first in odd pairs, the change in even ones",
            **summarize_north_star(pairs),
        }
        out.setdefault("pairs", {})[NORTH_STAR] = pairs
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        return 0

    def perfbench_run(side, k):
        result = run_side(trees[side], args.workload, k, args.seconds)
        print(f"pair {k} {side}: run_s {result['metrics']['run_s']['value']:.4f}", file=sys.stderr)
        return result

    pairs = alternating_pairs(args.pairs, perfbench_run)

    summary = out.setdefault("summary", {})
    summary["command"] = ("python3 perfbench/run.py --workload <name> --seed <k> "
                          "--seconds <s> --trace 0")
    summary["order"] = ("pair k uses --seed k; the parent runs first in odd pairs, "
                        "the change in even ones")
    workload = summary.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds, **summarize(pairs, end_to_end_rules())}
    for name, metric in workload["metrics"].items():
        if "claim_met" in metric:
            print(f"{name}: claim_met {metric['claim_met']}, regressed {metric['regressed']}",
                  file=sys.stderr)
    out.setdefault("pairs", {})[args.workload] = pairs
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
