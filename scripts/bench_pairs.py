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

Each end-to-end metric of ``BENCHMARK.json`` also gets two verdicts, read
in the direction its ``better`` names.  ``claim_met``: the change is better
in at least 9 of 10 pairs (ties count for neither side), and its median
beats the parent's by more than the parent's q3 - q1.  ``regressed``: the
change's median is worse than the parent's by more than the metric's
``bound``, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
    """``claim_met`` and ``regressed`` of one metric's paired values under
    its ``BENCHMARK.json`` rule; values are negated when higher is better."""
    sign = 1.0 if rule["better"] == "lower" else -1.0
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    base, change_median = spread(parent), statistics.median(change)
    better_pairs = sum(c < p for p, c in zip(parent, change))
    clear = change_median < base["median"] - (base["q3"] - base["q1"])
    return {
        "claim_met": better_pairs >= 0.9 * len(parent) and clear,
        "regressed": change_median > base["median"] + rule["bound"] * abs(base["median"]),
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
            **{side: spread(values[side]) for side in SIDES},
            "change_lower_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "change_higher_pairs": sum(c > p for p, c in zip(values["parent"], values["change"])),
            "median_ratio": (
                statistics.median(values["change"]) / statistics.median(values["parent"])
            ),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], args.workload, seed, args.seconds)
            print(f"pair {seed} {side}: run_s {pair[side]['metrics']['run_s']['value']:.4f}",
                  file=sys.stderr)
        pairs.append(pair)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
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
