"""``scripts/bench_pairs.py``: its summaries on hand-made pair records,
its child runs on stub commands, and the objective workload's recording
of the pipeline's own searches."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(run_s, rss, failed=0, attempted=30, digests=None):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "report_sha256_per_seed": digests or {"11": ["a"], "12": ["b"]},
    }


PAIRS = [
    {"seed": 1, "first": "parent", "parent": side(0.30, 40.0), "change": side(0.20, 41.0)},
    {"seed": 2, "first": "change", "parent": side(0.10, 40.0), "change": side(0.15, 40.0)},
    {"seed": 3, "first": "parent", "parent": side(0.20, 40.0, failed=1),
     "change": side(0.05, 40.5, attempted=33)},
    {"seed": 4, "first": "change", "parent": side(0.40, 40.0), "change": side(0.30, 40.5)},
]


def test_spread_per_side_and_pair_counts():
    summary = bench_pairs.summarize(PAIRS)
    assert summary["pairs"] == 4
    run_s = summary["metrics"]["run_s"]
    # Inclusive quartiles: the parent's 0.1, 0.2, 0.3, 0.4 give 0.175 and 0.325.
    assert run_s["parent"] == pytest.approx({"median": 0.25, "q1": 0.175, "q3": 0.325})
    assert run_s["change"] == pytest.approx({"median": 0.175, "q1": 0.125, "q3": 0.225})
    assert (run_s["change_lower_pairs"], run_s["change_higher_pairs"]) == (3, 1)
    assert run_s["median_ratio"] == pytest.approx(0.7)
    rss = summary["metrics"]["peak_rss_mb"]
    # A tie counts for neither side.
    assert (rss["change_lower_pairs"], rss["change_higher_pairs"]) == (0, 3)
    assert rss["median_ratio"] == pytest.approx(40.5 / 40.0)


def test_unit_counts_and_digests():
    summary = bench_pairs.summarize(PAIRS)
    assert summary["failed_units"] == {"parent": 1, "change": 0}
    assert summary["attempted_units"] == {"parent": 120, "change": 123}
    assert summary["reports_identical_to_parent"]
    assert summary["report_sha256_per_seed"]["change"] == {"11": ["a"], "12": ["b"]}

    drifted = PAIRS[:-1] + [{**PAIRS[-1], "change": side(0.3, 40.5, digests={"11": ["c"]})}]
    summary = bench_pairs.summarize(drifted)
    assert not summary["reports_identical_to_parent"]
    assert summary["report_sha256_per_seed"]["change"]["11"] == ["a", "c"]


# Ten pairs around 1.0 s; the parent's inclusive quartiles are 0.9925 and 1.01.
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
LOWER = {"better": "lower", "bound": 0.25}


def ten_pairs(change):
    return [{"seed": k, "parent": side(p, 40.0), "change": side(c, 40.0)}
            for k, (p, c) in enumerate(zip(PARENT, change), start=1)]


def test_verdicts_follow_benchmark_rules():
    rules = bench_pairs.end_to_end_rules()
    assert rules["run_s"]["better"] == "lower"
    run_s = bench_pairs.summarize(ten_pairs([p - 0.1 for p in PARENT]), rules)["metrics"]["run_s"]
    assert (run_s["claim_met"], run_s["regressed"]) == (True, False)
    # peak_rss_mb ties in every pair: no claim, no regression.
    rss = bench_pairs.summarize(ten_pairs(PARENT), rules)["metrics"]["peak_rss_mb"]
    assert (rss["claim_met"], rss["regressed"]) == (False, False)


@pytest.mark.parametrize(
    "change, claim_met",
    [([p - 0.1 for p in PARENT[:9]] + [1.2], True),  # 9 of 10 lower
     ([p - 0.1 for p in PARENT[:9]] + [PARENT[9]], True),  # a tie counts for neither
     ([p - 0.1 for p in PARENT[:8]] + [PARENT[8], 1.2], False),  # 8 lower, 1 tie
     ([p - 0.005 for p in PARENT], False)],  # lower everywhere, within q3 - q1
    ids=["nine-lower", "nine-lower-one-tie", "eight-lower", "within-spread"],
)
def test_claim_met(change, claim_met):
    assert bench_pairs.verdicts(PARENT, change, LOWER)["claim_met"] is claim_met


@pytest.mark.parametrize(
    "factor, better, regressed",
    [(1.3, "lower", True), (1.2, "lower", False), (0.7, "higher", True), (0.8, "higher", False)],
)
def test_regressed_past_bound(factor, better, regressed):
    rule = {"better": better, "bound": 0.25}
    change = [factor * p for p in PARENT]
    assert bench_pairs.verdicts(PARENT, change, rule)["regressed"] is regressed


# ecsa-search setup_s in BENCH_23.json: the parent's quartiles 0.195 and
# 0.284 s are wider than the 0.25 bound of its 0.210 s median.
WIDE_PARENT = [0.1928, 0.2157, 0.1875, 0.1936, 0.2010, 0.2046, 0.2897, 0.3021, 0.2671, 0.2987]


@pytest.mark.parametrize(
    "parent, change, regressed, unresolved",
    [(WIDE_PARENT, [0.1918, 0.1922, 0.2563, 0.1829, 0.2795, 0.2739, 0.2906, 0.2740, 0.2987,
                    0.2775], True, True),  # 5 pairs lower, 5 higher
     (WIDE_PARENT, [0.9 * p for p in WIDE_PARENT], False, True),  # runs overlap
     (WIDE_PARENT, [0.18 - 0.001 * k for k in range(10)], False, False),  # all below all
     (PARENT, [1.2 * p for p in PARENT], False, False)],  # spread within the bound
    ids=["bench23-setup", "overlapping", "every-run-better", "narrow-spread"],
)
def test_unresolved_when_spread_exceeds_bound(parent, change, regressed, unresolved):
    verdict = bench_pairs.verdicts(parent, change, LOWER)
    assert (verdict["regressed"], verdict["unresolved"]) == (regressed, unresolved)


# Stand-ins for the north star's arguments: write a fixed report, or fail.
WRITES_REPORT = ("-c", "import sys; open(sys.argv[1], 'w').write('report')", "{out}")
FAILS = ("-c", "raise SystemExit(3)", "{out}")


def test_north_star_pairs_on_a_stub_command(tmp_path):
    pairs = bench_pairs.alternating_pairs(
        3, lambda side, k: bench_pairs.run_north_star(tmp_path, WRITES_REPORT))
    assert [pair["first"] for pair in pairs] == ["parent", "change", "parent"]
    summary = bench_pairs.summarize_north_star(pairs)
    assert summary["pairs"] == 3
    assert summary["exit_codes"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    sha = hashlib.sha256(b"report").hexdigest()
    assert summary["report_sha256"] == {"parent": [sha], "change": [sha]}
    assert summary["reports_identical_to_parent"]
    for side in ("parent", "change"):
        wall = summary["wall_s"][side]
        assert 0.0 < wall["q1"] <= wall["median"] <= wall["q3"]
    assert summary["wall_s"]["median_ratio"] > 0.0

    failed = bench_pairs.run_north_star(tmp_path, FAILS)
    assert (failed["exit_code"], failed["report_sha256"]) == (3, None)
    pairs[-1] = {**pairs[-1], "change": failed}
    summary = bench_pairs.summarize_north_star(pairs)
    assert summary["exit_codes"]["change"] == [0, 0, 3]
    assert summary["report_sha256"]["change"] == [sha]
    assert not summary["reports_identical_to_parent"]


def test_north_star_wall_times_summarized():
    run = {"exit_code": 0, "report_sha256": "a"}
    pairs = [{"parent": {**run, "wall_s": p}, "change": {**run, "wall_s": c}}
             for p, c in [(3.0, 2.0), (2.0, 2.5), (4.0, 3.0), (5.0, 4.0)]]
    summary = bench_pairs.summarize_north_star(pairs)
    wall = summary["wall_s"]
    assert wall["parent"] == pytest.approx({"median": 3.5, "q1": 2.75, "q3": 4.25})
    assert (wall["change_lower_pairs"], wall["change_higher_pairs"]) == (3, 1)
    assert wall["median_ratio"] == pytest.approx(2.75 / 3.5)
    assert "claim_met" not in wall


def test_objective_replay_scores_every_recorded_call(tmp_path):
    bench_pairs.record(tmp_path)  # raises unless one objective per fold was recorded
    result = bench_pairs.replay(tmp_path, passes=1)
    # 3 folds of one search: 101 batches each plus the all-ones call;
    # codes searches run 6 iterations, so 7 batches plus that call.
    assert {name: run["calls"] for name, run in result["workloads"].items()} == {
        "pipeline-groups": 306,
        "pipeline-codes": 24,
    }
    assert all(run["us_per_call"] > 0 for run in result["workloads"].values())
    # Every score in call order, groups first: the scores kept their bits
    # through the fold constants and the rows-first membership gather.
    assert result["scores_sha256"] == (
        "ddfe6bdbef083c00717e0209faa1abcded9c8fae335fd979d8d52d6d08f96f9f"
    )


def stub_replay(digest):
    """A ``replay`` result of one workload whose scores hash to ``digest``."""
    return {"workloads": {"pipeline-groups": {"calls": 2, "us_per_call": 1.0,
                                              "scores_sha256": digest}},
            "scores_sha256": digest}


@pytest.mark.parametrize("change_digest, code", [("a", 0), ("b", 1)],
                         ids=["same-scores", "differing-scores"])
def test_objective_exits_1_on_differing_scores(change_digest, code, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    steps = []

    def stub(tree, step, data):
        steps.append((tree.name, step))
        return stub_replay(change_digest if tree == change else "a") if step == "replay" else None

    monkeypatch.setattr(bench_pairs, "run_objective", stub)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "objective", "--pairs", "2", "--out", str(out)]) == code
    # Recorded once, on the parent; then replayed with the first side alternating.
    assert steps == [("parent", "record"), ("parent", "replay"), ("change", "replay"),
                     ("change", "replay"), ("parent", "replay")]
    record = json.loads(out.read_text())
    summary = record["summary"]["objective"]
    assert summary["scores_identical"] is (code == 0)
    assert summary["scores_sha256"] == {"parent": ["a"], "change": [change_digest]}
    groups = summary["workloads"]["pipeline-groups"]
    assert groups["calls"] == 2
    assert groups["scores_sha256"] == {"parent": ["a"], "change": [change_digest]}
    assert groups["us_per_call"]["parent"]["median"] == 1.0
    assert [pair["first"] for pair in record["pairs"]["objective"]] == ["parent", "change"]


def test_seconds_required_only_for_perfbench_workloads(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "pipeline-codes", "--pairs", "2",
                          "--out", str(tmp_path / "out.json")])
