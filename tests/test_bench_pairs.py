"""The summarizer of ``scripts/bench_pairs.py`` on hand-made pair records."""

import importlib.util
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
