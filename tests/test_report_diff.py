"""``scripts/report_diff.py`` on hand-made report pairs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

OLD = {
    "criteria": ["P", "Q", "R"],
    "weights": [0.5, 0.3, 0.2],
    "ranking": [2, 0, 1],
    "p_out": 0.41,
    "metadata": {
        "seed": 11,
        "run_stats": [{"run": 0, "best_fitness": 0.12}, {"run": 1, "best_fitness": 0.1}],
        "ties": [],
    },
}


def _changed():
    new = copy.deepcopy(OLD)
    new["weights"][1] = 0.33
    new["ranking"] = [2, 1, 0]
    new["metadata"]["run_stats"][1]["best_fitness"] = 0.09
    return new


def _run(tmp_path, old, new, *expect):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report))
    argv = [str(p) for p in paths] + (["--expect", *expect] if expect else [])
    return report_diff.main(argv)


def test_every_differing_leaf_listed():
    diffs = report_diff.leaf_diffs(OLD, _changed())
    assert [(report_diff.format_path(path), old, new) for path, old, new in diffs] == [
        ("weights[1]", 0.3, 0.33),
        ("ranking[1]", 0, 1),
        ("ranking[2]", 1, 0),
        ("metadata.run_stats[1].best_fitness", 0.1, 0.09),
    ]


def test_output_grouped_by_top_level_key(capsys, tmp_path):
    assert _run(tmp_path, OLD, _changed()) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== weights: 1 leaves differ"
    assert out[1] == "  weights[1]: 0.3 -> 0.33  (rel +0.1)"
    assert "== ranking: 2 leaves differ" in out
    assert "  metadata.run_stats[1].best_fitness: 0.1 -> 0.09  (rel -0.1)" in out
    assert out[-1] == "4 leaves differ (weights 1, ranking 2, metadata 1)"


def test_removed_key_is_a_difference(capsys, tmp_path):
    new = copy.deepcopy(OLD)
    del new["metadata"]["ties"]
    del new["metadata"]["run_stats"][0]["best_fitness"]
    diffs = report_diff.leaf_diffs(OLD, new)
    assert [report_diff.format_path(path) for path, _, _ in diffs] == [
        "metadata.run_stats[0].best_fitness",
        "metadata.ties",
    ]
    assert all(new is report_diff.ABSENT for _, _, new in diffs)
    assert _run(tmp_path, OLD, new) == 1
    assert "  metadata.ties: [] -> (absent)" in capsys.readouterr().out.splitlines()


def test_identical_reports(capsys, tmp_path):
    assert report_diff.leaf_diffs(OLD, copy.deepcopy(OLD)) == []
    assert _run(tmp_path, OLD, copy.deepcopy(OLD)) == 0
    assert capsys.readouterr().out == "0 leaves differ\n"


def test_leaves_compare_by_json_text():
    assert report_diff.leaf_diffs({"a": [1]}, {"a": [1.0]}) == [(("a", 0), 1, 1.0)]
    assert report_diff.leaf_diffs({"a": 0}, {"a": False}) == [(("a",), 0, False)]
    assert report_diff.leaf_diffs({"a": float("nan")}, {"a": float("nan")}) == []


@pytest.mark.parametrize(
    "expect, code",
    [
        (["weights", "ranking", "metadata.run_stats"], 0),
        (["weights", "ranking", "metadata"], 0),
        (["weights", "metadata.run_stats.best_fitness", "ranking"], 0),
        (["weights", "metadata.run_stats"], 1),
        (["weights", "ranking", "metadata.run"], 1),
    ],
)
def test_expect_allows_only_listed_keys(capsys, tmp_path, expect, code):
    assert _run(tmp_path, OLD, _changed(), *expect) == code
    out = capsys.readouterr().out
    assert ("UNEXPECTED" in out) == bool(code)


def test_unreadable_report_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert report_diff.main([str(bad), str(bad)]) == 2
    assert report_diff.main([str(tmp_path / "missing.json"), str(bad)]) == 2
