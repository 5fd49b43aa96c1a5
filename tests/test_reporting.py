import csv
import json

import pytest

from riskfuse.errors import DataError
from riskfuse.pipeline import RiskReport
from riskfuse.reporting import emit_report, read_report, report_to_json


@pytest.fixture
def sample_report():
    return RiskReport(
        criteria=["P", "Q", "R"],
        weights=[0.5, 0.3, 0.2],
        potential_scores=[0.4, 0.1, 0.9],
        closeness=[0.6, 0.2, 0.8],
        ranking=[2, 0, 1],
        p_out=0.5 * 0.4 + 0.3 * 0.1 + 0.2 * 0.9,
        intermediates={"total_relation": [[0.0, 1.0], [1.0, 0.0]]},
        metadata={
            "seed": 7,
            "run_stats": [
                {"run": 0, "seed": 42, "best_fitness": 0.12, "test_rmse": 0.2},
                {"run": 1, "seed": 43, "best_fitness": 0.1, "test_rmse": 0.25},
            ],
        },
    )


class TestJsonRoundTrip:
    def test_file_round_trip(self, sample_report, tmp_path):
        path = tmp_path / "report.json"
        written = emit_report(sample_report, "json", path)
        assert written == [path]
        assert read_report(path) == sample_report

    def test_stable_key_order(self, sample_report):
        keys = list(json.loads(report_to_json(sample_report)).keys())
        assert keys == [
            "criteria", "weights", "potential_scores", "closeness",
            "ranking", "p_out", "intermediates", "metadata",
        ]

    @pytest.mark.parametrize(
        "content",
        [b'{"criteria": ["a"]}', b"[1, 2]", b'{"p_out": "\xe9"}', b"[" * 100_000, b"{not json"],
        ids=["missing-fields", "list", "latin-1", "deep-nesting", "not-json"],
    )
    def test_non_report_file_rejected(self, content, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(content)
        with pytest.raises(DataError):
            read_report(path)


class TestCsvTables:
    def test_three_tables_written(self, sample_report, tmp_path):
        paths = emit_report(sample_report, "csv", tmp_path / "out.csv")
        assert len(paths) == 3
        names = sorted(p.name for p in paths)
        assert names == ["out.ranking.csv", "out.runs.csv", "out.weights.csv"]

    def test_ranking_rows_match_factor_count(self, sample_report, tmp_path):
        paths = emit_report(sample_report, "csv", tmp_path / "out.csv")
        ranking_path = next(p for p in paths if "ranking" in p.name)
        with ranking_path.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + len(sample_report.criteria)
        header = rows[0]
        assert header == ["factor", "potential_score", "closeness", "rank"]
        ranks = {row[0]: int(float(row[3])) for row in rows[1:]}
        assert ranks == {"R": 1, "P": 2, "Q": 3}

    def test_runs_table_has_one_row_per_run(self, sample_report, tmp_path):
        emit_report(sample_report, "csv", tmp_path / "out.csv")
        with (tmp_path / "out.runs.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["run", "seed", "best_fitness", "test_rmse"],
            ["0", "42", "0.12", "0.2"],
            ["1", "43", "0.1", "0.25"],
        ]

    def test_unwritable_path(self, sample_report, tmp_path):
        with pytest.raises(DataError):
            emit_report(sample_report, "json", tmp_path / "missing_dir" / "x.json")

    def test_unknown_format(self, sample_report, tmp_path):
        with pytest.raises(DataError):
            emit_report(sample_report, "yaml", tmp_path / "x.yaml")
