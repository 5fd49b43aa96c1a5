import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.cli import cli_main
from riskfuse.dataset import bundled_path
from riskfuse.errors import NumericalError
from riskfuse.fuzzy import DEFAULT_DEMATEL_SCALE


@pytest.fixture
def quick_config_file(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(
        json.dumps(
            {
                "runs": 2,
                "max_iterations": 8,
                "population_size": 4,
                "cluster_radius": 0.5,
                "seed": 5,
            }
        )
    )
    return str(path)


class TestWeightsCommand:
    def test_two_by_two_fixture(self, capsys):
        code = cli_main(["weights", "--matrices", str(bundled_path("dematel_2x2.json"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "w = [0.5, 0.5]" in out

    def test_artifact_export(self, capsys, tmp_path):
        out_path = tmp_path / "dematel.json"
        code = cli_main(
            ["--out", str(out_path), "weights",
             "--matrices", str(bundled_path("dematel_2x2.json"))]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["total_relation"] == [[1.0, 2.0], [1.0, 1.0]]


    def test_lone_criterion_takes_full_weight(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"respondents": [[["No influence"]], [[0]]]}))
        assert cli_main(["weights", "--matrices", str(path)]) == 0
        assert "w = [1.0]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "respondents",
        [[[]], [[[0, True], [1, 0]]], {"a": 1}, [[[0, [1, 2]], [1, 0]]], [[[0, None], [1, 0]]]],
        ids=["empty-grid", "bool-cell", "object", "short-tfn", "null-cell"],
    )
    def test_malformed_grids_are_data_errors(self, respondents, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"respondents": respondents}))
        assert cli_main(["weights", "--matrices", str(path)]) == 2
        assert "data error:" in capsys.readouterr().err


# Leaves of arbitrary respondents JSON: the scale's labels and unknown
# text, numbers of every kind JSON can carry, booleans and null.
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(DEFAULT_DEMATEL_SCALE.labels + ("Purple", ""))
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=24,
)


@st.composite
def _grids(draw):
    """Near-valid respondents: k grids of n x n cells, some of them TFNs."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = _JSON_LEAVES | st.lists(st.floats(-1, 2), min_size=2, max_size=4)
    return [[[draw(cell) for _ in range(n)] for _ in range(n)] for _ in range(k)]


class TestRespondentBoundary:
    @settings(max_examples=150, deadline=None)
    @given(respondents=_JSON_VALUES | _grids())
    def test_every_input_exits_cleanly(self, respondents, tmp_path_factory):
        path = tmp_path_factory.mktemp("respondents") / "m.json"
        path.write_text(json.dumps({"respondents": respondents}))
        assert cli_main(["weights", "--matrices", str(path)]) in (0, 2, 3)


class TestRankCommand:
    def test_ranking_output(self, capsys, tmp_path):
        matrix = {
            "cells": [
                [[0.8, 0.1, 0.1]],
                [[0.2, 0.7, 0.1]],
            ],
            "criteria_kinds": ["benefit"],
            "names": ["good", "bad"],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        code = cli_main(["rank", "--matrix", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "good > bad" in out

    @pytest.mark.parametrize(
        "matrix",
        [
            {"cells": [[]], "criteria_kinds": []},
            {"cells": [[[0.8, 0.1]], [[0.2, 0.7]]], "criteria_kinds": ["benefit"],
             "names": ["only-one"]},
            {"cells": [[[0.8, 0.1]], [[0.2, 0.7]]], "criteria_kinds": ["benefit"],
             "names": [1, 2]},
        ],
        ids=["no-criteria", "short-names", "non-string-names"],
    )
    def test_malformed_matrix_is_data_error(self, matrix, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        assert cli_main(["rank", "--matrix", str(path)]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cells, xi",
        [([[[0.8, 0.1]]], "[1.0]"), ([[[0.8, 0.1]], [[0.8, 0.1]]], "[1.0, 1.0]")],
        ids=["one-alternative", "identical-rows"],
    )
    def test_degenerate_matrix_ranks(self, cells, xi, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cells": cells, "criteria_kinds": ["benefit"]}))
        assert cli_main(["rank", "--matrix", str(path)]) == 0
        assert f"xi = {xi}" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert cli_main(["weights"]) == 1

    def test_missing_data_file_is_data_error(self, capsys):
        assert cli_main(["pipeline", "--data", "/nonexistent/file.csv"]) == 2

    def test_degenerate_judgments_are_numerical_error(self, tmp_path, capsys):
        # perfectly uniform judgments: spectral radius 1, no total relation
        matrices = {"respondents": [[[0, 1, 1], [1, 0, 1], [1, 1, 0]]]}
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(matrices))
        assert cli_main(["weights", "--matrices", str(path)]) == 3

    @pytest.mark.parametrize(
        "payload", ["ab", 3, None, [], [["runs", 1]]],
        ids=["string", "number", "null", "empty-list", "pair-list"],
    )
    def test_config_must_be_object(self, payload, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["--config", str(path), "pipeline"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_wrong_config_type_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"runs": "3"}))
        assert cli_main(["--config", str(path), "pipeline"]) == 2

    @pytest.mark.parametrize(
        "command", [["pipeline"], ["tune", "--data", str(bundled_path("nasa93.arff"))]]
    )
    def test_numerical_error_inside_search(self, command, quick_config_file, monkeypatch, capsys):
        # The batched ridge solve fails on its first call: the search
        # objective's first batch.
        from riskfuse import anfis

        def failing_solve(*args):
            raise NumericalError("injected solve failure")

        monkeypatch.setattr(anfis, "_ridge_dual", failing_solve)
        assert cli_main(["--config", quick_config_file] + command) == 3
        err = capsys.readouterr().err
        assert "injected solve failure" in err
        assert "objective failed at iteration 0:" in err

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0


class TestPipelineCommand:
    def test_deterministic_output(self, tmp_path, quick_config_file, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code = cli_main(
                ["--config", quick_config_file, "--seed", "7",
                 "--out", str(out), "pipeline"]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_format(self, tmp_path, quick_config_file, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(
            ["--config", quick_config_file, "--format", "csv",
             "--out", str(out), "pipeline"]
        )
        assert code == 0
        assert (tmp_path / "r.weights.csv").exists()
        assert (tmp_path / "r.ranking.csv").exists()
        assert (tmp_path / "r.runs.csv").exists()

    def test_env_seed_fallback(self, tmp_path, quick_config_file, monkeypatch, capsys):
        monkeypatch.setenv("RISKFUSE_SEED", "123")
        out = tmp_path / "r.json"
        code = cli_main(["--config", quick_config_file, "--out", str(out), "pipeline"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metadata"]["seed"] == 123


class TestTuneCommand:
    def test_per_fold_lines(self, quick_config_file, capsys):
        code = cli_main(
            ["--config", quick_config_file, "tune",
             "--data", str(bundled_path("nasa93.arff"))]
        )
        out = capsys.readouterr().out
        assert code == 0
        for fold in range(3):
            assert f"fold {fold}:" in out
        assert "test_mape=" in out


class TestBenchCommand:
    def test_csv_emitted(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli_main(
            ["--out", str(out), "bench-ecsa", "--runs", "2",
             "--iterations", "5", "--function", "sphere"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("function,run,seed")
        assert len(lines) == 3

    def test_seed_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKFUSE_SEED", "7")
        out = tmp_path / "bench.csv"
        assert cli_main(["--out", str(out), "bench-ecsa", "--runs", "2", "--iterations", "1"]) == 0
        seeds = [int(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert seeds == np.random.SeedSequence(7).generate_state(2).tolist()

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
    def test_negative_seed_is_data_error(self, flag, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("RISKFUSE_SEED", env)
        assert cli_main([*flag, "bench-ecsa", "--runs", "1", "--iterations", "1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_nonpositive_runs_is_usage_error(self, runs, capsys):
        assert cli_main(["bench-ecsa", "--runs", runs]) == 1
        assert "--runs: expected a positive integer" in capsys.readouterr().err
