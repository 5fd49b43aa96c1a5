import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riskfuse import cli
from riskfuse.cli import cli_main
from riskfuse.config import PipelineConfig
from riskfuse.dataset import RATING_COLUMNS, bundled_path, load_dataset
from riskfuse.errors import DataError, NumericalError
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

    def test_negative_cell_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"respondents": [[[0, -1], [1, 0]]]}))
        assert cli_main(["weights", "--matrices", str(path)]) == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "criteria", [5, ["a", "b", "c"], [1, 2]], ids=["number", "three-names", "non-string"]
    )
    def test_malformed_criteria_are_data_errors(self, criteria, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"respondents": [[[0, 2], [1, 0]]], "criteria": criteria}))
        assert cli_main(["weights", "--matrices", str(path)]) == 2
        assert "criteria must be a list of 2 strings" in capsys.readouterr().err


_TINY_SCALE = {"name": "tiny", "labels": ["lo", "hi"], "tfns": [[0, 0, 0.5], [0.5, 1, 1]]}
# Same labels, other TFNs: weights read through it differ from the tiny scale's.
_DECOY_SCALE = {"name": "decoy", "labels": ["lo", "hi"], "tfns": [[0, 0, 0.2], [0.2, 1, 1]]}


class TestScaleRule:
    """Labels resolve through the matrices file's scale, else the config's."""

    def test_file_scale_else_config_scale(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        grid = [["hi" if j > i else "lo" for j in range(6)] for i in range(6)]
        files = {
            "tiny.json": {"scale": _TINY_SCALE, "runs": 1, "max_iterations": 2,
                          "population_size": 4},
            "decoy.json": {"scale": _DECOY_SCALE},
            "plain.json": {"respondents": [grid]},
            "scaled.json": {"scale": _TINY_SCALE, "respondents": [grid]},
        }
        for name, payload in files.items():
            Path(name).write_text(json.dumps(payload))

        def weights_line(config, command, matrices):
            assert cli_main(["--config", config, command, "--matrices", matrices]) == 0
            return next(
                line for line in capsys.readouterr().out.splitlines() if line.startswith("w = ")
            )

        tiny = weights_line("tiny.json", "weights", "plain.json")
        assert weights_line("tiny.json", "pipeline", "plain.json") == tiny
        assert weights_line("decoy.json", "weights", "scaled.json") == tiny
        assert weights_line("decoy.json", "weights", "plain.json") != tiny

    @pytest.mark.parametrize(
        "labels", ["ab", ["Low", "Low"], [1, 2]], ids=["string", "repeated", "numbers"]
    )
    def test_labels_must_be_distinct_strings(self, labels, tmp_path, capsys):
        path = tmp_path / "matrices.json"
        scale = {**_TINY_SCALE, "labels": labels}
        path.write_text(json.dumps({"scale": scale, "respondents": [[[0, 1], [2, 0]]]}))
        assert cli_main(["weights", "--matrices", str(path)]) == 2
        assert "labels must be a list of distinct strings" in capsys.readouterr().err


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
    @settings(settings.get_profile("boundary"), max_examples=150)
    @given(respondents=_JSON_VALUES | _grids())
    def test_every_input_exits_cleanly(self, respondents, tmp_path_factory):
        path = tmp_path_factory.mktemp("respondents") / "m.json"
        path.write_text(json.dumps({"respondents": respondents}))
        assert cli_main(["weights", "--matrices", str(path)]) in (0, 2, 3)


# Arbitrary JSON, weighted towards values that some configuration key
# or weighted IF matrix field accepts.
_ANY_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 30) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.floats(0, 1) | st.text(max_size=3)
    | st.sampled_from(["magnitude", "signed", "groups", "codes", "benefit", "cost", "lo"])
)
_ANY_JSON = st.recursive(
    _ANY_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "labels", "tfns", "low", ""]), children,
                      max_size=3),
    max_leaves=16,
)
# One accepted value per configuration key, and a typo key.
_CONFIG_VALUES = {
    **{f.name: getattr(PipelineConfig(), f.name) for f in fields(PipelineConfig)},
    "scale": _TINY_SCALE, "criteria_kinds": ["cost", "benefit"], "rnus": 1,
}
# Configs whose every key holds its accepted value or arbitrary JSON.
_CONFIGS = st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), unique=True, max_size=5).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.just(_CONFIG_VALUES[k]) | _ANY_JSON for k in keys})
)


class TestConfigBoundary:
    @settings(settings.get_profile("boundary"), max_examples=100)
    @given(config=_CONFIGS)
    def test_every_config_exits_cleanly(self, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("config") / "c.json"
        path.write_text(json.dumps(config))
        matrices = str(bundled_path("dematel_2x2.json"))
        assert cli_main(["--config", str(path), "weights", "--matrices", matrices]) in (0, 1, 2, 3)


@st.composite
def _if_matrices(draw):
    """Near-valid weighted IF matrices: rows of (mu, nu[, pi]) cells."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cell = st.lists(st.floats(0, 0.5), min_size=2, max_size=2)
    if draw(st.booleans()):
        cell |= st.lists(st.floats(-1, 2), min_size=2, max_size=4) | _ANY_JSON
    return {
        "cells": [[draw(cell) for _ in range(m)] for _ in range(n)],
        "criteria_kinds": draw(st.lists(st.sampled_from(["benefit", "cost"]), min_size=m,
                                        max_size=m) | _ANY_JSON),
        "names": draw(st.none() | st.lists(st.text(max_size=2), min_size=n, max_size=n)
                      | _ANY_JSON),
    }


class TestRankBoundary:
    @settings(settings.get_profile("boundary"), max_examples=100)
    @given(matrix=_if_matrices() | _ANY_JSON)
    def test_every_matrix_exits_cleanly(self, matrix, tmp_path_factory):
        path = tmp_path_factory.mktemp("matrix") / "m.json"
        path.write_text(json.dumps(matrix))
        assert cli_main(["rank", "--matrix", str(path)]) in (0, 1, 2, 3)


# Dataset files: header names the loader maps (ratings, size, effort,
# id) plus an unknown column, and tokens of every kind it must parse or
# reject.  The bundled header with well-formed tokens reaches tuning.
_NASA_HEADER = bundled_path("nasa93.csv").read_text().splitlines()[0].split(",")
_HEADER_NAMES = st.sampled_from(
    list(RATING_COLUMNS) + ["kloc", "effort", "recordnumber", "projectname", "mystery"]
)
_ORDINAL_TOKENS = st.sampled_from(
    ["vl", "l", "n", "h", "vh", "xh", "very_low", "nominal", "extra_high", "", "?", "NA"]
)
_NUMBER_TOKENS = st.sampled_from(["1", "2.5", "7", "40", "120", "?"])
_TOKENS = _ORDINAL_TOKENS | _NUMBER_TOKENS | st.sampled_from(
    ["garbage", "0", "-1", "1e400", "inf", "-inf", "nan", '"', "'", '"a,b"', "@data", "%"]
) | st.text(max_size=3)


@st.composite
def _dataset_files(draw):
    """(suffix, text) of a CSV or ARFF file: a drawn header, rows of
    drawn tokens, and rows whose field count may miss the header's."""
    header = draw(st.just(_NASA_HEADER) | st.lists(_HEADER_NAMES, max_size=6))
    well_formed = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        if well_formed:
            cells = [_ORDINAL_TOKENS if name in RATING_COLUMNS else _NUMBER_TOKENS
                     for name in header]
        else:
            cells = [_TOKENS] * draw(st.integers(0, len(header) + 2))
        rows.append(",".join(draw(tokens) for tokens in cells))
    if draw(st.booleans()):
        return "csv", "\n".join([",".join(header), *rows]) + "\n"
    attributes = [f"@attribute {name} real" for name in header]
    data = ["@data"] if draw(st.booleans()) else []
    return "arff", "\n".join(["@relation drawn", *attributes, *data, *rows]) + "\n"


@pytest.fixture(scope="module")
def quick_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("quick") / "quick.json"
    path.write_text(json.dumps({"runs": 1, "max_iterations": 4, "population_size": 4}))
    return str(path)


class TestDatasetBoundary:
    @settings(settings.get_profile("boundary"), max_examples=100)
    @given(file=_dataset_files())
    def test_every_file_loads_or_is_data_error(self, file, quick_config_path, tmp_path_factory):
        suffix, text = file
        path = tmp_path_factory.mktemp("dataset") / f"data.{suffix}"
        path.write_text(text)
        try:
            assert isinstance(load_dataset(path), list)
        except DataError:
            pass
        assert cli_main(["--config", quick_config_path, "tune", "--data", str(path)]) in (0, 2, 3)


_HUGE = str(2**70)  # above any count numpy can size an array axis by
_COUNT = st.integers(-1, 3).map(str)


@st.composite
def _argvs(draw):
    """Command lines: drawn global flags, then a subcommand with its
    required arguments, or an unknown one.  ``{config}`` stands for the
    quick config, under which tune and pipeline always run to keep each
    example small, and ``{out}`` for a scratch directory."""
    argv = []
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 3) | st.integers(2**64 - 1, 2**70)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "xml"]))]
    if draw(st.booleans()):
        argv += ["--out", "{out}/" + draw(st.sampled_from(["r.json", "r.csv", "r"]))]
    command = draw(st.sampled_from(["weights", "tune", "rank", "pipeline", "bench-ecsa", "nope"]))
    if command in ("tune", "pipeline"):
        argv = ["--config", "{config}", *argv]
    argv.append(command)
    if command == "weights":
        argv += ["--matrices", str(bundled_path("dematel_2x2.json"))]
    elif command == "tune":
        argv += ["--data", str(bundled_path("nasa93.arff"))]
    elif command == "rank":
        argv += ["--matrix", "{out}/missing.json"]
    elif command == "bench-ecsa":
        argv += ["--function", draw(st.sampled_from(["sphere", "rastrigin", "both", "cube"]))]
        for flag in ("--runs", "--iterations", "--dimensions", "--population"):
            # --runs and --iterations default to 20 and 100: always bound them.
            if flag in ("--runs", "--iterations") or draw(st.booleans()):
                argv += [flag, draw(_COUNT)]
    return argv


class TestArgumentBoundary:
    @settings(settings.get_profile("boundary"), max_examples=60)
    @given(argv=_argvs())
    @example(argv=["bench-ecsa", "--runs", _HUGE])
    # With --runs 2**70 too, a CLI that took the iteration count would
    # fail at once instead of searching without end.
    @example(argv=["bench-ecsa", "--iterations", _HUGE, "--runs", _HUGE])
    @example(argv=["bench-ecsa", "--runs", "1", "--iterations", "1", "--dimensions", _HUGE])
    @example(argv=["bench-ecsa", "--runs", "1", "--iterations", "1", "--population", _HUGE])
    def test_every_argv_exits_cleanly(self, argv, quick_config_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("argv")
        assert cli_main([arg.format(config=quick_config_path, out=out) for arg in argv]) in (
            0, 1, 2, 3
        )


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
            *({"cells": [[cell]], "criteria_kinds": ["benefit"]} for cell in (
                [True, False], [0.5], [0.5, 0.2, 0.3, 0.0], ["0.5", "0.2"], [0.5, 0.2, None],
                [10**400, 0])),
        ],
        ids=["no-criteria", "short-names", "non-string-names", "boolean-cell", "one-value-cell",
             "four-value-cell", "string-cell", "null-pi-cell", "huge-integer-cell"],
    )
    def test_malformed_matrix_is_data_error(self, matrix, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        assert cli_main(["rank", "--matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_ranks_a_pipeline_report_as_the_pipeline_did(self, quick_config_path, capsys,
                                                          tmp_path):
        report_path = tmp_path / "report.json"
        argv = ["--seed", "11", "--config", quick_config_path, "--out", str(report_path)]
        assert cli_main([*argv, "pipeline"]) == 0
        printed = capsys.readouterr().out.splitlines()
        report = json.loads(report_path.read_text())
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps({
            "cells": report["intermediates"]["weighted_if_matrix"],
            "criteria_kinds": report["intermediates"]["criteria_kinds"],
            "names": report["criteria"],
        }))
        assert cli_main(["rank", "--matrix", str(matrix_path)]) == 0
        ranked = capsys.readouterr().out.splitlines()
        xi = ", ".join(map(str, report["closeness"]))
        names = " > ".join(report["criteria"][i] for i in report["ranking"])
        assert ranked == [f"xi = [{xi}]", f"ranking: {names}"]
        assert ranked == [line for line in printed if line.startswith(("xi =", "ranking:"))]

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

    def test_attribute_after_data_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "late.arff"
        path.write_text("@attribute rely {l,h}\n@data\nh\n@attribute kloc real\nl,10\n")
        assert cli_main(["pipeline", "--data", str(path)]) == 2
        assert "@attribute declaration after @data" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command",
        [["--config", "{}", "pipeline"], ["weights", "--matrices", "{}"],
         ["pipeline", "--matrices", "{}"], ["tune", "--data", "{}"], ["rank", "--matrix", "{}"]],
        ids=["config", "weights-matrices", "pipeline-matrices", "data", "matrix"],
    )
    def test_undecodable_file_is_data_error(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes('{"r\u00e9sum\u00e9": 1}'.encode("latin-1"))
        assert cli_main([arg.format(path) for arg in command]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["runs", "population_size"])
    def test_oversized_config_count_is_data_error(self, key, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: 2**70}))
        assert cli_main(["--config", str(path), "pipeline"]) == 2
        assert f"{key} must be in [" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["pipeline"], ["tune", "--data", str(bundled_path("nasa93.arff"))]]
    )
    def test_unmapped_ordinal_level_is_data_error(self, command, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ordinal_values": {"nominal": 0.4}}))
        assert cli_main(["--config", str(path)] + command) == 2
        assert "no mapped value for ordinal level 'low'" in capsys.readouterr().err

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

        monkeypatch.setattr(anfis, "_ridge_fit", failing_solve)
        assert cli_main(["--config", quick_config_file] + command) == 3
        err = capsys.readouterr().err
        assert "injected solve failure" in err
        assert "objective failed at iteration 0:" in err

    @pytest.mark.parametrize(
        "command, target",
        [(["bench-ecsa", "--runs", "1"], "optimize"), (["pipeline"], "run_pipeline")],
    )
    def test_memory_error_is_data_error(self, command, target, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        assert cli_main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: out of memory") and err.count("\n") == 1

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
