"""Command-line interface.

Subcommands:
    weights     DEMATEL criterion weights from respondent judgments
    tune        per-fold ANFIS tuning metrics (RMSE / MAPE)
    rank        IF-TOPSIS ranking of an already-weighted IF matrix
    pipeline    the full risk-evaluation run
    bench-ecsa  optimizer benchmark harness (sphere / rastrigin)

Exit codes: 0 success, 1 usage error, 2 data error (running out of memory
included), 3 numerical failure.
``RISKFUSE_SEED`` provides a seed fallback when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, _scale_from_dict, load_config
from .dataset import FeatureMapping, bundled_path, default_catalog, load_dataset
from .dematel import aggregate_responses, evaluate as dematel_evaluate
from .ecsa import (
    BENCHMARKS, MAX_COUNT, EcsaConfig, classical_csa, is_real, optimize, random_search,
)
from .errors import DataError, NumericalError, RiskfuseError, read_json
from .fuzzy import LinguisticScale
from .pipeline import cross_validate, prepare_samples, run_pipeline
from .reporting import emit_report
from .topsis import CriterionKind, IfDecisionMatrix, rank_weighted


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """A positive integer that numpy can size an array axis by."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer of at most {MAX_COUNT}, got {text!r}"
        )
    return value


def _format_vector(values) -> str:
    return "[" + ", ".join(str(float(v)) for v in values) + "]"


def _resolve_seed(args, default: int) -> int:
    """``--seed``, else ``RISKFUSE_SEED``, else ``default``; never negative."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("RISKFUSE_SEED")
        if env is None:
            return default
        try:
            seed = int(env)
        except ValueError:
            raise DataError(f"RISKFUSE_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return seed


def _load_pipeline_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    return replace(config, seed=_resolve_seed(args, config.seed))


def _check_names(values, n: int, what: str) -> list[str] | None:
    """``values`` when absent (None) or a list of ``n`` strings."""
    if values is not None and not (
        isinstance(values, list) and len(values) == n and all(isinstance(v, str) for v in values)
    ):
        raise DataError(f"{what} must be a list of {n} strings")
    return values


def _load_matrices(path: Path, scale: LinguisticScale):
    """Respondent matrices JSON: one grid per respondent, optional
    criterion names and an optional scale, which replaces ``scale``."""
    payload = read_json(path, "matrices")
    if not (isinstance(payload, dict) and "respondents" in payload):
        raise DataError(f"{path}: expected a JSON object with a 'respondents' list")
    if "scale" in payload:
        scale = _scale_from_dict(payload["scale"])
    return payload["respondents"], scale, payload.get("criteria")


def _cmd_weights(args) -> int:
    config = _load_pipeline_config(args)
    matrices, scale, criteria = _load_matrices(Path(args.matrices), config.scale)
    s = aggregate_responses(matrices, scale)
    criteria = _check_names(criteria, len(s), "criteria")
    result = dematel_evaluate(s)
    if criteria:
        print("criteria:", ", ".join(criteria))
    print("w =", _format_vector(result.weights))
    if args.out:
        payload = {
            "criteria": criteria,
            "weights": result.weights.tolist(),
            "normalized_relation": result.q.tolist(),
            "total_relation": result.t.tolist(),
            "prominence": result.prominence.tolist(),
            "relation": result.relation.tolist(),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_tune(args) -> int:
    config = _load_pipeline_config(args)
    records = load_dataset(args.data, args.data_format)
    catalog = default_catalog()
    mapping = FeatureMapping.fit(records, config.ordinal_values, config.missing_value)
    samples, _, _ = prepare_samples(records, catalog, mapping, config.anfis_inputs)

    for index, tuning in enumerate(cross_validate(samples, config).tunings):
        print(
            f"fold {index}: train_rmse={tuning.train_rmse:.6f} "
            f"test_rmse={tuning.test_rmse:.6f} test_mape={tuning.test_mape:.2f}% "
            f"(base train_rmse={tuning.base_train_rmse:.6f})"
        )
    return 0


def _if_cell(cell) -> list:
    """A JSON (mu, nu[, pi]) cell of finite numbers; pi defaults to 1 - mu - nu."""
    if not (isinstance(cell, list) and len(cell) in (2, 3) and all(map(is_real, cell))):
        raise ValueError(f"cell {cell!r} is not a list of 2 or 3 finite numbers")
    return cell if len(cell) == 3 else [*cell, 1.0 - cell[0] - cell[1]]


def _cmd_rank(args) -> int:
    path = Path(args.matrix)
    payload = read_json(path, "matrix")
    try:
        kinds = tuple(CriterionKind(k) for k in payload["criteria_kinds"])
        cells = np.array([[_if_cell(c) for c in row] for row in payload["cells"]], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed weighted IF matrix ({exc})") from exc
    matrix = IfDecisionMatrix(rows=cells, criteria_kinds=kinds)
    n = len(cells)
    names = _check_names(payload.get("names"), n, "names") or [f"A{i}" for i in range(n)]
    xi, ranking = rank_weighted(matrix.rows, matrix.benefit)
    print("xi =", _format_vector(xi))
    print("ranking:", " > ".join(names[i] for i in ranking))
    return 0


def _cmd_pipeline(args) -> int:
    config = _load_pipeline_config(args)
    data_path = Path(args.data) if args.data else bundled_path("nasa93.arff")
    matrices_path = Path(args.matrices) if args.matrices else bundled_path("respondents.json")
    records = load_dataset(data_path, args.data_format)
    matrices, scale, _ = _load_matrices(matrices_path, config.scale)
    report = run_pipeline(records, matrices, replace(config, scale=scale))

    print("criteria:", ", ".join(report.criteria))
    print("w =", _format_vector(report.weights))
    print("f =", _format_vector(report.potential_scores))
    print("xi =", _format_vector(report.closeness))
    print("ranking:", " > ".join(report.criteria[i] for i in report.ranking))
    print("P_out =", report.p_out)
    if args.out:
        written = emit_report(report, args.format, args.out)
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_bench_ecsa(args) -> int:
    functions = list(BENCHMARKS) if args.function == "both" else [args.function]
    seed = _resolve_seed(args, 0)
    rows = []
    for name in functions:
        objective = BENCHMARKS[name]
        run_seeds = np.random.SeedSequence(seed).generate_state(args.runs)
        ecsa_best, csa_best, rand_best = [], [], []
        for run, run_seed in enumerate(run_seeds):
            ecsa_config = EcsaConfig(
                bounds=((-5.12, 5.12),) * args.dimensions,
                population_size=args.population,
                max_iterations=args.iterations,
                seed=int(run_seed),
            )
            result = optimize(objective, ecsa_config)
            baseline = classical_csa(objective, ecsa_config)
            sampler = random_search(objective, ecsa_config)
            ecsa_best.append(result.metadata["best_objective"])
            csa_best.append(baseline.metadata["best_objective"])
            rand_best.append(sampler.metadata["best_objective"])
            rows.append(
                [name, run, int(run_seed), ecsa_best[-1], csa_best[-1], rand_best[-1]]
            )
        print(
            f"{name}: median ECSA={statistics.median(ecsa_best):.6g} "
            f"classical CSA={statistics.median(csa_best):.6g} "
            f"random={statistics.median(rand_best):.6g} over {args.runs} runs"
        )
    if args.out:
        with Path(args.out).open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(
                ["function", "run", "seed", "ecsa_best", "classical_csa_best", "random_best"]
            )
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskfuse", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    weights = sub.add_parser("weights", help="DEMATEL weights from judgment matrices")
    weights.add_argument("--matrices", required=True, help="respondent matrices JSON")
    weights.set_defaults(func=_cmd_weights)

    tune = sub.add_parser("tune", help="per-fold ANFIS + ECSA tuning metrics")
    tune.add_argument("--data", required=True, help="dataset file (CSV or ARFF)")
    tune.add_argument("--data-format", choices=("csv", "arff"), default=None)
    tune.set_defaults(func=_cmd_tune)

    rank = sub.add_parser("rank", help="IF-TOPSIS ranking of a weighted matrix")
    rank.add_argument("--matrix", required=True, help="weighted IF matrix JSON")
    rank.set_defaults(func=_cmd_rank)

    pipe = sub.add_parser("pipeline", help="full risk-evaluation run")
    pipe.add_argument("--data", default=None, help="dataset file (bundled fixture if omitted)")
    pipe.add_argument("--data-format", choices=("csv", "arff"), default=None)
    pipe.add_argument(
        "--matrices", default=None, help="respondent matrices JSON (bundled if omitted)"
    )
    pipe.set_defaults(func=_cmd_pipeline)

    bench = sub.add_parser("bench-ecsa", help="optimizer benchmark harness")
    bench.add_argument("--function", choices=("sphere", "rastrigin", "both"), default="sphere")
    bench.add_argument("--runs", type=_count, default=20)
    bench.add_argument("--dimensions", type=_count, default=5)
    bench.add_argument("--population", type=_count, default=EcsaConfig.population_size)
    bench.add_argument("--iterations", type=_count, default=EcsaConfig.max_iterations)
    bench.set_defaults(func=_cmd_bench_ecsa)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        return args.func(args)
    except (RiskfuseError, OSError) as exc:
        if _numerical_cause(exc):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("data error: out of memory; the inputs or counts are too large", file=sys.stderr)
        return 2


def _numerical_cause(exc: BaseException | None) -> bool:
    """True when ``exc`` or an exception on its ``__cause__`` chain is a
    ``NumericalError``."""
    while exc is not None:
        if isinstance(exc, NumericalError):
            return True
        exc = exc.__cause__
    return False


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
