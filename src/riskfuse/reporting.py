"""Risk report serialization.

JSON reports are single documents with stable key order and lossless
round-trips.  CSV reports are three tables (criterion weights, factor
scores with closeness and rank, tuning run statistics) written next to
each other with a shared stem.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import DataError, read_json
from .pipeline import RiskReport


def report_to_json(report: RiskReport) -> str:
    """Serialize a report to a stable-key-order JSON document."""
    return json.dumps(report.to_dict(), indent=2)


def _csv_paths(path: Path) -> dict[str, Path]:
    stem = path.with_suffix("")
    return {
        "weights": stem.with_name(stem.name + ".weights.csv"),
        "ranking": stem.with_name(stem.name + ".ranking.csv"),
        "runs": stem.with_name(stem.name + ".runs.csv"),
    }


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report: RiskReport, format: str, path: str | Path) -> list[Path]:
    """Write a report to disk.

    ``json`` produces one document at ``path``.  ``csv`` produces three
    files sharing the path's stem: ``<stem>.weights.csv``,
    ``<stem>.ranking.csv`` and ``<stem>.runs.csv``.

    Returns:
        The paths written.
    """
    path = Path(path)
    try:
        if format == "json":
            path.write_text(report_to_json(report) + "\n")
            return [path]
        if format == "csv":
            paths = _csv_paths(path)
            _write_csv(
                paths["weights"],
                ["criterion", "weight"],
                [[c, w] for c, w in zip(report.criteria, report.weights)],
            )
            rank_of = {factor: position for position, factor in enumerate(report.ranking)}
            _write_csv(
                paths["ranking"],
                ["factor", "potential_score", "closeness", "rank"],
                [
                    [c, report.potential_scores[i], report.closeness[i], rank_of[i] + 1]
                    for i, c in enumerate(report.criteria)
                ],
            )
            columns = ["run", "seed", "best_fitness", "test_rmse"]
            _write_csv(
                paths["runs"],
                columns,
                [[run[c] for c in columns] for run in report.metadata.get("run_stats", [])],
            )
            return list(paths.values())
    except OSError as exc:
        raise DataError(f"cannot write report to {path}: {exc}") from exc
    raise DataError(f"unsupported report format {format!r} (json or csv)")


def read_report(path: str | Path) -> RiskReport:
    """Read back a JSON report."""
    return RiskReport.from_dict(read_json(path, "report"))
