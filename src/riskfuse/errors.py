"""Exception hierarchy shared across the package, and the one reader of
JSON input files, which maps every way reading one fails to ``DataError``.

The CLI maps these onto exit codes: usage problems are handled by the
argument parser; any package error exits with 3 when a ``NumericalError``
is on its ``__cause__`` chain (wrapping errors such as ``PipelineError``
keep the original as their cause) and with 2 otherwise.
"""

import json
from pathlib import Path


class RiskfuseError(Exception):
    """Base class for all package-specific errors."""


class DataError(RiskfuseError, ValueError):
    """Malformed or inconsistent input data (files, matrices, configs)."""


class NumericalError(RiskfuseError, ArithmeticError):
    """Degenerate or numerically unsolvable input (singular matrix,
    all-zero judgments, vanished rule activations, ...)."""


class PipelineError(RiskfuseError):
    """A pipeline stage failed; carries the stage name for context."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")


def read_json(path: str | Path, what: str):
    """The JSON document in the UTF-8 file at ``path``, which may start
    with a byte-order mark; ``what`` names the file in a ``DataError``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise DataError(f"{what} file not readable: {path} ({exc.strerror})") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise DataError(f"{path}: {what} file is not UTF-8 JSON ({exc})") from exc
