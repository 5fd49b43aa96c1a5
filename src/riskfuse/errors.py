"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems are handled by the
argument parser; any package error exits with 3 when a ``NumericalError``
is on its ``__cause__`` chain (wrapping errors such as ``PipelineError``
keep the original as their cause) and with 2 otherwise.
"""


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
