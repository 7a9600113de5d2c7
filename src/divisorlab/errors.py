"""Shared exception types.

Plain ValueError is used for ordinary bad arguments; the classes here mark
failure modes a caller may want to route differently (CLI exit codes map
onto them).
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds a documented size or memory bound."""


class TableFormatError(ValueError):
    """A data file violated its format contract.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AccuracyError(ArithmeticError):
    """Arguments lie outside the range where the accuracy target holds."""


class PoleError(ZeroDivisionError):
    """Evaluation requested exactly at a pole."""
