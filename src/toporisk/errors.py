"""Exception hierarchy shared across the package.

Every error raised by library code derives from ``TopoRiskError`` so callers
can catch one type at the pipeline boundary while tests can assert on the
specific failure class.
"""

from __future__ import annotations


class TopoRiskError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TopoRiskError):
    """Input file structure is wrong (e.g. bad CSV header)."""


class RowError(FormatError):
    """A CSV data row could not be parsed. Carries the 1-based line number."""

    # ``args`` holds the constructor's arguments, so pickling round-trips
    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no = line_no

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.args[1]}"


class DuplicateDateError(TopoRiskError):
    """Two observations share the same calendar date."""


class BadValueError(TopoRiskError):
    """A numeric field is outside its allowed range (non-finite, <= 0, ...)."""


class InsufficientDataError(TopoRiskError):
    """Too few observations survive to run the requested computation."""


class DegenerateSeriesError(TopoRiskError):
    """A constant price series cannot be min-max normalized (zero range)."""


class ParameterError(TopoRiskError):
    """A caller-supplied parameter violates its documented range or shape."""


class InternalInvariantError(TopoRiskError):
    """A data structure violates an invariant it promised to uphold."""


class PipelineError(TopoRiskError):
    """Wraps an upstream error with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(stage, cause)
        self.stage = stage
        # set here too, so the cause survives pickling, which drops __cause__
        self.__cause__ = cause

    def __str__(self) -> str:
        return f"stage {self.stage}: {self.args[1]}"
