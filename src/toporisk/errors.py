"""Exception hierarchy shared across the package, and the parameter rules.

Every error raised by library code derives from ``TopoRiskError`` so callers
can catch one type at the pipeline boundary while tests can assert on the
specific failure class. ``check_param`` applies the one rule each named
parameter has, and ``as_array`` and ``check_vector`` read array inputs,
each raising ``ParameterError`` when a value breaks its rule.
"""

from __future__ import annotations

import math
import numbers
from typing import Any


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


# name -> (accepted kind, range test, wording); bool is never accepted. The seed
# must be a Python int, because SplitMix64's masks need one.
PARAMETER_RULES = {
    "alpha": (numbers.Real, lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "window": (numbers.Integral, lambda v: v >= 1, "be an integer >= 1"),
    "stride": (numbers.Integral, lambda v: v >= 1, "be an integer >= 1"),
    "max_dim": (numbers.Integral, lambda v: 0 <= v <= 2, "be 0, 1 or 2"),
    "threshold": (
        numbers.Real, lambda v: math.isfinite(v) and v >= 0, "be a finite number >= 0 or None"
    ),
    "fraction": (numbers.Real, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "seed": (int, lambda v: 0 <= v < 1 << 64, "be an unsigned 64-bit integer"),
    "jobs": (numbers.Integral, lambda v: v >= 1, "be an integer >= 1"),
}


def check_param(name: str, value: Any) -> int | float:
    """``value`` as a plain Python float (a real rule) or int, if it obeys ``name``'s rule."""
    kind, test, wording = PARAMETER_RULES[name]
    number = got = None
    if not isinstance(value, bool) and isinstance(value, kind):
        try:
            number = float(value)  # every rule, integral ones too, holds to float range
        except OverflowError:
            # repr may refuse this many digits; the bit length always prints
            got = f"a number beyond float range ({int(value).bit_length()} bits)"
        else:
            # + 0.0 turns -0.0 into 0.0, which a report writes alike
            number = number + 0.0 if kind is numbers.Real else int(value)
    # the rule is tested on the number returned, not on the value given
    if number is None or not test(number):
        raise ParameterError(f"{name} must {wording}, got {got or repr(value)}")
    return number


def as_array(name: str, values: Any, dtype: Any = "float64", what: str = "numbers") -> Any:
    """``np.asarray(values, dtype)``, or ParameterError saying ``name`` must be ``what``."""
    import numpy as np  # here, so that importing the error classes loads no numpy
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # not numbers, or ragged
        raise ParameterError(f"{name} must be {what}: {exc}") from exc


def check_vector(name: str, values: Any) -> Any:
    """``values`` as a 1-D float64 numpy array, or ParameterError naming ``name``."""
    vector = as_array(name, values, what="1-D numbers")
    if vector.ndim != 1:
        raise ParameterError(f"{name} must be 1-D, got shape {vector.shape}")
    return vector


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
