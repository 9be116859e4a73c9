"""Price CSV ingestion, cleaning, min-max normalization and daily returns.

Input CSV contract: UTF-8 text, header exactly ``date,close``, one
ISO-8601 date (``YYYY-MM-DD``) and one decimal close per row, LF or CRLF
line endings. A close has no ``_`` digit separators, though ``float``
reads ``1_000`` as 1000.0. Rows are sorted by date on load; duplicate
dates are rejected rather than averaged so data problems surface early.

Loading takes two paths with one outcome. A strict pass reads a
well-formed body (ASCII, LF endings, every line ``YYYY-MM-DD,close``)
with numpy and C-level maps, no Python statement per row: it checks the
layout on the bytes, converts with ``date.fromisoformat`` and ``float``
as the per-line rules do, and checks finiteness, sign, order and
duplicates on arrays. Any body it does not accept, for whatever reason,
goes to the per-line rules, which accept what they accept (CR endings,
blank lines, padded fields, non-ASCII digits) and raise at the first
failing line. They are the only code that raises for a row, so the
error class, line number and message never depend on the path taken.

Returns are computed on the min-max normalized series, so the observation
at the price minimum maps to 0 and the return that divides by it is
dropped (and counted) instead of producing an infinity.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import (
    BadValueError,
    DegenerateSeriesError,
    DuplicateDateError,
    FormatError,
    InsufficientDataError,
    ParameterError,
    RowError,
)

# Denominators with |v| at or below this are treated as zero when forming
# returns; the affected return is skipped and counted, not emitted as inf.
ZERO_DENOM_EPS = 1e-12

# Below this many observations, returns and point clouds are degenerate.
MIN_OBSERVATIONS = 3

CSV_HEADER = "date,close"

CsvSource = Union[str, Path, IO[bytes], IO[str]]


@dataclass(frozen=True)
class PriceSeries:
    """Dated, ordered raw closing prices for one ticker."""

    ticker: str
    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "closes", closes)
        if closes.ndim != 1 or len(self.dates) != closes.shape[0]:
            raise ParameterError("dates and closes must be 1-D and equally long")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise ParameterError(f"dates must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return self.closes.shape[0]


@dataclass(frozen=True)
class ReturnSeries:
    """Daily returns of a normalized series, with dropped-return bookkeeping.

    ``dropped_count`` is the number of consecutive-pair returns that were
    skipped because the previous value was (numerically) zero.
    """

    ticker: str
    returns: np.ndarray
    dropped_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=np.float64))

    def __len__(self) -> int:
        return self.returns.shape[0]


def _read_text(source: CsvSource) -> tuple[str, str | None]:
    """Return (text, ticker-from-filename-or-None) for a path or open stream."""
    stem = None
    if isinstance(source, (str, Path)):
        path = Path(source)
        data, stem = path.read_bytes(), path.stem
    else:
        data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from exc
    return data, stem


def load_price_csv(source: CsvSource, ticker: str | None = None) -> PriceSeries:
    """Parse a ``date,close`` CSV into a PriceSeries sorted by date.

    ``source`` may be a filesystem path or an open text/binary stream.
    When ``ticker`` is omitted it defaults to the file stem (or "series"
    for anonymous streams).

    A well-formed body (ASCII, LF endings, every line ``YYYY-MM-DD,close``
    with valid, unique dates and finite closes > 0) is read in one
    vectorized pass. Any other body goes to the per-line rules, which
    accept what they accept and raise at the first failing line; they are
    the only code that raises for a row, so both paths give the same
    series, and every error is the per-line one.

    Raises:
        FormatError: bytes that are not UTF-8, or a missing or wrong header.
        RowError: a data row that does not parse (carries its line number).
        DuplicateDateError: the same date appears twice.
        BadValueError: a close that is non-finite or <= 0.
    """
    text, stem = _read_text(source)
    if ticker is None:
        ticker = stem or "series"

    header, _, body = text.partition("\n")
    header = header.rstrip("\r")
    if header != CSV_HEADER:
        raise FormatError(f"expected header {CSV_HEADER!r}, got {header!r}")

    dates, closes = _strict_rows(body) or _checked_rows(body.split("\n"))
    return PriceSeries(ticker=ticker, dates=dates, closes=closes)


def _strict_rows(body: str) -> tuple[tuple[dt.date, ...], np.ndarray] | None:
    """Rows of a well-formed body sorted by date, or None for any other body.

    None means only "not shown well-formed here": the caller then applies
    the per-line rules, which find and report the failure, if any.
    """
    core = body[:-1] if body.endswith("\n") else body
    if not core.isascii() or "\r" in core or "_" in core:
        return None
    b = np.frombuffer(core.encode("ascii"), dtype=np.uint8)
    ends = np.append(np.flatnonzero(b == ord("\n")), b.shape[0])
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(b == ord(","))
    # one comma per line, at offset 10 inside the line, so the split below
    # yields exactly the (date, close) pairs; blank lines fail here too
    if commas.shape != starts.shape or not np.array_equal(commas, starts + 10):
        return None
    dashes = (b[starts + 4] == ord("-")) & (b[starts + 7] == ord("-"))
    if (commas >= ends).any() or not dashes.all():
        return None
    fields = core.replace(",", "\n").split("\n")
    try:
        days = list(map(dt.date.fromisoformat, fields[0::2]))
        closes = np.array(list(map(float, fields[1::2])), dtype=np.float64)
    except ValueError:
        return None
    if not (np.isfinite(closes) & (closes > 0.0)).all():
        return None
    ordinals = np.fromiter(map(dt.date.toordinal, days), dtype=np.int64, count=len(days))
    if (np.diff(ordinals) > 0).all():
        return tuple(days), closes
    order = np.argsort(ordinals, kind="stable")
    if (np.diff(ordinals[order]) == 0).any():
        return None
    return tuple(map(days.__getitem__, order.tolist())), closes[order]


def _checked_rows(lines: list[str]) -> tuple[tuple[dt.date, ...], np.ndarray]:
    """The per-line rules: rows sorted by date, or the first failing line's error.

    ``lines`` are the body's lines; the first is line 2 of the file.
    """
    rows: list[tuple[dt.date, float]] = []
    seen: set[dt.date] = set()
    for line_no, raw in enumerate(lines, start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise RowError(line_no, f"expected 2 fields, got {len(parts)}")
        field = parts[0].strip()
        try:
            day = dt.date.fromisoformat(field)
        except ValueError as exc:
            raise RowError(line_no, f"bad date {parts[0]!r}: {exc}") from exc
        # 3.11's fromisoformat also takes 20240102 and 2024-W01-2; of its
        # spellings only YYYY-MM-DD is 10 long with '-' at 4 and 7
        if len(field) != 10 or field[4] != "-" or field[7] != "-":
            raise RowError(line_no, f"bad date {parts[0]!r}: expected YYYY-MM-DD")
        if "_" in parts[1]:
            raise RowError(line_no, f"bad close {parts[1]!r}")
        try:
            close = float(parts[1])
        except ValueError as exc:
            raise RowError(line_no, f"bad close {parts[1]!r}") from exc
        if not math.isfinite(close):
            raise BadValueError(f"line {line_no}: close must be finite, got {parts[1]!r}")
        if close <= 0.0:
            raise BadValueError(f"line {line_no}: close must be > 0, got {close}")
        if day in seen:
            raise DuplicateDateError(f"line {line_no}: duplicate date {day.isoformat()}")
        seen.add(day)
        rows.append((day, close))

    rows.sort(key=lambda r: r[0])
    return tuple(r[0] for r in rows), np.array([r[1] for r in rows], dtype=np.float64)


def clean_series(series: PriceSeries) -> tuple[PriceSeries, int]:
    """Drop observations with non-finite closes, preserving order.

    Returns the cleaned series together with the number of removed rows.
    Raises InsufficientDataError if fewer than MIN_OBSERVATIONS survive.
    """
    keep = np.isfinite(series.closes)
    removed = int((~keep).sum())
    if int(keep.sum()) < MIN_OBSERVATIONS:
        raise InsufficientDataError(
            f"{series.ticker}: {int(keep.sum())} finite observations, need >= {MIN_OBSERVATIONS}"
        )
    if removed == 0:
        return series, 0
    dates = tuple(d for d, ok in zip(series.dates, keep) if ok)
    return PriceSeries(series.ticker, dates, series.closes[keep]), removed


def normalize(series: PriceSeries) -> np.ndarray:
    """Min-max normalized closes (P_t - min P) / (max P - min P), attaining 0 and 1."""
    if len(series) < MIN_OBSERVATIONS:
        raise InsufficientDataError(
            f"{series.ticker}: {len(series)} observations, need >= {MIN_OBSERVATIONS}"
        )
    lo = float(series.closes.min())
    hi = float(series.closes.max())
    if hi == lo:
        raise DegenerateSeriesError(f"{series.ticker}: constant series, min == max == {lo}")
    if not math.isfinite(hi - lo):
        raise BadValueError(f"{series.ticker}: price range {lo} to {hi} is not a finite float")
    return (series.closes - lo) / (hi - lo)


def compute_returns(values: np.ndarray, ticker: str = "series") -> ReturnSeries:
    """Daily returns R_t = (v_t - v_{t-1}) / v_{t-1} of normalized values, named ``ticker``.

    Pairs whose denominator satisfies |v_{t-1}| <= ZERO_DENOM_EPS are
    skipped and counted in ``dropped_count``. Raises ParameterError unless
    the values are 1-D, InsufficientDataError when fewer than 2 or all dropped.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ParameterError(f"{ticker}: values must be 1-D, got shape {v.shape}")
    if v.shape[0] < 2:
        raise InsufficientDataError(f"{ticker}: need >= 2 values to form returns")
    prev = v[:-1]
    ok = np.abs(prev) > ZERO_DENOM_EPS
    dropped = int((~ok).sum())
    returns = (v[1:][ok] - prev[ok]) / prev[ok]
    if returns.shape[0] == 0:
        raise InsufficientDataError(f"{ticker}: all returns dropped (zero denominators)")
    return ReturnSeries(ticker, returns, dropped)
