"""Price CSV ingestion, cleaning, min-max normalization and daily returns.

Input CSV contract: UTF-8 text, header exactly ``date,close``, one
ISO-8601 date (``YYYY-MM-DD``) and one decimal close per row, LF or CRLF
line endings. A close has no ``_`` digit separators, though ``float``
reads ``1_000`` as 1000.0. Rows are sorted by date on load; duplicate
dates are rejected rather than averaged so data problems surface early.

Loading reads each file as one byte buffer and takes two paths with one
outcome. A strict pass reads a well-formed file (header ``date,close``,
ASCII, LF endings, every line ``YYYY-MM-DD,close``) from its bytes with
numpy, with no ``date`` per row: it checks the layout and the date's digits
and dashes, casts them (``S10``) to ``datetime64[D]``, reads each close with
one parser (a plain decimal, digits and at most one dot in up to 19 bytes,
in numpy to the float64 that ``float`` gives; any other close, and every
close where long double is only a double, with ``float`` on its bytes) and
checks finiteness, sign, order and duplicates on arrays. Only a file it does
not accept is decoded, for the per-line rules, which accept what they accept
(CR endings, blank lines, padded fields, non-ASCII digits) and raise at the
first failing line. They are the only code that raises for a row, so the
error class, line number and message never depend on the path taken.

Returns are computed on the min-max normalized series, so the observation
at the price minimum maps to 0 and the return that divides by it is
dropped, not made infinite; ``len(values) - 1 - len(returns)`` counts them.
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
    as_array,
    check_vector,
)

# Denominators with |v| at or below this are treated as zero when forming
# returns; the affected return is skipped, not emitted as inf.
ZERO_DENOM_EPS = 1e-12

# Below this many observations, returns and point clouds are degenerate.
MIN_OBSERVATIONS = 3

CSV_HEADER = "date,close"

CsvSource = Union[str, Path, IO[bytes], IO[str]]

# _closes divides in long double, which rounds correctly to a significand of
# 64 bits or more in x86-64's 80-bit format (nmant 63) and in IEEE binary128
# (112); where it is only a double (MSVC, macOS arm64) or a double-double,
# float() reads every close
_LONG_DOUBLE_64 = np.finfo(np.longdouble).nmant in (63, 112)

# the place of each group of four digits in a window of up to 20
_FOURS = np.array([10**16, 10**12, 10**8, 10**4, 1], dtype=np.uint64)

# by a field's shift (0 without a dot, 1 + k with k digits after it): its
# digits after the dot are s % _SPLIT (all of them without a dot), and its
# value is M / _SCALE
_SCALE = np.array([1] + [10**k for k in range(19)], dtype=np.uint64)
_SPLIT = np.array([10**19] + [10**k for k in range(19)], dtype=np.uint64)


@dataclass(frozen=True)
class PriceSeries:
    """Dated, ordered raw closing prices for one ticker; ``dates`` is ``datetime64[D]``."""

    ticker: str
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self):
        closes = check_vector("closes", self.closes)
        raw = as_array("dates", self.dates, None, "a 1-D sequence")
        # numpy's cast keeps an aware datetime's UTC day, with a warning
        if raw.dtype == object and any(
            isinstance(x, dt.datetime) and x.tzinfo is not None for x in raw.ravel()
        ):
            raise ParameterError("dates must be naive datetimes, got one with a time zone")
        # a kind other than date or datetime64 (the cast reads 5 as 1970-01-06) is refused as NaT
        kinds = set(map(type, raw.ravel())) if raw.dtype == object else {raw.dtype.type}
        known = raw.size == 0 or all(issubclass(k, (dt.date, np.datetime64)) for k in kinds)
        days = raw.astype("datetime64[D]", copy=False) if known else np.datetime64("NaT")
        if np.isnat(days).any():
            raise ParameterError("dates must be date objects or datetime64 values other than NaT")
        if days.ndim != 1 or days.shape != closes.shape:
            raise ParameterError("dates and closes must be 1-D and equally long")
        later = days[1:] <= days[:-1]
        if later.any():
            a, b = days[later.argmax():][:2]
            raise ParameterError(f"dates must be strictly increasing, got {a} then {b}")
        object.__setattr__(self, "dates", days)
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return self.closes.shape[0]


def load_price_csv(source: CsvSource, ticker: str | None = None) -> PriceSeries:
    """Parse a ``date,close`` CSV into a PriceSeries sorted by date.

    ``source`` may be a filesystem path or an open text/binary stream.
    When ``ticker`` is omitted it defaults to the file stem (or "series"
    for anonymous streams).

    The file is read as one byte buffer. A well-formed one (ASCII, LF
    endings, every line ``YYYY-MM-DD,close`` with valid, unique dates and
    finite closes > 0) is read from its bytes in one vectorized pass; any
    other is decoded for the per-line rules, which raise at the first
    failing line. They are the only code that raises for a row, so both
    paths give the same series, and every error is the per-line one.

    Raises:
        FormatError: bytes that are not UTF-8, or a missing or wrong header.
        RowError: a data row that does not parse (carries its line number).
        DuplicateDateError: the same date appears twice.
        BadValueError: a close that is non-finite or <= 0.
    """
    if isinstance(source, (str, Path)):
        data, stem = Path(source).read_bytes(), Path(source).stem
    else:
        data, stem = source.read(), "series"
    text = data if isinstance(data, str) else None
    if text is not None:  # only ASCII text can be well-formed, and it always encodes
        data = text.encode() if text.isascii() else b""
    rows = _strict_rows(data)
    if rows is None:
        if text is None:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"not UTF-8 text: {exc}") from exc
        header, _, body = text.partition("\n")
        header = header.rstrip("\r")
        if header != CSV_HEADER:
            raise FormatError(f"expected header {CSV_HEADER!r}, got {header!r}")
        rows = _checked_rows(body.split("\n"))
    return PriceSeries(stem if ticker is None else ticker, *rows)


def _strict_rows(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows of a well-formed file's bytes sorted by date, or None for any other file.

    None means only "not shown well-formed here": the caller then applies
    the per-line rules, which find and report the failure, if any.
    """
    if not data.startswith(b"date,close\n") or not data.isascii() or b"\r" in data or b"_" in data:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    # after the header's, one comma per line at offset 10, 11 past the line end
    # before it (a shorter line has a newline among its date bytes, refused below)
    if not np.array_equal(commas[1:], ends[:-1] + 11):
        return None
    commas, ends = commas[1:], ends[1:]
    text = _runs(b, 10)[commas - 10].view(np.uint8).reshape(-1, 10)
    digits = text[:, [0, 1, 2, 3, 5, 6, 8, 9]] - ord("0")
    dashes = text[:, [4, 7]] == ord("-")
    # the cast below also reads +024-01-02, " 024-01-02", year 0000 and
    # 2024101-02 (as year 2024101), which the per-line rules reject
    if (digits > 9).any() or not dashes.all() or not digits[:, :4].any(axis=1).all():
        return None
    try:
        days = text.view("S10")[:, 0].astype("datetime64[D]")
        closes = _closes(data, commas, ends)
    except ValueError:
        return None
    if not (np.isfinite(closes) & (closes > 0.0)).all():
        return None
    ordinals = days.view(np.int64)
    if (np.diff(ordinals) > 0).all():
        return days, closes
    order = np.argsort(ordinals, kind="stable")
    if (np.diff(ordinals[order]) == 0).any():
        return None
    return days[order], closes[order]


def _runs(buf: np.ndarray, width: int) -> np.ndarray:
    """Each run of ``width`` bytes of ``buf`` as one item of a view on it.

    Indexed by start offsets, it reads or writes each run with one copy,
    where a (start, column) index array moves byte by byte.
    """
    return np.ndarray((buf.size - width + 1,), f"V{width}", buf, strides=(1,))


def _closes(raw: bytes, commas: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """float() of each line's close field, bit for bit; ValueError where float() raises.

    ``raw`` is a file's bytes ending with a newline, ``commas`` the offset of
    each data line's comma (10, after its date) and ``ends`` of its newline.
    A plain decimal (ASCII digits and at most one dot that is not its first
    or last byte, in at most 19 bytes) is read in numpy: its digits without
    the dot form M < 10**19, and M / 10**k (k digits after the dot) is
    rounded once in long double, exactly with a 64-bit significand, then to
    float64. That second rounding differs from rounding the decimal directly
    only where the first lands on a midpoint of two float64s; those rows,
    every other field, and every field where long double is no wider than
    a double are read with float() on their bytes.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    widths = ends - commas - 1
    # the window: 4, 8, ... or 20 bytes ending at each newline, enough for a
    # 19-byte field; the header keeps every window inside the buffer
    width = min(20, max(4, (int(widths.max()) + 3) // 4 * 4))
    d = b - ord("0")
    _runs(d, 11)[commas - 10] = bytes(11)  # dates and commas count as digits 0
    odd = np.flatnonzero(d > 9)  # the newlines, dots and any other non-digit
    at = np.searchsorted(odd, commas)
    first = odd[at]  # the field's first odd byte, or its newline
    dot = b[first] == ord(".")
    shift = ends - first  # 0 without a dot, else 1 + the digits after it
    plain = (
        _LONG_DOUBLE_64  # else float() reads every close
        & (odd[at + dot] == ends)  # nothing but one dot before the newline
        & (shift != 1) & (shift < widths)  # nor a dot at either end, nor an empty field
        # nor a field whose window reaches the line before, nor one too long
        & (widths >= width - 11) & (widths <= 19)
    )
    shift *= plain  # any other row reads as one without a dot
    d[first[dot]] = 0
    x = _runs(d, width)[ends - width].view(np.uint8).reshape(-1, width)
    # the digits two by two (at most 99, in uint8), then four by four (9999)
    x = x[:, 0::2] * 10 + x[:, 1::2]
    x = x[:, 0::2].astype(np.uint16) * 100 + x[:, 1::2]
    s = np.dot(x, _FOURS[-x.shape[1]:])
    tail = s % _SPLIT[shift]
    q = ((s - tail) // 10 + tail).astype(np.longdouble) / _SCALE[shift]
    closes = q.astype(np.float64)
    # q rounds to a wrong float64 only from a midpoint, where q - closes is
    # half the step to the other neighbour, the float64 closes + 2 (q - closes)
    half = (q - closes).astype(np.float64)
    plain &= (half == 0) | ((closes + 2 * half) - closes != 2 * half)
    redo = np.flatnonzero(~plain)
    closes[redo] = [
        float(raw[i:j])
        for i, j in zip((commas[redo] + 1).tolist(), ends[redo].tolist())
    ]
    return closes


def _checked_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
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
    return np.array([r[0] for r in rows], "datetime64[D]"), np.array([r[1] for r in rows])


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
    return PriceSeries(series.ticker, series.dates[keep], series.closes[keep]), removed


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


def compute_returns(values: np.ndarray, ticker: str = "series") -> np.ndarray:
    """Daily returns R_t = (v_t - v_{t-1}) / v_{t-1} of normalized values, a float64 array.

    Pairs with |v_{t-1}| <= ZERO_DENOM_EPS are skipped: len(values) - 1 -
    len(returns) of them. Errors name ``ticker``: ParameterError unless the
    values are 1-D finite numbers, InsufficientDataError when fewer than 2 or all dropped.
    """
    v = check_vector(f"{ticker}: values", values)
    if not np.isfinite(v).all():
        raise ParameterError(f"{ticker}: values must be finite")
    if v.shape[0] < 2:
        raise InsufficientDataError(f"{ticker}: need >= 2 values to form returns")
    prev = v[:-1]
    ok = np.abs(prev) > ZERO_DENOM_EPS
    with np.errstate(over="ignore"):  # an overflow is refused below
        returns = (v[1:][ok] - prev[ok]) / prev[ok]
    if returns.shape[0] == 0:
        raise InsufficientDataError(f"{ticker}: all returns dropped (zero denominators)")
    if not np.isfinite(returns).all():
        raise ParameterError(f"{ticker}: returns overflow the float range")
    return returns
