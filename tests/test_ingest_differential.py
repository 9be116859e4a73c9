"""Differential test of load_price_csv against the per-row loader it replaced.

``reference_load`` is the loader's earlier body, a Python loop over every
row, kept here verbatim but for one later rule (a close with a ``_``
digit separator, which ``float`` reads, is a bad close) and sharing no
code with ``toporisk.ingest``. On every file of the corpus below both
must give the same outcome: the same exception class, line number and
message, or the same dates, compared as tuples of ``date``, and
byte-equal closes. The corpus mixes named cases (CR endings, blank and
padded lines, odd numbers and dates) with seeded single-character edits
of a well-formed file, so it reaches both the strict pass and the
per-line rules.
"""

from __future__ import annotations

import datetime as dt
import decimal
import inspect
import io
import math
import random
import textwrap

import numpy as np
import pytest

from toporisk import ingest, load_price_csv
from toporisk.errors import (
    BadValueError,
    DuplicateDateError,
    FormatError,
    RowError,
)

CSV_HEADER = "date,close"


def reference_load(text: str):
    lines = text.split("\n")
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        got = lines[0].rstrip("\r") if lines else ""
        raise FormatError(f"expected header {CSV_HEADER!r}, got {got!r}")

    rows: list[tuple[dt.date, float]] = []
    seen: set[dt.date] = set()
    for line_no, raw in enumerate(lines[1:], start=2):
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
    return (
        tuple(r[0] for r in rows),
        np.array([r[1] for r in rows], dtype=np.float64),
    )


def outcome(load, text: str):
    """("ok", date tuple, close bytes) or ("error", class, line_no, message)."""
    try:
        dates, closes = load(text)
    except Exception as exc:
        return ("error", type(exc), getattr(exc, "line_no", None), str(exc))
    # a datetime64[D] array lists as date objects; any other unit would not
    days = tuple(np.asarray(dates).tolist())
    return ("ok", days, np.asarray(closes, dtype=np.float64).tobytes())


def library_load(text: str):
    series = load_price_csv(io.StringIO(text))
    return series.dates, series.closes


def library_load_bytes(text: str):
    series = load_price_csv(io.BytesIO(text.encode("utf-8")))
    return series.dates, series.closes


def csv_text(rows) -> str:
    return "\n".join([CSV_HEADER, *(f"{d},{c}" for d, c in rows)]) + "\n"


BASE_ROWS = [
    ("2024-01-02", "100.0"),
    ("2024-01-03", "101.25"),
    ("2024-01-04", "99.5"),
    ("2024-01-05", "102.0"),
    ("2024-01-08", "98.75"),
]
BASE = csv_text(BASE_ROWS)


def with_row(index: int, line: str) -> str:
    """BASE with data row ``index`` (line index + 2) replaced by ``line``."""
    lines = BASE.split("\n")
    lines[index + 1] = line
    return "\n".join(lines)


def with_close(index: int, close: str) -> str:
    return with_row(index, f"{BASE_ROWS[index][0]},{close}")


def with_date(index: int, date: str) -> str:
    return with_row(index, f"{date},{BASE_ROWS[index][1]}")


def with_closes(*closes: str) -> str:
    """A file of BASE's first dates with the closes given."""
    return csv_text(zip((d for d, _ in BASE_ROWS), closes))


def midpoint(a: float, b: float) -> str:
    """The exact decimal halfway between two floats."""
    ctx = decimal.Context(prec=80)
    return format(ctx.divide(ctx.add(decimal.Decimal(a), decimal.Decimal(b)), 2), "f")


AFTER_100 = float(np.nextafter(100.0, 200.0))


# the cases the per-row loader accepts; each must stay accepted
ACCEPTED = {
    "well formed": BASE,
    "crlf": BASE.replace("\n", "\r\n"),
    "cr cr lf": BASE.replace("\n", "\r\r\n"),
    "blank line": BASE.replace("\n2024-01-04", "\n\n2024-01-04"),
    "blank line first": BASE.replace("close\n", "close\n\n"),
    "blank lines last": BASE + "\n\n",
    "whitespace-only line": BASE.replace("\n2024-01-04", "\n\x1c\n2024-01-04"),
    "no final newline": BASE[:-1],
    "header only": CSV_HEADER + "\n",
    "header without newline": CSV_HEADER,
    "space before date": with_date(2, " 2024-01-04"),
    "space after date": with_date(2, "2024-01-04 "),
    "space before close": with_close(2, " 99.5"),
    "space after close": with_close(2, "99.5 "),
    "tab around both fields": with_row(2, "\t2024-01-04\t,\t99.5\t"),
    "cr before the comma": with_row(2, "2024-01-04\r,99.5"),
    "arabic-indic close": with_close(1, "١٠٠"),
    "out of order": csv_text([BASE_ROWS[3], BASE_ROWS[0], BASE_ROWS[4], *BASE_ROWS[1:3]]),
    "reversed": csv_text(BASE_ROWS[::-1]),
    "exponent close": with_close(0, "1e2"),
    "leap day": with_date(0, "2024-02-29"),
    "leap day 2000": with_date(0, "2000-02-29"),
    # the closes below all reach the strict pass: plain decimals, which
    # ingest._closes reads in numpy unless its long double quotient lands on
    # a float64 midpoint, beside fields it hands to float()
    "17-digit repr closes": with_closes(
        "0.30000000000000004", "101.23456789012345", "1.0000000000000002",
        "99.999999999999986", "12345.678901234567",
    ),
    "19-digit mantissas": with_closes(
        "1234567890123456789", "9999999999999999999", "1000000000000000001",
        "0.00000000000000001", "123456789.012345678",
    ),
    # 8648.11881568055378 lies just off a float64 midpoint, onto which an
    # 80-bit long double quotient rounds
    "19-byte decimals near float64 midpoints": with_closes(
        "8648.11881568055378", "6746.90941988511031", "100.0", "100.5", "100.25",
    ),
    "20-byte close": with_closes("12345678901234567.89", "100.0", "1.5", "2.5", "3.5"),
    "decimal midpoints": with_closes(
        "9007199254740993", midpoint(100.0, AFTER_100),
        midpoint(AFTER_100, float(np.nextafter(AFTER_100, 200.0))), "100.0", "1.5",
    ),
    "1-byte close among 18-byte ones": with_closes(
        "101.23456789012345", "102.34567890123456", "7", "103.45678901234567",
        "104.56789012345678",
    ),
    "leading-dot close": with_close(2, ".5"),
    "trailing-dot close": with_close(2, "5."),
    "plus-signed close": with_close(2, "+1.5"),
    "blank before a decimal close": with_close(2, " 1.5"),
    "exponent 1e5 close": with_close(2, "1e5"),
}

# the named cases above from "17-digit repr closes" on
PLAIN_AND_ODD_CLOSES = list(ACCEPTED)[list(ACCEPTED).index("17-digit repr closes"):]

# non-digit bytes for each digit offset of a date; numpy's S10 -> datetime64
# cast reads several of them (a NUL ends the string: NaT at offset 0, year 2
# at offset 1; a sign, a blank or a tab pads the year)
DAY = BASE_ROWS[2][0]
NON_DIGITS = {0: "-\x00\t", 1: "\x00", 2: "\x00", 3: "a", 5: " ", 6: "+", 8: "T", 9: "\t"}

REJECTED = {
    "lone cr inside a date": with_date(2, "2024-01-\r04"),
    "space inside a close": with_close(2, "1 2"),
    "two dots in a close": with_close(2, "9.9.5"),
    "dot then exponent sign": with_close(2, "9.9-5"),
    "underscore close": with_close(1, "1_000"),
    "underscore inside a fraction": with_close(1, "2_0.5"),
    "extra comma": with_row(2, "2024-01-04,99.5,1"),
    "missing comma": with_row(2, "2024-01-04 99.5"),
    "bad row after blank lines": with_close(2, "abc").replace("close\n", "close\n\n\r\n"),
    "empty close": with_row(2, "2024-01-04,"),
    "overflowing close": with_close(2, "1e309"),
    "nan close": with_close(2, "nan"),
    "inf close": with_close(2, "inf"),
    "negative zero close": with_close(2, "-0.0"),
    "zero close": with_close(2, "0"),
    "negative close": with_close(2, "-3"),
    "duplicate date": with_date(3, "2024-01-02"),
    "duplicate before a bad row": with_close(4, "abc").replace("2024-01-04,", "2024-01-02,"),
    "duplicate after a bad row": with_close(1, "abc").replace("2024-01-05,", "2024-01-02,"),
    "duplicate before a later duplicate": with_date(3, "2024-01-03").replace(
        "2024-01-08,", "2024-01-02,"
    ),
    "compact date": with_date(2, "20240104"),
    "iso week date": with_date(2, "2024-W01-4"),
    "year zero": with_date(2, "0000-01-02"),
    "year zero, first day": with_date(2, "0000-01-01"),
    "signed year": with_date(2, "+024-01-02"),
    "blank-padded year": with_date(2, " 024-01-02"),
    "seven-digit year": with_date(2, "2024101-02"),
    "no leap day": with_date(2, "2023-02-29"),
    "no leap day 1900": with_date(2, "1900-02-29"),
    "month 13": with_date(2, "2024-13-01"),
    "day 32": with_date(2, "2024-01-32"),
    "utf-8 bom": "\ufeff" + BASE,
    "wrong header": BASE.replace("date,close", "Date,Close"),
    "empty file": "",
    "non-ascii date digit": with_date(2, "2024-01-0٤"),
    **{
        f"{char!r} at date offset {at}": with_date(2, DAY[:at] + char + DAY[at + 1:])
        for at, chars in NON_DIGITS.items()
        for char in chars
    },
}


def edited(seed: int) -> str:
    """BASE with one to three seeded single-character insertions, deletions
    or substitutions, drawn from characters the loader treats specially."""
    rng = random.Random(seed)
    alphabet = "0123456789,-.\r\n \x1c_eEnai+١"
    text = list(BASE)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(CSV_HEADER) + 1, len(text))
        kind = rng.randrange(3)
        if kind == 0:
            text.insert(at, rng.choice(alphabet))
        elif kind == 1:
            del text[at]
        else:
            text[at] = rng.choice(alphabet)
    return "".join(text)


def long_file(seed: int, rows: int = 2521) -> list[tuple[str, str]]:
    """A batch-sized file's rows: weekday dates and repr closes."""
    rng = np.random.RandomState(seed)
    closes = 100.0 * np.cumprod(1.0 + rng.normal(0.0004, 0.012, rows))
    day, out = dt.date(2014, 1, 2), []
    while len(out) < rows:
        if day.weekday() < 5:
            out.append((day.isoformat(), repr(float(closes[len(out)]))))
        day += dt.timedelta(days=1)
    return out


def spread_file(seed: int, rows: int = 2521) -> list[tuple[str, str]]:
    """A batch-sized file's rows: repr closes from 1e-6 to 1e12, with and
    without an exponent, a fifth of them rounded to cents, so 3 to 23 bytes
    wide and short fields next to long ones."""
    rng = np.random.RandomState(seed)
    days = [dt.date(2014, 1, 2) + dt.timedelta(days=i) for i in range(rows)]
    closes = 10.0 ** rng.uniform(-6.0, 12.0, rows)
    cents = rng.rand(rows) < 0.2
    closes[cents] = np.round(closes[cents], 2) + 0.01
    return [(d.isoformat(), repr(float(c))) for d, c in zip(days, closes)]


def corpus() -> dict[str, str]:
    cases = {**ACCEPTED, **REJECTED}
    cases.update((f"edit {seed}", edited(seed)) for seed in range(400))
    rows = long_file(7)
    shuffled = rows[:]
    random.Random(7).shuffle(shuffled)
    cases["long"] = csv_text(rows)
    cases["long shuffled"] = csv_text(shuffled)
    cases["long duplicate near the end"] = csv_text(rows + [rows[5]])
    cases["long bad close near the end"] = csv_text(rows[:-1] + [(rows[-1][0], "nan")])
    cases["long spread of magnitudes"] = csv_text(spread_file(11))
    return cases


def mismatches(cases: dict[str, str]) -> list[str]:
    bad = []
    for name, text in cases.items():
        want = outcome(reference_load, text)
        for load in (library_load, library_load_bytes):
            if outcome(load, text) != want:
                bad.append(f"{name} ({load.__name__})")
    return bad


def test_loader_matches_the_per_row_reference():
    assert mismatches(corpus()) == []


def test_corpus_keeps_each_case_in_its_class():
    for name, text in ACCEPTED.items():
        assert outcome(reference_load, text)[0] == "ok", name
    for name, text in REJECTED.items():
        assert outcome(reference_load, text)[0] == "error", name
    edits = [outcome(reference_load, edited(seed))[0] for seed in range(400)]
    assert edits.count("ok") >= 25 and edits.count("error") >= 25


def strict(text: str):
    return ingest._strict_rows(text.encode())


def test_strict_pass_takes_well_formed_files_only():
    # the named cases that reach the vectorized path, so a fall back to the
    # per-line rules for every file would not pass unnoticed
    for name in ("well formed", "no final newline", "out of order", "reversed",
                 "space before close", "exponent close", *PLAIN_AND_ODD_CLOSES):
        assert strict(ACCEPTED[name]) is not None, name
    assert strict(csv_text(spread_file(11))) is not None
    for name in ("crlf", "blank line", "whitespace-only line", "space before date",
                 "arabic-indic close", "header only"):
        assert strict(ACCEPTED[name]) is None, name
    for name, text in REJECTED.items():
        if outcome(reference_load, text)[1] is not FormatError:
            assert strict(text) is None, name


class PerLineRulesReached(Exception):
    pass


def test_every_kind_of_source_reaches_the_strict_pass(monkeypatch, tmp_path):
    def refuse(lines):
        raise PerLineRulesReached

    monkeypatch.setattr(ingest, "_checked_rows", refuse)
    path = tmp_path / "T.csv"
    path.write_bytes(BASE.encode())
    want = outcome(reference_load, BASE)
    for source in (path, io.BytesIO(BASE.encode()), io.StringIO(BASE)):
        series = load_price_csv(source)
        assert ("ok", tuple(series.dates.tolist()), series.closes.tobytes()) == want, source
    # a CRLF or non-ASCII text stream still goes to the per-line rules
    for name in ("crlf", "arabic-indic close"):
        with pytest.raises(PerLineRulesReached):
            load_price_csv(io.StringIO(ACCEPTED[name]))


def test_bytes_that_are_not_utf8_are_refused_before_the_header(tmp_path):
    # a wrong header and a bad byte: the error is the decode's, at its offset in the file
    data = b"price,close\n2024-01-02,1.0\n2024-01-03,\xff2.0\n"
    path = tmp_path / "T.csv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data)):
        with pytest.raises(FormatError, match=r"^not UTF-8 text: .* byte 0xff in position 38:"):
            load_price_csv(source)
    assert data.index(b"\xff") == 38


def _mutant(old: str, new: str):
    """(name, function) for the one of _strict_rows and _closes whose source
    holds ``old``, with it replaced by ``new``, in ingest's namespace."""
    [name] = [name for name in ("_strict_rows", "_closes")
              if old in inspect.getsource(getattr(ingest, name))]
    source = textwrap.dedent(inspect.getsource(getattr(ingest, name)))
    namespace = dict(vars(ingest))
    exec(compile(source.replace(old, new), ingest.__file__, "exec"), namespace)
    return name, namespace[name]


@pytest.mark.parametrize("old, new", [
    # no duplicate check
    ("if (np.diff(ordinals[order]) == 0).any():", "if False:"),
    # no sign or finiteness check
    ("if not (np.isfinite(closes) & (closes > 0.0)).all():", "if False:"),
    # no check of the '-' offsets, so 2024101-02 reads as year 2024101
    ("not dashes.all()", "False"),
    # no digit check, so +024-01-02 reads as year 24
    ("(digits > 9).any() or ", ""),
    # no year-0000 rule, so 0000-01-01 reads as a date
    (" or not digits[:, :4].any(axis=1).all()", ""),
    # no sort
    ("if (np.diff(ordinals) > 0).all():", "if True:"),
    # no underscore scan, so 1_000 reads as 1000.0
    (' or b"_" in data', ""),
    # _closes: no midpoint re-parse, so a long double quotient that lands on
    # a float64 midpoint rounds to even, off the decimal's nearest float
    ("(half == 0) | ((closes + 2 * half) - closes != 2 * half)", "True"),
    # no short-field re-parse, so a window reads the previous line's close
    ("& (widths >= width - 11) ", ""),
    # no two-dot re-parse: a dot first passes whatever follows it
    ("(odd[at + dot] == ends)", "((odd[at] == ends) | dot)"),
])
def test_differential_test_catches_a_broken_strict_pass(monkeypatch, old, new):
    monkeypatch.setattr(ingest, *_mutant(old, new))
    assert mismatches(corpus()) != []


def test_strict_pass_reads_every_day_as_fromisoformat_does():
    spellings = []
    for year in (1900, 2000, 2023, 2024):
        for month in range(1, 13):
            for day in range(1, 32):
                spelling = f"{year}-{month:02d}-{day:02d}"
                try:
                    dt.date.fromisoformat(spelling)
                except ValueError:
                    continue
                spellings.append(spelling)
    assert len(spellings) == 365 + 366 + 365 + 366
    days, closes = strict(csv_text((s, "1.0") for s in spellings))
    assert days.tolist() == list(map(dt.date.fromisoformat, spellings))
    assert closes.tolist() == [1.0] * len(spellings)


def bulk_fields(seed: int, count: int) -> list[str]:
    """Positive closes float() reads, of kinds that stress a decimal parser:
    repr'd floats, random decimals of 1 to 19 digits, fixed-point, exact
    decimal midpoints of adjacent floats and their 19-byte cuts (which
    fall just off the midpoint)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.randrange(5)
        if kind == 0:
            field = repr(10.0 ** rng.uniform(-5.0, 8.0))
        elif kind == 1:
            size = rng.randint(1, 19)
            digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=size - 1))
            cut = rng.randint(1, size - 1) if 2 < size < 19 else size
            field = digits[:cut] + "." + digits[cut:] if cut < size else digits
        elif kind == 2:
            field = f"{rng.uniform(0.01, 1e5):.{rng.randint(0, 12)}f}"
        else:
            low = rng.uniform(1.0, 1e4)
            field = midpoint(low, float(np.nextafter(low, np.inf)))
            if kind == 4:
                field = field[:19]
        if float(field) > 0.0:
            out.append(field)
    return out


def test_closes_are_float_of_each_field_on_a_seeded_bulk():
    fields = bulk_fields(3, 100_000)
    start = dt.date(1800, 1, 1)
    text = csv_text(((start + dt.timedelta(days=i)).isoformat(), f) for i, f in enumerate(fields))
    days, closes = strict(text)
    assert len(days) == len(fields)
    assert closes.tobytes() == np.array(list(map(float, fields))).tobytes()


def test_closes_without_a_wide_long_double_are_float_of_each_field(monkeypatch):
    # as on a platform whose long double is a double: every row goes to float()
    monkeypatch.setattr(ingest, "_LONG_DOUBLE_64", False)
    assert mismatches(corpus()) == []
    fields = bulk_fields(4, 20_000)
    text = csv_text(((dt.date(1900, 1, 1) + dt.timedelta(days=i)).isoformat(), f)
                    for i, f in enumerate(fields))
    assert strict(text)[1].tobytes() == np.array(list(map(float, fields))).tobytes()
