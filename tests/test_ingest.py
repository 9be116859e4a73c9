"""CSV loading, cleaning, min-max normalization and return computation."""

from __future__ import annotations

import datetime as dt
import io
import math
import random

import numpy as np
import pytest

from toporisk import (
    BadValueError,
    DegenerateSeriesError,
    DuplicateDateError,
    FormatError,
    InsufficientDataError,
    ParameterError,
    PriceSeries,
    RowError,
    clean_series,
    compute_returns,
    load_price_csv,
    normalize,
)

from toporisk.ingest import ZERO_DENOM_EPS

from conftest import write_price_csv


def make_series(closes, ticker="T"):
    closes = np.asarray(closes, dtype=np.float64)
    dates = tuple(dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(len(closes)))
    return PriceSeries(ticker, dates, closes)


def test_load_minimal_file():
    series = load_price_csv(io.StringIO("date,close\n2023-01-02,100.0\n2023-01-03,101.0\n"))
    assert len(series) == 2
    assert series.dates.dtype == np.dtype("datetime64[D]")
    assert series.dates.tolist() == [dt.date(2023, 1, 2), dt.date(2023, 1, 3)]
    assert series.closes.tolist() == [100.0, 101.0]


def test_load_resorts_by_date():
    out_of_order = "date,close\n2023-01-03,101.0\n2023-01-02,100.0\n"
    series = load_price_csv(io.StringIO(out_of_order))
    assert series.dates.tolist() == [dt.date(2023, 1, 2), dt.date(2023, 1, 3)]
    assert series.closes.tolist() == [100.0, 101.0]


def test_load_rejects_nan_close():
    with pytest.raises(BadValueError):
        load_price_csv(io.StringIO("date,close\n2023-01-02,NaN\n"))


def test_load_rejects_inf_and_nonpositive_closes():
    for bad in ("inf", "-inf", "0", "-1.5"):
        with pytest.raises(BadValueError):
            load_price_csv(io.StringIO(f"date,close\n2023-01-02,{bad}\n"))


def test_load_rejects_wrong_header():
    for header in ("Date,Close", "date,close,volume", "close,date", ""):
        with pytest.raises(FormatError):
            load_price_csv(io.StringIO(header + "\n2023-01-02,100.0\n"))


def test_load_row_errors_carry_line_numbers():
    text = "date,close\n2023-01-02,100.0\nnot-a-date,101.0\n"
    with pytest.raises(RowError) as exc_info:
        load_price_csv(io.StringIO(text))
    assert exc_info.value.line_no == 3

    with pytest.raises(RowError) as exc_info:
        load_price_csv(io.StringIO("date,close\n2023-01-02,100.0,extra\n"))
    assert exc_info.value.line_no == 2

    with pytest.raises(RowError):
        load_price_csv(io.StringIO("date,close\n2023-01-02,abc\n"))

    # float() reads 1_000 as 1000.0; a close has no digit separators
    with pytest.raises(RowError, match="bad close '1_000'") as exc_info:
        load_price_csv(io.StringIO("date,close\n2024-01-02,100.0\n2024-01-03,1_000\n"))
    assert exc_info.value.line_no == 3

    # Python 3.11's fromisoformat reads these compact and ISO-week spellings
    # too; the contract is YYYY-MM-DD
    for spelling in ("20240102", "2024-W01-2", "2024W012", "2024-W01"):
        text = f"date,close\n2024-01-01,100.0\n{spelling},101.0\n"
        with pytest.raises(RowError) as exc_info:
            load_price_csv(io.StringIO(text))
        assert exc_info.value.line_no == 3


def test_load_rejects_duplicate_dates():
    text = "date,close\n2023-01-02,100.0\n2023-01-02,101.0\n"
    with pytest.raises(DuplicateDateError):
        load_price_csv(io.StringIO(text))


def test_load_accepts_crlf_blank_lines_and_bytes():
    text = "date,close\r\n2023-01-02,100.0\r\n\r\n2023-01-03,101.0\r\n"
    series = load_price_csv(io.BytesIO(text.encode("utf-8")))
    assert len(series) == 2


def test_load_ticker_from_path_stem(tmp_path):
    path = write_price_csv(tmp_path / "AAPL.csv", [100.0, 101.0, 102.0])
    assert load_price_csv(path).ticker == "AAPL"
    assert load_price_csv(path, ticker="other").ticker == "other"


def test_price_series_validates_dates():
    dates = (dt.date(2024, 1, 2), dt.date(2024, 1, 1))
    with pytest.raises(ParameterError):
        PriceSeries("T", dates, np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        PriceSeries("T", dates[:1], np.array([1.0, 2.0]))


def test_price_series_takes_dates_as_one_datetime64_array():
    want = [dt.date(2024, 1, 2), dt.date(2024, 1, 3)]
    for dates in (
        tuple(want),
        [dt.datetime(2024, 1, 2, 12), np.datetime64("2024-01-03")],
        np.array(["2024-01-02T09", "2024-01-03T16"], dtype="datetime64[h]"),
    ):
        series = PriceSeries("T", dates, [1.0, 2.0])
        assert series.dates.dtype == np.dtype("datetime64[D]")
        assert series.dates.tolist() == want
        assert series.closes.dtype == np.float64
    assert len(PriceSeries("T", (), [])) == 0
    # the order check reads the array and names the pair, as it did the dates
    with pytest.raises(ParameterError, match="got 2024-01-03 then 2024-01-03$"):
        PriceSeries("T", np.array(want[1:] * 2, dtype="datetime64[D]"), [1.0, 2.0])


def test_price_series_rejects_what_is_not_a_date_or_a_number():
    day = dt.date(2024, 1, 2)
    # numpy reads 5 as 1970-01-06 and "2024-01-03" as that day; neither is a date
    for dates in ((day, 5), (5, 6), ("x", "y"), ("2024-01-02", "2024-01-03"),
                  (day, np.datetime64("NaT")), [[day], [day, day]], (day, 2.5)):
        with pytest.raises(ParameterError, match="^dates must be"):
            PriceSeries("T", dates, [1.0, 2.0])
    for closes in (["a"], [[1.0], [2.0, 3.0]], object()):
        with pytest.raises(ParameterError, match="^closes must be 1-D numbers"):
            PriceSeries("T", (), closes)


def test_price_series_refuses_timezone_aware_datetimes():
    # numpy's cast warned (an error under -W error) and kept the UTC day
    utc, plus_9 = dt.timezone.utc, dt.timezone(dt.timedelta(hours=9))
    for dates in ((dt.datetime(2024, 1, 2, tzinfo=utc), dt.datetime(2024, 1, 3, tzinfo=utc)),
                  (dt.date(2024, 1, 2), dt.datetime(2024, 1, 3, 8, tzinfo=plus_9))):
        with pytest.raises(ParameterError, match="^dates must be naive datetimes"):
            PriceSeries("T", dates, [1.0, 2.0])


def test_clean_removes_nonfinite():
    series = make_series([100.0, math.inf, 102.0, 103.0])
    cleaned, removed = clean_series(series)
    assert removed == 1
    assert cleaned.closes.tolist() == [100.0, 102.0, 103.0]
    assert len(cleaned.dates) == 3


def test_clean_identity_when_finite():
    series = make_series([100.0, 101.0, 102.0])
    cleaned, removed = clean_series(series)
    assert removed == 0
    assert cleaned is series


def test_clean_too_short_after_removal():
    with pytest.raises(InsufficientDataError):
        clean_series(make_series([100.0, math.nan]))


def test_normalize_examples():
    assert normalize(make_series([2, 4, 6])).tolist() == [0.0, 0.5, 1.0]
    assert normalize(make_series([1, 3, 2])).tolist() == [0.0, 1.0, 0.5]


def test_normalize_constant_series_degenerate():
    with pytest.raises(DegenerateSeriesError):
        normalize(make_series([5, 5, 5]))


def test_normalize_needs_three_observations():
    with pytest.raises(InsufficientDataError):
        normalize(make_series([1.0, 2.0]))


def test_normalize_attains_both_bounds():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 40)
        closes = [rng.uniform(10, 500) for _ in range(n)]
        if max(closes) == min(closes):
            continue
        values = normalize(make_series(closes))
        assert values.min() == 0.0
        assert values.max() == 1.0
        assert np.all((0.0 <= values) & (values <= 1.0))


def test_normalize_affine_invariance():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(3, 30)
        closes = np.array([rng.uniform(10, 200) for _ in range(n)])
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.0, 50.0)
        base = normalize(make_series(closes))
        scaled = normalize(make_series(a * closes + b))
        assert np.max(np.abs(base - scaled)) < 1e-12


def test_returns_examples():
    r = compute_returns(np.array([0.5, 0.75, 1.0]), "T")
    assert type(r) is np.ndarray and r.dtype == np.float64
    assert len(r) == 2
    assert np.allclose(r, [0.5, 1.0 / 3.0], rtol=0, atol=1e-15)

    above = np.nextafter(ZERO_DENOM_EPS, 1)
    # (values, dropped, returns), dropped being len(values) - 1 - len(returns)
    cases = (
        ([0.0, 0.5, 1.0], 1, [1.0]),
        ([1.0, 1.0], 0, [0.0]),
        # |v_{t-1}| <= ZERO_DENOM_EPS is dropped; the next float above it is kept
        ([ZERO_DENOM_EPS, 1.0, 1.0], 1, [0.0]),
        ([above, 1.0, 1.0], 0, [(1.0 - above) / above, 0.0]),
    )
    for values, dropped, returns in cases:
        r = compute_returns(np.array(values), "T")
        assert (len(values) - 1 - len(r), r.tolist()) == (dropped, returns)


def test_returns_all_dropped_or_too_short():
    # each error names the ticker it was given, and the default name without one
    with pytest.raises(InsufficientDataError, match="^T: all returns dropped"):
        compute_returns(np.array([0.0, 1.0]), "T")
    with pytest.raises(InsufficientDataError, match="^T: need >= 2 values"):
        compute_returns(np.array([0.5]), "T")
    with pytest.raises(InsufficientDataError, match="^series: need >= 2 values"):
        compute_returns(np.array([0.5]))
    # a 0-d value has no length, and a 3 x 2 array is no series to take returns of
    for values in (np.float64(0.5), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])):
        with pytest.raises(ParameterError, match="^T: values must be 1-D, got shape"):
            compute_returns(values, "T")
    for values in (["a", "b"], [[0.5], [0.75, 1.0]], object()):
        with pytest.raises(ParameterError, match="^T: values must be 1-D numbers"):
            compute_returns(values, "T")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_returns_refuse_non_finite_values(bad):
    with pytest.raises(ParameterError, match="^T: values must be finite$"):
        compute_returns(np.array([1.0, bad, 2.0]), "T")


def test_returns_length_bookkeeping():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 60)
        values = [rng.choice([0.0, ZERO_DENOM_EPS, rng.uniform(0.05, 1.0)]) for _ in range(n)]
        try:
            r = compute_returns(np.array(values), "T")
        except InsufficientDataError:
            continue
        # the zero denominators, counted here, are the returns dropped
        dropped = sum(abs(v) <= ZERO_DENOM_EPS for v in values[:-1])
        assert n - 1 - len(r) == dropped


def test_pipeline_never_produces_nonfinite(tmp_path):
    rng = random.Random(14)
    for case in range(20):
        n = rng.randint(3, 80)
        closes = [rng.uniform(1, 1000) for _ in range(n)]
        if max(closes) == min(closes):
            continue
        path = write_price_csv(tmp_path / f"t{case}.csv", closes)
        series = load_price_csv(path)
        cleaned, _ = clean_series(series)
        norm = normalize(cleaned)
        assert np.all(np.isfinite(norm))
        try:
            r = compute_returns(norm)
        except InsufficientDataError:
            continue
        assert np.all(np.isfinite(r))
