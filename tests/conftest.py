"""Shared fixtures: a frozen synthetic price path, CSV writers and source mutants.

The synthetic series is a 251-row geometric random walk from a fixed
numpy seed, with its minimum placed at the last row so that min-max
normalization never zeroes a return denominator: 251 prices give exactly
250 returns and 241 embedded points at the default window and stride.
Run as a script, this file writes that series as a CSV to the path given.
"""

from __future__ import annotations

import __future__
import datetime as dt
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest


def synthetic_prices() -> np.ndarray:
    rs = np.random.RandomState(20240102)
    steps = rs.normal(0.0004, 0.012, 249)
    prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + steps]))
    return np.concatenate([prices, [0.98 * prices.min()]])


def desk_prices(closes: int = 151) -> np.ndarray:
    """The path cut to its first ``closes`` prices, its minimum again moved
    to the last row: at 151 closes (141 points) the benchmark's desk shape."""
    prices = synthetic_prices()[: closes - 1]
    return np.append(prices, 0.98 * prices.min())


def weekdays(start: dt.date, count: int) -> list[dt.date]:
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def write_price_csv(path: Path, closes, start: dt.date = dt.date(2024, 1, 2)) -> Path:
    closes = np.asarray(closes, dtype=np.float64)
    dates = weekdays(start, closes.shape[0])
    lines = ["date,close"]
    lines.extend(f"{d.isoformat()},{float(c)!r}" for d, c in zip(dates, closes))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def synthetic_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "SYN.csv"
    return write_price_csv(path, synthetic_prices())


def install_mutant(monkeypatch, func, old: str, new: str) -> None:
    """Replace ``func`` in its module by its own source with ``old`` edited to ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__name__} no longer reads {old!r}"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(func), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(code, namespace)
    monkeypatch.setattr(module, func.__name__, namespace[func.__name__])


if __name__ == "__main__":
    write_price_csv(Path(sys.argv[1]), synthetic_prices())
