"""Seeded synthetic inputs for the benchmark workloads.

Every price path is a geometric random walk with its minimum moved to
the last row, so min-max normalization never zeroes a return
denominator and a path of n closes gives exactly n - 1 returns.

A workload seed does not draw new paths: it jitters each daily step of
fixed base paths by a share ``jitter`` of the step's volatility, so the
work stays comparable between seeds while every close after the first
changes. Seed 0 applies no jitter, so the desk series at seed 0 is
bit-identical to ``tests/conftest.synthetic_prices``; workloads.py
chooses the jitter and says why. Batch base paths draw from
``default_rng`` keyed by (stream, ticker index), so adding a ticker
never changes the others.

This module imports numpy only, never ``toporisk``: the inputs and the
thresholds derived from them must not depend on the code under test.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from pathlib import Path

import numpy as np

# The fixture's RandomState seed.
DESK_SEED = 20240102

WINDOW = 10
STRIDE = 1


def _path(steps: np.ndarray, vol: float, seed: int, key: list[int], jitter: float) -> np.ndarray:
    if seed:
        steps = steps + np.random.default_rng([seed, *key]).normal(0.0, jitter * vol, steps.shape)
    prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + steps]))
    return np.concatenate([prices, [0.98 * prices.min()]])


def desk_prices(seed: int, jitter: float, closes: int = 251) -> np.ndarray:
    """The fixture's path cut to ``closes`` prices, its minimum again moved
    to the last row; 251 closes at seed 0 reproduce
    ``tests/conftest.synthetic_prices``."""
    steps = np.random.RandomState(DESK_SEED).normal(0.0004, 0.012, 249)[: closes - 2]
    return _path(steps, 0.012, seed, [0], jitter)


def batch_prices(seed: int, stream: int, index: int, closes: int, jitter: float) -> np.ndarray:
    """One ticker of a batch: ``closes`` prices with a per-ticker volatility.

    Volatility lies in [0.008, 0.02], so per-ticker distance scales differ
    by up to about 2x, as they do between real tickers.
    """
    rng = np.random.default_rng([stream, index])
    vol = rng.uniform(0.008, 0.02)
    steps = rng.normal(0.0004, vol, closes - 2)
    return _path(steps, vol, seed, [stream, index], jitter)


def weekdays(start: dt.date, count: int) -> list[dt.date]:
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def price_csv_text(closes: np.ndarray, start: dt.date = dt.date(2024, 1, 2)) -> str:
    """``date,close`` CSV in the fixture's layout (weekday dates, repr floats)."""
    lines = ["date,close"]
    lines.extend(
        f"{d.isoformat()},{float(c)!r}" for d, c in zip(weekdays(start, len(closes)), closes)
    )
    return "\n".join(lines) + "\n"


def write_csv(path: Path, closes: np.ndarray) -> str:
    """Write the CSV and return the sha256 of its bytes."""
    data = price_csv_text(closes).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def returns(closes: np.ndarray) -> np.ndarray:
    """Simple returns of the min-max normalized closes, without ``toporisk``."""
    lo, hi = closes.min(), closes.max()
    v = (closes - lo) / (hi - lo)
    return (v[1:] - v[:-1]) / v[:-1]


def points(closes: np.ndarray, window: int = WINDOW) -> np.ndarray:
    """Delay embedding of the returns: overlapping windows, one per row."""
    r = returns(closes)
    return np.lib.stride_tricks.sliding_window_view(r, window)[::STRIDE].copy()


def distances(pts: np.ndarray, block: int = 256) -> np.ndarray:
    """Pairwise Euclidean distances, in row blocks to bound memory."""
    n = pts.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, block):
        diff = pts[lo : lo + block, None, :] - pts[None, :, :]
        out[lo : lo + block] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def quantile_scale(dist: np.ndarray, q: float) -> float:
    """The q-quantile of the pairwise distances (numpy's linear rule)."""
    return float(np.quantile(dist[np.triu_indices(dist.shape[0], 1)], q))
