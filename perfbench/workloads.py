"""The two workloads: their inputs, thresholds and command lines.

``prepare`` writes a workload's CSVs for one seed and returns what the
worker runs and what the checks need. ``{out}`` in the command line is
replaced by each pass's own output directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

# Stress-sample seed passed to analyze; the workload seed moves the prices.
STRESS_SEED = 0
ALPHA = 0.95

NAMES = ("desk", "var_batch")

# A seed jitters each daily step by this share of its volatility. Fresh
# paths changed the work too much to compare seeds: analyze at ROADMAP
# W2's 10% scale took 13-48 s over five fresh desk paths (106k-255k
# tetrahedra), and 12-17 s at a 1% jitter.
JITTER = 1e-3
# The bottleneck's binary search is chaotic in its input: each probe at or
# above the answer costs far more than one below it, and their number
# follows the bits of the answer's rank among the candidate costs. On the
# full desk series at a 0.1% jitter, seeds took 4 to 7 costly probes
# (17-33 s). On the desk workload's cut series, 0.001% still changed the
# H1 and H2 searches at two of ten seeds; at 0.0001% the search path of
# every seed equals seed 0's while every value moves.
DESK_JITTER = 1e-6

# The desk pass is sized to about 5 s so that one run times several
# passes: ROADMAP W2 (10% scale, ~15 s) and W3 (bottleneck on the full
# series, 25-35 s) gave one pass per run, and ten such runs spread past
# the 0.25 bound. The fixture path cut to its first 151 closes (141
# points) at the 13% scale splits a pass between persistence with 36,608
# tetrahedra (about a third) and the H0 bottleneck (about two thirds).
DESK_CLOSES = 151
DESK_QUANTILE = 0.13


@dataclass
class Prepared:
    """One workload at one seed: command line plus what the checks need."""

    command: str
    argv: list[str]
    jobs: int
    tickers: list[str]
    closes: dict[str, np.ndarray]
    inputs: dict[str, str]
    threshold: float | None = None


def _write(inputs_dir: Path, series: dict[str, np.ndarray]) -> dict[str, str]:
    inputs_dir.mkdir(parents=True, exist_ok=True)
    return {t: gen.write_csv(inputs_dir / f"{t}.csv", c) for t, c in series.items()}


def _analyze(inputs_dir: Path, closes: np.ndarray, quantile: float, extra: list[str]) -> Prepared:
    """analyze --max-dim 2 on the one desk ticker, at the distance quantile."""
    series = {"SYN": closes}
    inputs = _write(inputs_dir, series)
    threshold = gen.quantile_scale(gen.distances(gen.points(closes)), quantile)
    argv = [
        "analyze", "--input", str(inputs_dir / "SYN.csv"),
        "--seed", str(STRESS_SEED), "--alpha", repr(ALPHA),
        "--max-dim", "2", "--threshold", repr(threshold),
        "--jobs", "1", "--output", "{out}", *extra,
    ]
    return Prepared("analyze", argv, 1, ["SYN"], series, inputs, threshold)


def prepare(name: str, seed: int, inputs_dir: Path) -> Prepared:
    if name == "desk":
        closes = gen.desk_prices(seed, DESK_JITTER, DESK_CLOSES)
        return _analyze(inputs_dir, closes, DESK_QUANTILE, ["--bottleneck"])
    if name == "var_batch":
        series = {f"V{i:03d}": gen.batch_prices(seed, 2, i, 2521, JITTER) for i in range(256)}
        inputs = _write(inputs_dir, series)
        # --jobs 1: with 2 threads the GIL hand-offs made var 40% slower and
        # its wall time spread 0.19 between seeds, against 0.06 with 1 job.
        argv = [
            "var", "--input", *(str(inputs_dir / f"{t}.csv") for t in series),
            "--alpha", repr(ALPHA), "--jobs", "1", "--format", "json",
            "--output", "{out}/var.json",
        ]
        return Prepared("var", argv, 1, list(series), series, inputs)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
