"""Stability of the pipeline's diagrams, checked at paper scale.

The stability theorem (Cohen-Steiner, Edelsbrunner and Harer, "Stability
of Persistence Diagrams", 2007; for Rips complexes Chazal, de Silva and
Oudot, "Persistence Stability for Geometric Complexes", 2014) gives two
bounds that hold bit for bit in floating point and reach 241 points,
where the brute-force oracles stop at a few dozen:

* Cloud test. Two clouds built at one shared threshold tau, infinite
  deaths capped at tau, are within bottleneck distance (per dimension)
  of the largest change of any pairwise distance. Capping at tau is the
  filtration min(f, tau) on the full 3-skeleton, and min(., tau) is
  1-Lipschitz.
* Report test. In an ``analyze --bottleneck`` report, each dimension's
  bottleneck distance is at most the L-infinity difference of that
  dimension's slice of the two feature vectors, which is at most the
  TVaRD: the sorted, padded pairing of ``vectorize`` is a matching, and
  a point padded with (0, 0) costs at least its distance to the diagonal.

Both run the diagrams through ``tvard._diagrams_for``, the path every
command takes. They catch discontinuities (a tie order, an off-by-one
pairing, a dropped simplex), not a bias shared by both sides.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest

from toporisk import (
    AnalysisConfig,
    PriceSeries,
    bottleneck_distance,
    delay_embed,
    distance_matrix,
    load_price_csv,
    preprocess,
    run_analysis,
    vectorize,
)
from toporisk.tvard import _diagrams_for

from conftest import desk_prices as desk_closes, weekdays


def quantile_threshold(returns: np.ndarray, q: float, window: int = 10) -> float:
    entries = distance_matrix(delay_embed(returns, window))
    return float(np.quantile(entries[np.triu_indices(entries.shape[0], 1)], q))


def desk_prices() -> PriceSeries:
    closes = desk_closes()
    return PriceSeries("DESK", tuple(weekdays(dt.date(2024, 1, 2), len(closes))), closes)


def desk_returns() -> np.ndarray:
    return preprocess(desk_prices())


def capped(pairs, cap: float) -> list[tuple[float, float]]:
    return [(b, cap if math.isinf(d) else d) for b, d in pairs]


def assert_stable(returns: np.ndarray, perturbed: np.ndarray, cfg: AnalysisConfig) -> float:
    """Check the cloud bound; return the largest ratio of bottleneck to distance change."""
    shift = float(
        np.abs(
            distance_matrix(delay_embed(returns, cfg.window))
            - distance_matrix(delay_embed(perturbed, cfg.window))
        ).max()
    )
    a = _diagrams_for(returns, cfg, "baseline-persistence")
    b = _diagrams_for(perturbed, cfg, "baseline-persistence")
    ratio = 0.0
    for q in range(cfg.max_dim + 1):
        da = capped(a.diagrams[q], cfg.threshold)
        db = capped(b.diagrams[q], cfg.threshold)
        distance = bottleneck_distance(da, db)
        assert distance <= shift, (q, distance, shift)
        if shift:
            ratio = max(ratio, distance / shift)
    return ratio


def test_cloud_stability_on_w1(synthetic_csv):
    returns = preprocess(load_price_csv(synthetic_csv))
    cfg = AnalysisConfig(seed=0, threshold=quantile_threshold(returns, 0.05))
    rng = np.random.default_rng(11)
    ratios = [
        assert_stable(returns, returns + delta * rng.standard_normal(len(returns)), cfg)
        for delta in (1e-6, 1e-4, 1e-2)
    ]
    # the bound is tight: some dimension moves by about the whole distance change
    assert max(ratios) > 0.5


def test_cloud_stability_on_desk_seeds():
    returns = desk_returns()
    cfg = AnalysisConfig(seed=0, threshold=quantile_threshold(returns, 0.13))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        delta = (1e-7, 1e-5, 1e-3, 1e-1)[seed]
        assert_stable(returns, returns + delta * rng.standard_normal(len(returns)), cfg)


@pytest.mark.parametrize("window", [2, 3])
def test_cloud_stability_on_tie_heavy_clouds(window):
    # returns on a 0.1 grid make many pairwise distances equal; moving a few
    # returns by one grid step keeps both clouds tie-heavy
    rng = np.random.default_rng(window)
    for trial in range(12):
        returns = np.round(rng.uniform(-1, 1, int(rng.integers(6, 16))), 1)
        perturbed = returns.copy()
        moved = rng.choice(len(returns), size=int(rng.integers(1, 4)), replace=False)
        perturbed[moved] += rng.choice([-0.1, 0.1], size=len(moved))
        q = (0.2, 0.5, 1.0)[trial % 3]
        cfg = AnalysisConfig(
            seed=0, window=window, threshold=quantile_threshold(returns, q, window)
        )
        assert_stable(returns, perturbed, cfg)


def analyze_reports():
    """``run_analysis`` reports with the bottleneck block, on desk and tie-heavy series."""
    threshold = quantile_threshold(desk_returns(), 0.13)
    for seed, fraction in ((0, 0.5), (1, 0.5), (2, 0.8), (3, 0.3)):
        cfg = AnalysisConfig(
            seed=seed, threshold=threshold, fraction=fraction, with_bottleneck=True
        )
        yield run_analysis(desk_prices(), cfg)
    rng = np.random.default_rng(5)
    for seed in range(6):
        # closes on a coarse tick grid repeat returns, so distances tie
        count = int(rng.integers(20, 40))
        ticks = np.cumsum(rng.choice([-2, -1, 1, 2], size=count)) + 60
        ticks[-1] = ticks.min() - 1
        prices = PriceSeries(
            "TICK", tuple(weekdays(dt.date(2024, 1, 2), count)), ticks.astype(float)
        )
        threshold = None if seed % 2 else 0.4
        yield run_analysis(
            prices,
            AnalysisConfig(seed=seed, window=3, threshold=threshold, with_bottleneck=True),
        )


def test_report_bottleneck_below_linf_below_tvard():
    checked = 0
    for report in analyze_reports():
        base, stress = report.baseline_diagrams, report.stress_diagrams
        a, b = vectorize(base, stress)
        diff = np.abs(a - b)
        start = 0
        for q in range(report.config.max_dim + 1):
            # each dimension's block holds the longer side's pairs
            width = max(len(base.diagrams.get(q, ())), len(stress.diagrams.get(q, ())))
            end = start + 2 * width
            linf = float(diff[start:end].max(initial=0.0))
            assert report.bottleneck[f"h{q}"] <= linf, (q, report.bottleneck, linf)
            start = end
        assert float(diff.max(initial=0.0)) <= report.tvard
        checked += report.tvard > 0.0
    assert checked >= 8
