"""Whole reports against a reference built from the test oracles alone.

``reference_report`` composes the independent oracles of ``oracles``, and
never calls the package's pipeline:

* returns from min-max normalized closes, written here in Python floats,
* the sort-and-index VaR/CVaR oracle (``oracles``),
* the stress sample from ``reference_indices`` (``oracles``),
* a literal delay embedding and the one-shot ``einsum`` distances
  (``oracles``), so the distances are the package's bit for bit,
* diagrams by brute-force Rips enumeration and boundary-matrix reduction
  (``oracles``), on plain ``(vertices, value)`` items: no ``Filtration``
  is built,
* a vectorization written afresh from the ``tvard`` module docstring,
* the brute-force bottleneck distance (``oracles``), on the cases with
  at most 6 pairs a side in every dimension.

So the glue between stages is pinned: the infinite-death cap, the pair
order and padding, the stress indices, the threshold rules. Diagrams,
VaR, feature vectors and bottleneck distances must match
``run_analysis`` exactly. CVaR and TVaRD sum in an order numpy chooses,
so they match to 1e-12. Each mutant of that glue must fail the
comparison.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from toporisk import (
    AnalysisConfig,
    ParameterError,
    PersistenceDiagramSet,
    PipelineError,
    PriceSeries,
    run_analysis,
)
from toporisk import tvard

from conftest import install_mutant, weekdays
from oracles import (
    boundary_reduction_diagrams,
    brute_bottleneck,
    brute_force_rips,
    one_shot_distances,
    oracle_cvar,
    oracle_var,
    reference_indices,
)

ALPHAS = (0.8, 0.9, 0.95, 0.99)
FRACTIONS = (0.5, 0.6, 0.75, 0.9, 1.0)


def reference_returns(closes: list[float]) -> list[float]:
    """Returns of the min-max normalized closes; a zero denominator drops its return."""
    lo, hi = min(closes), max(closes)
    values = [(c - lo) / (hi - lo) for c in closes]
    return [(v - prev) / prev for prev, v in zip(values, values[1:]) if abs(prev) > 1e-12]


def delay_points(returns: list[float], window: int, stride: int) -> np.ndarray:
    """Windows of ``window`` consecutive returns, one every ``stride`` returns."""
    starts = range(0, len(returns) - window + 1, stride)
    return np.array([returns[i : i + window] for i in starts])


def reference_diagrams(
    returns: list[float], window: int, stride: int, max_dim: int, threshold: float | None
) -> PersistenceDiagramSet:
    """Diagrams of the full Rips filtration of the returns' delay embedding."""
    dm = one_shot_distances(delay_points(returns, window, stride))
    # the brute force enumerates every subset of up to four points
    assert threshold is not None or dm.shape[0] <= 16, "too many points to enumerate at auto"
    scale = float(dm.max()) if threshold is None else threshold
    diagrams = boundary_reduction_diagrams(brute_force_rips(dm, max_dim, scale), max_dim)
    return PersistenceDiagramSet(diagrams, scale, max_dim)


def reference_ranked(ds: PersistenceDiagramSet, q: int, cap: float) -> list[tuple[float, float]]:
    """Dimension q's pairs, infinite deaths at ``cap``, by persistence descending."""
    pairs = [(b, cap if d == math.inf else d) for b, d in ds.diagrams[q]]
    pairs.sort(key=lambda p: p[0])  # ties by birth: a stable sort keeps this order
    pairs.sort(key=lambda p: p[1] - p[0], reverse=True)
    return pairs


def reference_vectorize(
    base: PersistenceDiagramSet, stress: PersistenceDiagramSet
) -> tuple[list[float], list[float], tuple[int, ...]]:
    """The two feature vectors and their layout, as the ``tvard`` docstring states them."""
    cap = max(base.threshold, stress.threshold)
    vectors: tuple[list[float], list[float]] = ([], [])
    layout = []
    for q in range(base.max_dim + 1):
        ranked = [reference_ranked(ds, q, cap) for ds in (base, stress)]
        width = max(len(pairs) for pairs in ranked)
        layout.append(width)
        for vector, pairs in zip(vectors, ranked):
            for b, d in pairs + [(0.0, 0.0)] * (width - len(pairs)):
                vector.extend((b, d))
    return vectors[0], vectors[1], tuple(layout)


# brute_bottleneck enumerates every partial matching: 13,327 at 6 points a side
BOTTLENECK_MOST = 6


def reference_bottleneck(
    base: PersistenceDiagramSet, stress: PersistenceDiagramSet
) -> dict[str, float] | None:
    """Each dimension's bottleneck distance by brute force; None above the size it enumerates."""
    cap = max(base.threshold, stress.threshold)
    distances = {}
    for q in range(base.max_dim + 1):
        sides = [reference_ranked(ds, q, cap) for ds in (base, stress)]
        if max(map(len, sides)) > BOTTLENECK_MOST:
            return None
        distances[f"h{q}"] = brute_bottleneck(*sides)
    return distances


def reference_count(fraction: float, n: int) -> int:
    """floor(fraction * n) for the fraction as written, where a product within
    1e-9 (relative) below an integer counts as that integer: as floats,
    ``15 / 22 * 22`` falls short of 15, and the fraction 15 / 22 keeps 15."""
    x = Fraction(str(fraction)) * n
    return math.floor(x + max(1, x) / 10**9)


def reference_report(closes: list[float], cfg: AnalysisConfig) -> dict:
    returns = reference_returns(closes)
    n = len(returns)
    k = reference_count(cfg.fraction, n)
    stressed = [returns[i] for i in reference_indices(n, k, cfg.seed)]
    shape = (cfg.window, cfg.stride, cfg.max_dim, cfg.threshold)
    base = reference_diagrams(returns, *shape)
    stress = reference_diagrams(stressed, *shape)
    vec_base, vec_stress, layout = reference_vectorize(base, stress)
    return {
        "var": oracle_var(returns, cfg.alpha),
        "cvar": oracle_cvar(returns, cfg.alpha),
        "baseline": base,
        "stress": stress,
        "vectors": (vec_base, vec_stress, layout),
        "tvard": math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(vec_base, vec_stress))),
        "bottleneck": reference_bottleneck(base, stress),
    }


def walk(rng: random.Random, kind: int, count: int) -> list[float]:
    """Closes of one of three kinds.

    0: a Gaussian random walk.
    1: closes drawn from 1, 2, 3, 5 and 9, normalized to 0 and powers of
       two: repeated closes, exact returns and tied distances.
    2: runs of 3 to 6 rising closes, then as many falling.
    """
    if kind == 1:
        return [rng.choice((1.0, 2.0, 3.0, 5.0, 9.0)) for _ in range(count)]
    closes = [100.0]
    run = rng.randint(3, 6)
    for t in range(1, count):
        if kind == 0:
            closes.append(closes[-1] * (1.0 + rng.gauss(0.0, 0.02)))
        else:
            closes.append(closes[-1] + rng.uniform(0.5, 3.0) * (-1.0) ** (t // run))
    return closes


# Two H1 pairs of persistence 0.25, born at 0.75 and 1.0, at window 2 and the
# 60% scale: a tie that only the order by birth breaks. Found by a seeded
# search over kind-1 walks, where such ties are rare.
TIED_CLOSES = [9.0, 1.0, 3.0, 3.0, 3.0, 2.0, 1.0, 2.0, 3.0, 5.0, 2.0, 1.0, 1.0, 9.0,
               9.0, 5.0, 1.0, 2.0, 9.0, 3.0, 3.0, 5.0, 5.0, 2.0, 1.0, 1.0, 5.0, 3.0]

# Five points at window 2 around one loop: an H1 pair of persistence 0.29 at
# the 80% scale, which the two points of the 0.6 stress sample lack. The
# only case whose H1 bottleneck is nonzero; found by a seeded search over
# kind-0 walks, closes rounded.
LOOP_CLOSES = [100.0, 103.15, 103.667, 100.598, 100.872, 101.9005, 101.1115, 100.2973]


# (window, stride, returns, max_dim, quantile) of cases at fraction window /
# returns, the smallest whose stress sample fills one delay window: one point.
# 15 / 22 and 13 / 23 times their counts fall short of an integer as floats.
FILL_ONE_WINDOW = ((1, 1, 20, 1, 0.6), (3, 2, 25, 2, 0.3), (13, 1, 23, 1, None), (15, 1, 22, 2, None))


def closes_with_returns(rng: random.Random, n: int) -> list[float]:
    """A Gaussian walk of n + 2 closes whose minimum drops one return."""
    while True:
        closes = walk(rng, 0, n + 2)
        if len(reference_returns(closes)) == n:
            return closes


def case(
    closes: list[float], quantile: float | None, window: int, stride: int, **fields
) -> tuple[list[float], AnalysisConfig]:
    """A corpus case whose scale is auto or a quantile of the baseline's distances."""
    threshold = None
    if quantile is not None:
        dm = one_shot_distances(delay_points(reference_returns(closes), window, stride))
        threshold = float(np.quantile(dm[np.triu_indices(dm.shape[0], 1)], quantile))
    return closes, AnalysisConfig(window=window, stride=stride, threshold=threshold, **fields)


def corpus() -> list[tuple[list[float], AnalysisConfig]]:
    """Seeded cases: at most 30 closes, and at most 16 points where the scale is auto."""
    rng = random.Random(2026)
    cases = []
    for _, quantile, max_dim, kind in itertools.product(
        range(2), (None, 0.3, 0.6), range(3), range(3)
    ):
        window, stride = rng.randint(2, 4), rng.randint(1, 2)
        # at most 15 * stride + window returns make at most 16 points
        most = 30 if quantile is not None else min(30, 15 * stride + window + 1)
        closes = walk(rng, kind, rng.randint(most - 6, most))
        fields = dict(max_dim=max_dim, alpha=rng.choice(ALPHAS), fraction=rng.choice(FRACTIONS))
        cases.append(case(closes, quantile, window, stride, seed=rng.getrandbits(64), **fields))
    cases.append(case(TIED_CLOSES, 0.6, 2, 1, max_dim=1, fraction=0.75, seed=17))
    cases.append(case(LOOP_CLOSES, 0.8, 2, 1, max_dim=1, fraction=0.6, seed=51719))
    # at most 6 points, few enough pairs a side for brute_bottleneck; a walk
    # without repeated closes drops at most one return, and a fraction from
    # 0.6 still keeps a window of them
    for _, max_dim, kind in itertools.product(range(2), range(3), (0, 2)):
        window = rng.randint(2, 3)
        closes = walk(rng, kind, rng.randint(window + 5, window + 6))
        fields = dict(max_dim=max_dim, alpha=rng.choice(ALPHAS), fraction=rng.choice(FRACTIONS[1:]))
        quantile = rng.choice((None, 0.6))
        cases.append(case(closes, quantile, window, 1, seed=rng.getrandbits(64), **fields))
    for window, stride, n, max_dim, quantile in FILL_ONE_WINDOW:
        fields = dict(max_dim=max_dim, fraction=window / n, seed=rng.getrandbits(64))
        cases.append(case(closes_with_returns(rng, n), quantile, window, stride, **fields))
    return cases


@pytest.fixture(scope="module")
def references() -> list[tuple[PriceSeries, AnalysisConfig, dict]]:
    out = []
    for closes, cfg in corpus():
        dates = tuple(weekdays(dt.date(2024, 1, 2), len(closes)))
        prices = PriceSeries("REF", dates, np.array(closes))
        out.append((prices, cfg, reference_report(closes, cfg)))
    return out


def assert_matches_reference(prices: PriceSeries, cfg: AnalysisConfig, ref: dict) -> None:
    report = run_analysis(prices, cfg)
    assert report.baseline_diagrams == ref["baseline"]
    assert report.stress_diagrams == ref["stress"]
    assert report.var == ref["var"]
    assert report.cvar == pytest.approx(ref["cvar"], rel=1e-12, abs=1e-12)
    vec_base, vec_stress = tvard.vectorize(report.baseline_diagrams, report.stress_diagrams)
    ref_base, ref_stress, layout = ref["vectors"]
    assert (vec_base.tolist(), vec_stress.tolist()) == (ref_base, ref_stress)
    assert len(vec_base) == 2 * sum(layout)
    assert report.tvard == pytest.approx(ref["tvard"], rel=1e-12, abs=1e-12)
    assert (report.ticker, report.alpha, report.config) == ("REF", cfg.alpha, cfg)


def test_reports_match_reference(references):
    for prices, cfg, ref in references:
        assert_matches_reference(prices, cfg, ref)


def test_corpus_has_every_dimension_dropped_returns_and_full_samples(references):
    """What the mutants below do not show the corpus to reach."""
    assert {cfg.max_dim for _, cfg, _ in references} == {0, 1, 2}
    dropped = [len(reference_returns(p.closes.tolist())) < len(p) - 1 for p, _, _ in references]
    full = [cfg.fraction == 1.0 for _, cfg, _ in references]
    assert sum(dropped) >= 10 and sum(full) >= 5, (sum(dropped), sum(full))


def test_a_return_short_of_one_window_is_rejected(references):
    """Half a return below the smallest fraction, the stage that rejects the sample."""
    stages = []
    for prices, cfg, _ in references:
        n = len(reference_returns(prices.closes.tolist()))
        if reference_count(cfg.fraction, n) != cfg.window:
            continue
        with pytest.raises(PipelineError) as caught:
            run_analysis(prices, replace(cfg, fraction=(cfg.window - 0.5) / n))
        # no return at all is the sampler's to refuse, too few for a window the embedding's
        assert caught.value.stage == ("stress-sample" if cfg.window == 1 else "stress-persistence")
        stages.append(caught.value.stage)
    assert len(stages) >= len(FILL_ONE_WINDOW) and "stress-sample" in stages, stages


def test_plain_floor_mutant_fails_reference(references, monkeypatch):
    floor = ("snapped_floor(cfg.fraction * n)", "math.floor(cfg.fraction * n)")
    install_mutant(monkeypatch, tvard.stress_sample, *floor)
    # at 15 / 22 the mutant keeps 14 returns, too few for a window of 15
    with pytest.raises((AssertionError, PipelineError)):
        for prices, cfg, ref in references:
            assert_matches_reference(prices, cfg, ref)


MUTANTS = {
    "smaller threshold as cap": (
        tvard._ordered_pairs,
        "max(d.threshold, counterpart.threshold)",
        "min(d.threshold, counterpart.threshold)",
    ),
    "no padding": (tvard.vectorize, " + [(0.0, 0.0)] * (width - len(pairs))", ""),
    "ties by birth descending": (tvard._ordered_pairs, ", p[0]))", ", -p[0]))"),
    "stress indices off by one": (
        tvard.stress_sample, "returns[keep]", "returns[[i - 1 for i in keep]]"
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_fails_reference(mutant, references, monkeypatch):
    install_mutant(monkeypatch, *MUTANTS[mutant])
    # no padding leaves vectors of unequal length, which tvard_distance refuses
    with pytest.raises((AssertionError, ParameterError)):
        for prices, cfg, ref in references:
            assert_matches_reference(prices, cfg, ref)


def assert_bottleneck_matches_reference(references) -> list[dict[str, float]]:
    """``--bottleneck``'s distances where the brute force enumerates; those compared."""
    compared = []
    for prices, cfg, ref in references:
        if ref["bottleneck"] is not None:
            report = tvard.run_analysis(prices, replace(cfg, with_bottleneck=True))
            assert report.bottleneck == ref["bottleneck"]
            compared.append(report.bottleneck)
    return compared


def test_bottleneck_matches_reference(references):
    compared = assert_bottleneck_matches_reference(references)
    assert len(compared) >= 10
    assert any(distances.get("h1", 0.0) > 0.0 for distances in compared)


def test_bottleneck_mutant_fails_reference(references, monkeypatch):
    both_sides = "_ordered_pairs(baseline, stress, q)"
    stress_twice = "_ordered_pairs(stress, stress, q)"
    install_mutant(monkeypatch, tvard.run_analysis, both_sides, stress_twice)
    with pytest.raises(AssertionError):
        assert_bottleneck_matches_reference(references)
