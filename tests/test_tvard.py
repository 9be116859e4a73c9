"""Stress sampling, vectorization, TVaRD, bottleneck and report assembly.

The RNG is pinned by frozen output vectors plus a from-the-definition
reimplementation in this file; the bottleneck solver is checked against
explicit enumeration of every partial matching on tiny diagrams.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import random

import numpy as np
import pytest

from toporisk import (
    AnalysisConfig,
    FeatureVector,
    InsufficientDataError,
    ParameterError,
    PersistenceDiagramSet,
    PipelineError,
    PriceSeries,
    ReturnSeries,
    SplitMix64,
    StressConfig,
    bottleneck_distance,
    clean_series,
    compute_returns,
    delay_embed,
    distance_matrix,
    normalize,
    preprocess,
    report_to_json,
    run_analysis,
    stress_sample,
    tvard_distance,
    vectorize,
)
from toporisk.tvard import sample_indices

from conftest import weekdays


# --- RNG ---


def reference_splitmix64(seed: int, count: int) -> list[int]:
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) & mask)
    return out


def test_splitmix64_frozen_vectors():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    g = SplitMix64(42)
    assert [g.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_splitmix64_matches_definition():
    rng = random.Random(51)
    for _ in range(20):
        seed = rng.getrandbits(64)
        g = SplitMix64(seed)
        assert [g.next_u64() for _ in range(5)] == reference_splitmix64(seed, 5)


def test_splitmix64_validation():
    with pytest.raises(ParameterError):
        SplitMix64(-1)
    with pytest.raises(ParameterError):
        SplitMix64(1 << 64)
    with pytest.raises(ParameterError):
        SplitMix64(1).below(0)


def reference_indices(n: int, k: int, seed: int) -> list[int]:
    stream = iter(reference_splitmix64(seed, k))
    idx = list(range(n))
    for i in range(k):
        j = i + next(stream) % (n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def test_sample_indices_matches_reference():
    rng = random.Random(52)
    for _ in range(50):
        n = rng.randint(1, 40)
        k = rng.randint(0, n)
        seed = rng.getrandbits(64)
        got = sample_indices(n, k, seed)
        assert got == reference_indices(n, k, seed)
        assert got == sorted(set(got))
        assert all(0 <= i < n for i in got)


# --- stress sampling ---


def make_returns(values, ticker="T", dropped=0) -> ReturnSeries:
    return ReturnSeries(ticker, np.asarray(values, dtype=np.float64), dropped)


def test_stress_sample_cardinality_and_order():
    series = make_returns([0.1, -0.2, 0.3, -0.4])
    for seed in range(10):
        out = stress_sample(series, StressConfig(seed=seed, fraction=0.5))
        assert len(out) == 2
        # kept returns appear in their original relative order
        positions = [series.returns.tolist().index(v) for v in out.returns]
        assert positions == sorted(positions)


def test_stress_sample_full_fraction_is_identity():
    series = make_returns([0.1, -0.2, 0.3, -0.4, 0.5])
    out = stress_sample(series, StressConfig(seed=7, fraction=1.0))
    assert out.returns.tolist() == series.returns.tolist()


def test_stress_sample_deterministic():
    series = make_returns([random.Random(53).gauss(0, 1) for _ in range(30)])
    a = stress_sample(series, StressConfig(seed=99, fraction=0.5))
    b = stress_sample(series, StressConfig(seed=99, fraction=0.5))
    assert a.returns.tolist() == b.returns.tolist()


def test_stress_sample_carries_dropped_count():
    series = make_returns([0.1, 0.2, 0.3, 0.4], dropped=2)
    out = stress_sample(series, StressConfig(seed=1, fraction=0.5))
    assert out.dropped_count == 2
    assert out.ticker == "T"


def test_stress_sample_errors():
    with pytest.raises(InsufficientDataError):
        stress_sample(make_returns([0.1]), StressConfig(seed=1, fraction=0.5))
    with pytest.raises(InsufficientDataError):
        stress_sample(make_returns([0.1, 0.2]), StressConfig(seed=1, fraction=0.3))
    with pytest.raises(ParameterError):
        StressConfig(seed=1, fraction=0.0)
    with pytest.raises(ParameterError):
        StressConfig(seed=1, fraction=1.2)
    with pytest.raises(ParameterError):
        StressConfig(seed=-1)


# --- vectorization ---


def diagram_set(diagrams: dict, threshold: float, max_dim: int = 2) -> PersistenceDiagramSet:
    full = {q: tuple(diagrams.get(q, ())) for q in range(max_dim + 1)}
    return PersistenceDiagramSet(full, threshold, max_dim)


def random_diagram_set(rng: random.Random, threshold: float = 1.0) -> PersistenceDiagramSet:
    diagrams = {}
    for q in range(3):
        pairs = []
        for _ in range(rng.randint(0, 5)):
            b = rng.uniform(0, threshold * 0.8)
            pairs.append((b, rng.uniform(b + 1e-6, threshold)))
        if q == 0 and rng.random() < 0.5:
            pairs.append((0.0, math.inf))
        diagrams[q] = tuple(sorted(pairs))
    return diagram_set(diagrams, threshold)


def test_vectorize_cap_sort_pad():
    d = diagram_set({0: ((0.0, 1.0), (0.0, math.inf))}, threshold=2.0, max_dim=0)
    empty = diagram_set({}, threshold=1.0, max_dim=0)
    va, vb = vectorize(d, empty)
    # the essential pair caps at 2 and sorts first (largest persistence)
    assert va.values.tolist() == [0.0, 2.0, 0.0, 1.0]
    assert vb.values.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert va.layout == vb.layout == (2,)
    assert va.cap == 2.0


def test_vectorize_identical_diagrams():
    rng = random.Random(54)
    for _ in range(20):
        d = random_diagram_set(rng)
        va, vb = vectorize(d, d)
        assert va.values.tolist() == vb.values.tolist()
        assert va.layout == vb.layout
        assert tvard_distance(va, vb) == 0.0


def test_vectorize_extra_zero_pad_slot_contributes_nothing():
    a = diagram_set({1: ((0.2, 0.6),)}, threshold=1.0)
    b = diagram_set({1: ((0.0, 0.0), (0.2, 0.6))}, threshold=1.0)
    va, vb = vectorize(a, b)
    assert va.layout == (0, 2, 0)
    assert tvard_distance(va, vb) == 0.0


def test_vectorize_max_dim_mismatch():
    a = diagram_set({}, threshold=1.0, max_dim=2)
    b = diagram_set({}, threshold=1.0, max_dim=1)
    with pytest.raises(ParameterError):
        vectorize(a, b)


def test_tvard_distance_examples():
    a = FeatureVector(np.array([0.0, 0.0]), (1,), 1.0)
    b = FeatureVector(np.array([3.0, 4.0]), (1,), 1.0)
    assert tvard_distance(a, b) == 5.0
    assert tvard_distance(a, a) == 0.0
    with pytest.raises(ParameterError):
        tvard_distance(a, FeatureVector(np.array([1.0, 2.0, 3.0, 4.0]), (2,), 1.0))


def test_tvard_metric_properties():
    rng = random.Random(55)
    for _ in range(60):
        a = random_diagram_set(rng)
        b = random_diagram_set(rng)
        c = random_diagram_set(rng)
        d_ab = tvard_distance(*vectorize(a, b))
        d_ba = tvard_distance(*vectorize(b, a))
        d_ac = tvard_distance(*vectorize(a, c))
        d_cb = tvard_distance(*vectorize(c, b))
        assert d_ab >= 0.0
        assert abs(d_ab - d_ba) < 1e-12
        assert tvard_distance(*vectorize(a, a)) == 0.0
        assert d_ab <= d_ac + d_cb + 1e-9


# --- bottleneck ---


def linf(p, q) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def brute_bottleneck(d1, d2) -> float:
    """Minimum over all partial matchings of the max pair cost."""
    best = math.inf
    n1, n2 = len(d1), len(d2)
    diag1 = [(p[1] - p[0]) / 2.0 for p in d1]
    diag2 = [(p[1] - p[0]) / 2.0 for p in d2]
    for k in range(min(n1, n2) + 1):
        for chosen1 in itertools.combinations(range(n1), k):
            for chosen2 in itertools.permutations(range(n2), k):
                cost = 0.0
                for i, j in zip(chosen1, chosen2):
                    cost = max(cost, linf(d1[i], d2[j]))
                for i in set(range(n1)) - set(chosen1):
                    cost = max(cost, diag1[i])
                for j in set(range(n2)) - set(chosen2):
                    cost = max(cost, diag2[j])
                best = min(best, cost)
    return 0.0 if best is math.inf else best


def test_bottleneck_examples():
    assert bottleneck_distance([], []) == 0.0
    assert bottleneck_distance([(0.0, 2.0)], []) == 1.0
    d = [(0.1, 0.5), (0.2, 0.9)]
    assert bottleneck_distance(d, d) == 0.0
    # (0.0, -0.0) is -0.0 from the diagonal; with enough of them numpy's
    # sort may put -0.0 ahead of 0.0, and the answer must still be +0.0
    for d1 in ([(0.0, -0.0)], [(0.0, -0.0)] * 20, [(0.0, -0.0)] * 40 + [(1.0, 1.0)]):
        for got in (bottleneck_distance(d1, []), bottleneck_distance([(0.5, 0.5)], d1)):
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_bottleneck_rejects_infinite_pairs():
    with pytest.raises(ParameterError):
        bottleneck_distance([(0.0, math.inf)], [])


def test_bottleneck_symmetric():
    rng = random.Random(56)
    for _ in range(30):
        d1 = [(b, b + rng.uniform(0.01, 1.0)) for b in [rng.uniform(0, 1) for _ in range(rng.randint(0, 4))]]
        d2 = [(b, b + rng.uniform(0.01, 1.0)) for b in [rng.uniform(0, 1) for _ in range(rng.randint(0, 4))]]
        assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1)


def test_bottleneck_against_enumeration():
    rng = random.Random(57)
    for _ in range(40):
        d1 = [(b, b + rng.uniform(0.01, 0.8)) for b in [rng.uniform(0, 1) for _ in range(rng.randint(0, 3))]]
        d2 = [(b, b + rng.uniform(0.01, 0.8)) for b in [rng.uniform(0, 1) for _ in range(rng.randint(0, 3))]]
        assert bottleneck_distance(d1, d2) == pytest.approx(
            brute_bottleneck(d1, d2), rel=0, abs=1e-12
        )


def test_bottleneck_tie_heavy_against_enumeration():
    # births and deaths on a 0.1 grid: many equal costs, zero-persistence
    # points and duplicate points
    rng = random.Random(59)

    def grid_diagram():
        out = []
        for _ in range(rng.randint(0, 4)):
            birth = rng.randint(0, 5) / 10
            out.append((birth, birth + rng.randint(0, 5) / 10))
        return out

    for _ in range(150):
        d1, d2 = grid_diagram(), grid_diagram()
        assert bottleneck_distance(d1, d2) == brute_bottleneck(d1, d2), (d1, d2)


def doubled_graph_bottleneck(d1, d2) -> float:
    """Binary search over the candidate costs with a max-flow perfect-matching test.

    The doubled graph's left side is d1's points then one diagonal slot
    per d2 point; its right side is d2's points then one slot per d1
    point. At cap c a point joins a point within L-infinity cost c and
    its own slot when its half persistence is at most c; slot q_j joins
    slot p_i when p_i joins q_j. (Any perfect matching with all slot
    pairs allowed keeps a perfect one after this restriction: mirror its
    point pairs onto the slots and send the other points to their own.)
    scipy's maximum_bipartite_matching took 1-17 s per probe on these
    graphs at 1,200 pairs, so matching size is found as a unit-capacity
    max flow (Dinic).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    p = np.asarray(d1, dtype=np.float64).reshape(-1, 2)
    q = np.asarray(d2, dtype=np.float64).reshape(-1, 2)
    n1, n2 = len(p), len(q)
    size = n1 + n2
    pair = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)
    diag1 = (p[:, 1] - p[:, 0]) / 2.0
    diag2 = (q[:, 1] - q[:, 0]) / 2.0
    costs = np.unique(np.concatenate(([0.0], diag1, diag2, pair.ravel())))

    def perfect(c: float) -> bool:
        adj = np.zeros((size, size), dtype=bool)
        adj[:n1, :n2] = pair <= c
        adj[:n1, n2:][np.diag_indices(n1)] = diag1 <= c
        adj[n1:, :n2][np.diag_indices(n2)] = diag2 <= c
        adj[n1:, n2:] = adj[:n1, :n2].T
        left, right = np.nonzero(adj)
        source, sink = 0, 2 * size + 1
        tails = np.concatenate([np.zeros(size, dtype=int), 1 + left, 1 + size + np.arange(size)])
        heads = np.concatenate([1 + np.arange(size), 1 + size + right, np.full(size, sink)])
        net = csr_matrix(
            (np.ones(len(tails), dtype=np.int32), (tails, heads)),
            shape=(2 * size + 2, 2 * size + 2),
        )
        return maximum_flow(net, source, sink, method="dinic").flow_value == size

    lo, hi = 0, len(costs) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(costs[lo])


def test_doubled_graph_oracle_against_enumeration():
    pytest.importorskip("scipy")
    rng = random.Random(60)
    for _ in range(40):
        d1 = [(b, b + rng.randint(0, 4) / 10) for b in [rng.randint(0, 4) / 10 for _ in range(rng.randint(0, 3))]]
        d2 = [(b, b + rng.randint(0, 4) / 10) for b in [rng.randint(0, 4) / 10 for _ in range(rng.randint(0, 3))]]
        assert doubled_graph_bottleneck(d1, d2) == brute_bottleneck(d1, d2), (d1, d2)


def test_bottleneck_1200_pairs_no_recursion():
    # the recursive Kuhn solver this replaced raised RecursionError here
    rng = np.random.default_rng(1200)

    def diagram(n):
        births = rng.uniform(0.0, 1.0, n)
        return list(zip(births.tolist(), (births + rng.uniform(0.0, 1.0, n)).tolist()))

    d1, d2 = diagram(1200), diagram(1200)
    got = bottleneck_distance(d1, d2)
    pytest.importorskip("scipy")
    assert got == doubled_graph_bottleneck(d1, d2)


# --- full analysis ---


def make_prices(count=60, seed=58) -> PriceSeries:
    rng = random.Random(seed)
    closes = [100.0]
    for _ in range(count - 1):
        closes.append(closes[-1] * (1.0 + rng.gauss(0.0005, 0.01)))
    dates = tuple(weekdays(dt.date(2024, 1, 2), count))
    return PriceSeries("TEST", dates, np.array(closes))


def scale_threshold(prices: PriceSeries, window: int, q: float = 0.25) -> float:
    """A moderate Rips scale for test speed: a quantile of pairwise distances."""
    returns = compute_returns(normalize(clean_series(prices)[0]))
    entries = distance_matrix(delay_embed(returns, window, 1)).entries
    return float(np.quantile(entries[np.triu_indices(entries.shape[0], 1)], q))


def test_run_analysis_full_fraction_zero_tvard():
    prices = make_prices()
    thr = scale_threshold(prices, 5)
    report = run_analysis(prices, AnalysisConfig(seed=5, fraction=1.0, window=5, threshold=thr))
    assert report.tvard == 0.0
    assert report.baseline_diagrams.diagrams == report.stress_diagrams.diagrams


def test_run_analysis_deterministic_and_seed_sensitive():
    prices = make_prices()
    thr = scale_threshold(prices, 5)
    cfg = AnalysisConfig(seed=42, window=5, threshold=thr)
    r1 = run_analysis(prices, cfg)
    r2 = run_analysis(prices, cfg)
    assert report_to_json(r1) == report_to_json(r2)
    r3 = run_analysis(prices, AnalysisConfig(seed=43, window=5, threshold=thr))
    assert r3.stress_diagrams.diagrams != r1.stress_diagrams.diagrams


def test_run_analysis_tvard_positive_under_subsampling():
    prices = make_prices(120)
    thr = scale_threshold(prices, 5)
    report = run_analysis(prices, AnalysisConfig(seed=9, window=5, threshold=thr))
    assert report.tvard > 0.0


def test_run_analysis_stage_labels():
    count = 40
    dates = tuple(weekdays(dt.date(2024, 1, 2), count))
    constant = PriceSeries("C", dates, np.full(count, 100.0))
    with pytest.raises(PipelineError) as exc_info:
        run_analysis(constant, AnalysisConfig(seed=1))
    assert exc_info.value.stage == "preprocess"

    short = make_prices(12)
    with pytest.raises(PipelineError) as exc_info:
        run_analysis(short, AnalysisConfig(seed=1, window=10))
    assert exc_info.value.stage == "stress-persistence"


def test_run_analysis_bottleneck_block():
    prices = make_prices(40)
    thr = scale_threshold(prices, 5)
    report = run_analysis(
        prices, AnalysisConfig(seed=3, window=5, threshold=thr, with_bottleneck=True)
    )
    assert set(report.bottleneck) == {"h0", "h1", "h2"}
    assert all(v >= 0.0 for v in report.bottleneck.values())

    zero = run_analysis(
        prices,
        AnalysisConfig(seed=3, window=5, threshold=thr, fraction=1.0, with_bottleneck=True),
    )
    assert zero.tvard == 0.0
    assert all(v == 0.0 for v in zero.bottleneck.values())


def test_report_json_schema():
    report = run_analysis(make_prices(30), AnalysisConfig(seed=11, window=5))
    obj = json.loads(report_to_json(report))
    assert list(obj) == [
        "ticker",
        "alpha",
        "var",
        "cvar",
        "tvard",
        "bottleneck",
        "config",
        "baseline_diagrams",
        "stress_diagrams",
    ]
    assert list(obj["config"]) == ["window", "stride", "max_dim", "threshold", "fraction", "seed"]
    assert obj["config"]["threshold"] == "auto"
    assert obj["bottleneck"] is None
    assert obj["ticker"] == "TEST"
    rows = obj["baseline_diagrams"]
    assert all(list(r) == ["dim", "birth", "death"] for r in rows)
    assert any(r["death"] == "inf" for r in rows)
    dims = [r["dim"] for r in rows]
    assert dims == sorted(dims)


def test_analysis_config_validation():
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, alpha=1.0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, window=0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, max_dim=5)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, threshold=-2.0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, fraction=0.0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=-1)


def test_preprocess_returns_and_stage_label():
    prices = make_prices(30)
    returns = preprocess(prices)
    expected = compute_returns(normalize(clean_series(prices)[0]))
    assert np.array_equal(returns.returns, expected.returns)

    count = 40
    dates = tuple(weekdays(dt.date(2024, 1, 2), count))
    with pytest.raises(PipelineError) as exc_info:
        preprocess(PriceSeries("C", dates, np.full(count, 100.0)))
    assert exc_info.value.stage == "preprocess"
