"""Stress sampling, vectorization, TVaRD, bottleneck and report assembly.

The RNG is pinned by frozen output vectors plus a from-the-definition
reimplementation in this file; the bottleneck solver is checked against
explicit enumeration of every partial matching on tiny diagrams.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toporisk import (
    AnalysisConfig,
    InsufficientDataError,
    ParameterError,
    PersistenceDiagramSet,
    PipelineError,
    PriceSeries,
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
from toporisk import tvard
from toporisk.tvard import _saturates, _splitmix64

from conftest import desk_prices, install_mutant, weekdays
from oracles import brute_bottleneck, reference_indices, reference_splitmix64


# --- RNG ---


def test_splitmix64_frozen_vectors():
    g = _splitmix64(0)
    assert [next(g) for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    g = _splitmix64(42)
    assert [next(g) for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_splitmix64_matches_definition():
    rng = random.Random(51)
    for _ in range(20):
        seed = rng.getrandbits(64)
        g = _splitmix64(seed)
        assert [next(g) for _ in range(5)] == reference_splitmix64(seed, 5)


def test_splitmix64_validation():
    # the config holds the seed rule; the stream takes only a seed that passed it
    with pytest.raises(ParameterError, match="^seed must"):
        AnalysisConfig(seed=-1)
    with pytest.raises(ParameterError, match="^seed must"):
        AnalysisConfig(seed=1 << 64)


def test_sample_indices_matches_reference():
    rng = random.Random(52)
    for _ in range(50):
        n = rng.randint(1, 40)
        k = rng.randint(1, n)
        seed = rng.getrandbits(64)
        # returns 0..n-1 are their own indices; the snap turns (k / n) * n back into k
        got = stress_sample(np.arange(n), AnalysisConfig(seed=seed, fraction=k / n)).tolist()
        assert got == reference_indices(n, k, seed)
        assert got == sorted(set(got))
        assert all(0 <= i < n for i in got)


# --- stress sampling ---


def test_stress_sample_cardinality_and_order():
    returns = [0.1, -0.2, 0.3, -0.4]
    for seed in range(10):
        out = stress_sample(np.array(returns), AnalysisConfig(seed=seed, fraction=0.5))
        assert len(out) == 2
        # kept returns appear in their original relative order
        positions = [returns.index(v) for v in out.tolist()]
        assert positions == sorted(positions)


def test_stress_sample_full_fraction_is_identity():
    # k >= 1 is the one sample rule, so a lone return is kept too
    for values in ([0.1, -0.2, 0.3, -0.4, 0.5], [0.25]):
        out = stress_sample(np.array(values), AnalysisConfig(seed=7, fraction=1.0))
        assert out.tolist() == values


def test_stress_sample_deterministic():
    returns = np.array([random.Random(53).gauss(0, 1) for _ in range(30)])
    a = stress_sample(returns, AnalysisConfig(seed=99, fraction=0.5))
    b = stress_sample(returns, AnalysisConfig(seed=99, fraction=0.5))
    assert a.tolist() == b.tolist()


def test_stress_sample_errors():
    for values, fraction in (([0.1], 0.5), ([0.1, 0.2], 0.3)):
        with pytest.raises(PipelineError, match="selects nothing") as caught:
            stress_sample(np.array(values), AnalysisConfig(seed=1, fraction=fraction))
        assert caught.value.stage == "stress-sample"
        assert isinstance(caught.value.__cause__, InsufficientDataError)
    for returns in (["a"], [[0.1], [0.2, 0.3]], object()):
        with pytest.raises(ParameterError, match="^returns must be 1-D numbers"):
            stress_sample(returns, AnalysisConfig(seed=1))
    with pytest.raises(ParameterError, match=r"^returns must be 1-D, got shape \(2, 2\)"):
        stress_sample(np.zeros((2, 2)), AnalysisConfig(seed=1))
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, fraction=0.0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, fraction=1.2)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=-1)


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
    # the essential pair caps at the larger threshold, 2, and sorts first
    # (largest persistence); the empty side pads to the same two pairs
    for va, vb in (vectorize(d, empty), vectorize(empty, d)[::-1]):
        assert va.tolist() == [0.0, 2.0, 0.0, 1.0]
        assert vb.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert va.dtype == vb.dtype == np.float64


def test_vectorize_identical_diagrams():
    rng = random.Random(54)
    for _ in range(20):
        d = random_diagram_set(rng)
        va, vb = vectorize(d, d)
        assert va.tolist() == vb.tolist()
        assert len(va) == 2 * sum(map(len, d.diagrams.values()))
        assert tvard_distance(va, vb) == 0.0


def test_vectorize_extra_zero_pad_slot_contributes_nothing():
    a = diagram_set({1: ((0.2, 0.6),)}, threshold=1.0)
    b = diagram_set({1: ((0.0, 0.0), (0.2, 0.6))}, threshold=1.0)
    va, vb = vectorize(a, b)
    assert va.tolist() == [0.2, 0.6, 0.0, 0.0]
    assert vb.tolist() == [0.2, 0.6, 0.0, 0.0]
    assert tvard_distance(va, vb) == 0.0


def test_vectorize_max_dim_mismatch():
    a = diagram_set({}, threshold=1.0, max_dim=2)
    b = diagram_set({}, threshold=1.0, max_dim=1)
    with pytest.raises(ParameterError):
        vectorize(a, b)


def test_tvard_distance_examples():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert tvard_distance(a, b) == 5.0
    assert tvard_distance(a, a) == 0.0
    assert tvard_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    with pytest.raises(ParameterError, match="shapes"):
        tvard_distance(np.array([0.0, 0.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    # a 2-D input is refused even against an equal shape, not flattened
    square = np.zeros((2, 2))
    with pytest.raises(ParameterError, match="1-D"):
        tvard_distance(square, square)
    with pytest.raises(ParameterError):
        tvard_distance(np.zeros(4), square)
    for bad in (["a", "b"], [[0.0], [1.0, 2.0]], object()):
        for a, b in ((bad, [0.0, 0.0]), ([0.0, 0.0], bad)):
            with pytest.raises(ParameterError, match="^feature vectors must be 1-D numbers"):
                tvard_distance(a, b)


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


def test_bottleneck_pairs_cap_at_the_larger_threshold():
    """The cap rule, on the pairs run_analysis hands to bottleneck_distance.

    run_analysis alone cannot tell the caps apart: explicit thresholds are
    equal on both sides, and at auto only H0's essential classes, capped
    alike, are infinite. So the helper is tested here.
    """
    a = diagram_set({1: ((0.5, math.inf),)}, threshold=2.0)
    b = diagram_set({}, threshold=1.0)
    # capped at 2, (0.5, 2) lies 0.75 from the diagonal; at 1 it would be 0.25
    for d, counterpart in ((a, b), (b, a)):
        assert bottleneck_distance(*tvard._ordered_pairs(d, counterpart, 1)) == 0.75
    assert tvard._ordered_pairs(a, b, 1) == ([(0.5, 2.0)], [])


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
    # infinite, then malformed: a 4-tuple is no two pairs, a death before its birth
    # is no pair (it would read as a negative distance), and a 3-tuple, alone or
    # beside a pair, no pair at all
    malformed = ([(0.0, 1.0, 2.0, 3.0)], [(1.0, 0.0)], [(0.0, 1.0, 2.0)], [(0.0, 1.0), (0.0, 1.0, 2.0)])
    for d1 in ([(0.0, math.inf)], *malformed):
        with pytest.raises(ParameterError):
            bottleneck_distance(d1, [])
        with pytest.raises(ParameterError):
            bottleneck_distance([], d1)


def test_bottleneck_refuses_an_int_beyond_float_range():
    # numpy's conversion raises a bare OverflowError here
    with pytest.raises(ParameterError, match="^a diagram must be .* too large"):
        bottleneck_distance([(10**400, 10**400 + 1)], [])


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


def test_saturates_against_scipy_matching():
    # the matcher alone, on bipartite graphs of 0-12 rows by 0-12 columns
    pytest.importorskip("scipy")
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rng = np.random.default_rng(2000)
    saturated = 0
    for trial in range(2000):
        n_rows, n_cols = rng.integers(0, 13, 2).tolist()
        mask = rng.random((n_rows, n_cols)) < rng.uniform(0.05, 0.7)
        if n_rows and trial % 5 == 0:
            mask[rng.integers(n_rows)] = False  # a row with no neighbours
        adj = [np.flatnonzero(row).tolist() for row in mask]
        # perm_type="column": the column matched to each row, -1 for none
        match = maximum_bipartite_matching(csr_matrix(mask.astype(np.int8)), perm_type="column")
        expected = int((match >= 0).sum()) == n_rows
        assert _saturates(adj, n_cols) == expected, mask
        saturated += expected
    assert 200 < saturated < 1800


def h0_shaped(rng: np.random.Generator, n: int, grid: bool) -> list[tuple[float, float]]:
    """n pairs born at 0, as every H0 pair is; deaths on a 0.1 grid or uniform."""
    deaths = rng.uniform(0.0, 1.0, n)
    return [(0.0, d) for d in (np.round(deaths, 1) if grid else deaths).tolist()]


@pytest.fixture(scope="module")
def floor_cases() -> list[tuple[list, list, float]]:
    """H0-shaped pairs of n points against about n/2, each side larger in turn, with
    the oracles' answer: enumeration up to 6 points a side, the doubled graph to 150."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(19)
    cases = []
    for trial in range(120):
        n, grid = int(rng.integers(1, 7)), trial % 2 == 0
        d1, d2 = h0_shaped(rng, n, grid), h0_shaped(rng, (n + trial // 4 % 2) // 2, grid)
        if trial % 4 >= 2:
            d1, d2 = d2, d1
        cases.append((d1, d2, brute_bottleneck(d1, d2)))
    for trial, n in enumerate((30, 61, 100, 150) * 2):
        d1, d2 = h0_shaped(rng, n, trial < 4), h0_shaped(rng, n // 2 + trial % 2, trial < 4)
        cases.append((d1, d2, doubled_graph_bottleneck(d1, d2)))
    return cases


def assert_floor_matches_oracles(cases) -> None:
    for d1, d2, answer in cases:
        assert tvard.bottleneck_distance(d1, d2) == answer, (d1, d2)
        a, b = np.array(d1).reshape(-1, 2), np.array(d2).reshape(-1, 2)
        cost = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
        floor = tvard._floor(cost, (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0)
        assert floor <= answer, (d1, d2)


def test_floor_against_oracles(floor_cases):
    assert_floor_matches_oracles(floor_cases)


FLOOR_MUTANTS = {
    "pigeonhole one point early": (tvard._floor, "[len(other)]", "[len(other) - 1]"),
    "farther of diagonal and nearest point": (tvard._floor, "np.minimum(", "np.maximum("),
    "floor returned unprobed": (
        tvard.bottleneck_distance,
        "if _matching_exists(cost, half1, half2, costs[start]):",
        "if True:",
    ),
}


@pytest.mark.parametrize("mutant", FLOOR_MUTANTS)
def test_floor_mutant_fails_oracles(mutant, floor_cases, monkeypatch):
    install_mutant(monkeypatch, *FLOOR_MUTANTS[mutant])
    # a floor above every candidate (np.maximum against an empty side) indexes past them
    with pytest.raises((AssertionError, IndexError)):
        assert_floor_matches_oracles(floor_cases)


def count_probes(monkeypatch) -> list[int]:
    """Count ``_matching_exists`` calls into the returned one-element list."""
    calls = [0]
    probe = tvard._matching_exists

    def counted(*args):
        calls[0] += 1
        return probe(*args)

    monkeypatch.setattr(tvard, "_matching_exists", counted)
    return calls


def plain_bisection_probes(d1, d2) -> int:
    """Probes of a binary search over all distinct candidate costs."""
    a, b = np.array(d1).reshape(-1, 2), np.array(d2).reshape(-1, 2)
    cost = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    half1, half2 = (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0
    costs = np.unique(np.concatenate(([0.0], half1, half2, cost.ravel())))
    lo, hi, probes = 0, len(costs) - 1, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if tvard._matching_exists(cost, half1, half2, costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return probes


def test_desk_report_probes_once_per_dimension(monkeypatch):
    closes = desk_prices()
    prices = PriceSeries("DESK", tuple(weekdays(dt.date(2024, 1, 2), len(closes))), closes)
    threshold = scale_threshold(prices, 10, 0.13)
    calls = count_probes(monkeypatch)
    report = run_analysis(prices, AnalysisConfig(seed=0, threshold=threshold, with_bottleneck=True))
    assert calls[0] == len(report.bottleneck) == 3


def test_floor_costs_at_most_one_probe(monkeypatch):
    rng = np.random.default_rng(1900)
    plain = floored = 0
    for trial in range(300):
        n1, n2 = rng.integers(0, 25, 2).tolist()
        grid = trial % 2 == 0
        if trial % 3 == 0:
            d1, d2 = h0_shaped(rng, n1, grid), h0_shaped(rng, n1 // 2, grid)
        else:
            births, spans = rng.uniform(0.0, 1.0, (2, n1 + n2))
            if grid:
                births, spans = np.round(births, 1), np.round(spans, 1)
            pairs = list(zip(births.tolist(), (births + spans).tolist()))
            d1, d2 = pairs[:n1], pairs[n1:]
        expected = plain_bisection_probes(d1, d2)
        calls = count_probes(monkeypatch)
        tvard.bottleneck_distance(d1, d2)
        monkeypatch.undo()
        assert calls[0] <= expected + 1, (d1, d2)
        plain, floored = plain + expected, floored + calls[0]
    assert floored < plain, (floored, plain)


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
    entries = distance_matrix(delay_embed(returns, window, 1))
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

    # a caller's closes whose range overflows: refused, not divided by inf
    huge = PriceSeries("H", dates[:4], np.array([-1.7e308, 1.0, 1.7e308, 2.0]))
    with pytest.raises(PipelineError, match="price range .* is not a finite float") as exc_info:
        run_analysis(huge, AnalysisConfig(seed=1))
    assert exc_info.value.stage == "preprocess"

    short = make_prices(12)
    with pytest.raises(PipelineError) as exc_info:
        run_analysis(short, AnalysisConfig(seed=1, window=10))
    assert exc_info.value.stage == "stress-persistence"

    # 1% of 38 returns selects none
    with pytest.raises(PipelineError) as exc_info:
        run_analysis(make_prices(40), AnalysisConfig(seed=1, fraction=0.01))
    assert exc_info.value.stage == "stress-sample"


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
    # an int beyond float range is refused by the rule, not by float(), and
    # the rule holds for the float stored: this alpha rounds to 0.0
    with pytest.raises(ParameterError, match="threshold must be a finite number"):
        AnalysisConfig(seed=1, threshold=10**400)
    with pytest.raises(ParameterError, match="alpha must"):
        AnalysisConfig(seed=1, alpha=Fraction(1, 10**400))
    # an int too long for repr is named by its bit length; integral rules
    # hold to float range too
    huge = ({"threshold": 10**5000}, {"seed": 10**5000}, {"alpha": 10**5000},
            {"fraction": -10**5000}, {"window": 10**5000})
    for fields in huge:
        with pytest.raises(ParameterError, match=r"got a number beyond float range \(16610 bits\)"):
            AnalysisConfig(**{"seed": 0, **fields})
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=1, fraction=0.0)
    with pytest.raises(ParameterError):
        AnalysisConfig(seed=-1)
    # integers that are not ints, and bools, would reach the report or numpy as such
    wrong_types = (
        {"window": 5.0},
        {"stride": True},
        {"max_dim": 1.0},
        {"max_dim": True},
        {"seed": True},
        {"seed": np.int64(1)},
        {"fraction": True},
        {"fraction": "0.5"},
        {"threshold": True},
        {"alpha": "0.9"},
        {"alpha": True},
    )
    for fields in wrong_types:
        with pytest.raises(ParameterError):
            AnalysisConfig(**{"seed": 0, "threshold": 0.7, **fields})
    # numpy integers are integers, and the report writes them as JSON numbers
    cfg = AnalysisConfig(seed=11, window=np.int64(5), stride=np.int64(1), max_dim=np.int64(2))
    config = json.loads(report_to_json(run_analysis(make_prices(30), cfg)))["config"]
    assert (config["window"], config["stride"], config["max_dim"]) == (5, 1, 2)
    # numpy floats are stored, and reported, as plain floats
    for name, value in (("alpha", 0.9), ("threshold", 0.7), ("fraction", 0.5)):
        value = np.float32(value)
        cfg = AnalysisConfig(**{"seed": 0, "threshold": 0.7, name: value})
        report = json.loads(report_to_json(run_analysis(make_prices(80), cfg)))
        reported = report["alpha"] if name == "alpha" else report["config"][name]
        assert type(getattr(cfg, name)) is float and reported == float(value)


def test_preprocess_returns_and_stage_label():
    prices = make_prices(30)
    returns = preprocess(prices)
    expected = compute_returns(normalize(clean_series(prices)[0]))
    assert type(returns) is np.ndarray and returns.dtype == np.float64
    assert np.array_equal(returns, expected)

    count = 40
    dates = tuple(weekdays(dt.date(2024, 1, 2), count))
    with pytest.raises(PipelineError) as exc_info:
        preprocess(PriceSeries("C", dates, np.full(count, 100.0)))
    assert exc_info.value.stage == "preprocess"
    # errors name the ticker: constant closes fail in normalize; [1, 1, 2]
    # normalizes to [0, 0, 1] and fails in compute_returns, every denominator zero
    cases = (([5.0, 5.0, 5.0], "constant series"), ([1.0, 1.0, 2.0], "all returns dropped"))
    for closes, message in cases:
        with pytest.raises(PipelineError, match=f"^stage preprocess: ACME: {message}"):
            preprocess(PriceSeries("ACME", dates[:3], np.array(closes)))
