"""Delay embedding, Rips filtrations and persistence against independent oracles.

Four routes cross-check each other here:
* compute_persistence (merge-edge pass + coboundary reduction with clearing),
* betti_numbers_at (rank-nullity over Z/2 on column bitmasks),
* dense_betti (dense numpy Gaussian elimination over Z/2),
* boundary_reduction_diagrams (homology, pivot = latest face, clearing
  from the top dimension down), whose diagrams must equal
  compute_persistence's exactly.
The last three, with the brute-force Rips enumeration and the one-shot
distances, live in ``oracles.py`` and share no code with the package.
Hand-written and malformed filtrations are built there too, from
``(vertices, value)`` items, through the public ``Filtration`` constructor.
Plus scipy's minimum spanning tree as the oracle for finite H0 deaths, a
brute-force enumeration of vertex subsets as the oracle for the Rips build,
the mask expansion it replaced as a bit-exact differential oracle for it,
one of cofaces and facets as the oracle for the apparent pairs, and a
step-by-step statement of the edge-collapse rule as the bit-exact oracle
for ``collapse_edges``, whose diagrams must equal the full build's and
whose source mutants must each fail that oracle.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import random
import sys

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree

from toporisk import (
    AnalysisConfig,
    Filtration,
    InsufficientDataError,
    InternalInvariantError,
    ParameterError,
    PointCloud,
    PriceSeries,
    Simplex,
    build_rips_filtration,
    compute_persistence,
    delay_embed,
    distance_matrix,
    load_price_csv,
    preprocess,
)
from toporisk import tda, tvard

from conftest import desk_prices, install_mutant, weekdays
from oracles import (
    betti_numbers_at,
    boundary_reduction_diagrams,
    brute_force_rips,
    dense_betti,
    filtration_of,
    one_shot_distances,
)

SQRT2 = math.sqrt(2.0)


def random_cloud(rng: random.Random, n: int, dim: int) -> PointCloud:
    return PointCloud(np.array([[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]))


def unit_square_filtration(max_dim=2, threshold=None) -> Filtration:
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return build_rips_filtration(distance_matrix(pts), max_dim, threshold)


# --- delay embedding ---


def test_delay_embed_examples():
    cloud = delay_embed([1, 2, 3, 4], window=2, stride=1)
    assert cloud.points.tolist() == [[1, 2], [2, 3], [3, 4]]

    cloud = delay_embed(list(range(10)), window=10, stride=1)
    assert len(cloud) == 1

    cloud = delay_embed([1, 2, 3, 4, 5], window=2, stride=2)
    assert cloud.points.tolist() == [[1, 2], [3, 4]]


def test_delay_embed_point_count():
    rng = random.Random(31)
    for _ in range(50):
        length = rng.randint(1, 60)
        window = rng.randint(1, 12)
        stride = rng.randint(1, 5)
        if length < window:
            with pytest.raises(InsufficientDataError):
                delay_embed([0.0] * length, window, stride)
            continue
        cloud = delay_embed(list(range(length)), window, stride)
        assert len(cloud) == (length - window) // stride + 1
        assert cloud.points.shape[1] == window


def test_delay_embed_validation():
    with pytest.raises(ParameterError):
        delay_embed([1, 2, 3], window=0)
    with pytest.raises(ParameterError):
        delay_embed([1, 2, 3], window=2, stride=0)
    for window, stride in ((2.0, 1), (2, 1.0), (True, 1), (2, True)):
        with pytest.raises(ParameterError):
            delay_embed([1, 2, 3], window=window, stride=stride)
    with pytest.raises(ParameterError):
        delay_embed(np.zeros((2, 2)), window=2)
    # refused by the rule, before the length check would print it
    with pytest.raises(ParameterError, match="window must"):
        delay_embed([1, 2, 3], window=10**5000)


def test_delay_embed_refuses_what_numpy_cannot_read_as_1d_numbers():
    class Series:
        returns = np.array([0.1, 0.2, 0.3])

    # an object with a ``returns`` attribute is no series either
    for series in (Series(), ["a", "b"], [[0.1], [0.2, 0.3]], object()):
        with pytest.raises(ParameterError, match="^series must be 1-D numbers"):
            delay_embed(series, window=1)


# --- distance matrix ---


def test_distance_matrix_examples():
    dm = distance_matrix(PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert dm[0, 1] == 5.0

    dm = distance_matrix(PointCloud(np.array([[7.0]])))
    assert dm.tolist() == [[0.0]]

    dm = distance_matrix(PointCloud(np.array([[0.0], [1.0], [2.0]])))
    assert dm[0, 2] == dm[0, 1] + dm[1, 2] == 2.0


def test_distance_matrix_validation():
    malformed = {
        "symmetric": [[0.0, 1.0], [2.0, 0.0]],
        "finite and >= 0": [[0.0, -1.0], [-1.0, 0.0]],
        "diagonal must be zero": [[1.0, 2.0], [2.0, 1.0]],
        "square": np.zeros((2, 3)),
    }
    # collapse_edges and build_rips_filtration share the one check
    for message, entries in malformed.items():
        with pytest.raises(ParameterError, match=message):
            tda.collapse_edges(entries, 1.0)
        with pytest.raises(ParameterError, match=message):
            build_rips_filtration(entries, 1, 1.0)
    # squared coordinates overflow to inf, which is no distance
    with pytest.raises(ParameterError, match="finite and >= 0"):
        distance_matrix(PointCloud(np.array([[1e200], [-1e200]])))
    for points in (np.zeros(3), np.zeros((0, 3)), np.array([[0.0, math.nan]])):
        with pytest.raises(ParameterError):
            PointCloud(points)


def test_array_entry_points_refuse_what_numpy_cannot_read_as_numbers():
    # numpy's own ValueError, for text or a ragged list, is no ParameterError
    with pytest.raises(ParameterError, match="^points must be numbers"):
        PointCloud([["a"]])
    with pytest.raises(ParameterError, match="^distance matrix must be numbers"):
        build_rips_filtration([["a"]])
    with pytest.raises(ParameterError, match="^distance matrix must be numbers"):
        tda.collapse_edges([[0.0], [0.0, 1.0]], 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 13])
def test_distance_matrix_blocks_match_one_shot(n, monkeypatch):
    # blocks of 3 rows: n below, at, across and at several block boundaries
    points = np.random.default_rng(n).normal(size=(n, 4)) * 10.0 ** np.arange(-2, 2)
    monkeypatch.setattr(tda, "_DISTANCE_BLOCK_CELLS", 3 * n * 4)
    blocked = distance_matrix(PointCloud(points))
    assert blocked.tobytes() == one_shot_distances(points).tobytes()


def test_distance_matrix_block_sizes(monkeypatch):
    calls = []
    einsum = np.einsum

    def counted(spec, a, b):
        calls.append(a.shape)
        return einsum(spec, a, b)

    monkeypatch.setattr(tda.np, "einsum", counted)
    # the desk shape and a year of closes (241 points) are one block each
    for n in (141, 241):
        points = np.random.default_rng(n).normal(size=(n, 10))
        expected = one_shot_distances(points)
        calls.clear()
        assert distance_matrix(PointCloud(points)).tobytes() == expected.tobytes()
        assert calls == [(n, n, 10)]
    # ten years of closes (2,512 points): blocks of 83 rows, 16.7 MB each
    calls.clear()
    distance_matrix(PointCloud(np.zeros((2512, 10))))
    assert calls == [(83, 2512, 10)] * 30 + [(22, 2512, 10)]


# --- filtration construction ---


def test_rips_three_equidistant_points():
    dm = np.ones((3, 3)) - np.eye(3)
    f = build_rips_filtration(dm, max_dim=1, threshold=1.0)
    dims = [len(s.vertices) - 1 for s in f.simplices]
    assert dims.count(0) == 3 and dims.count(1) == 3 and dims.count(2) == 1
    assert all(s.value == 0.0 for s in f.simplices if len(s.vertices) == 1)
    assert all(s.value == 1.0 for s in f.simplices if len(s.vertices) > 1)


def test_rips_threshold_excludes_edge():
    dm = np.array([[0.0, 2.0], [2.0, 0.0]])
    f = build_rips_filtration(dm, max_dim=1, threshold=1.0)
    assert [s.vertices for s in f.simplices] == [(0,), (1,)]


def test_rips_unit_square_max_dim_1():
    f = unit_square_filtration(max_dim=1)
    by_dim: dict[int, list[Simplex]] = {0: [], 1: [], 2: []}
    for s in f.simplices:
        by_dim[len(s.vertices) - 1].append(s)
    assert len(by_dim[0]) == 4
    assert sorted(s.value for s in by_dim[1]) == pytest.approx([1, 1, 1, 1, SQRT2, SQRT2])
    assert len(by_dim[2]) == 4
    assert all(s.value == pytest.approx(SQRT2) for s in by_dim[2])


def test_rips_validation():
    dm = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        build_rips_filtration(dm, max_dim=3)
    for max_dim in (1.0, True):
        with pytest.raises(ParameterError):
            build_rips_filtration(dm, max_dim=max_dim)
    with pytest.raises(ParameterError):
        build_rips_filtration(dm, max_dim=1, threshold=True)
    for threshold in (-0.5, 10**400):
        with pytest.raises(ParameterError, match="threshold must"):
            build_rips_filtration(dm, max_dim=2, threshold=threshold)
    auto = build_rips_filtration(dm + np.array([[0, 1], [1, 0]]), 1, None)
    assert auto.threshold == 1.0
    # None is the only spelling of auto, here as in AnalysisConfig and the CLI
    for text in ("auto", "x", "0.5"):
        with pytest.raises(ParameterError):
            build_rips_filtration(dm, 1, text)
        with pytest.raises(ParameterError):
            AnalysisConfig(seed=0, threshold=text)


def test_rips_canonical_order_and_closure():
    rng = random.Random(32)
    for _ in range(20):
        cloud = random_cloud(rng, rng.randint(2, 8), rng.randint(2, 3))
        dm = distance_matrix(cloud)
        f = build_rips_filtration(dm, 2, None)
        keys = [(s.value, len(s.vertices), s.vertices) for s in f.simplices]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        seen = set()
        for s in f.simplices:
            if len(s.vertices) > 1:
                for drop in range(len(s.vertices)):
                    face = s.vertices[:drop] + s.vertices[drop + 1 :]
                    assert face in seen
            seen.add(s.vertices)
            # value is the diameter of the vertex set
            pairs = itertools.combinations(s.vertices, 2)
            diam = max((dm[a, b] for a, b in pairs), default=0.0)
            assert s.value == diam

    # completeness: exactly the simplices a brute-force enumeration finds
    assert build_rips_filtration(np.zeros((0, 0)), 2, None).simplices == ()
    assert build_rips_filtration(np.zeros((0, 0)), 1, 0.5).simplices == ()
    for trial in range(180):
        # every n in 1..10 at every max_dim, with auto and quantile thresholds,
        # on a 0.1 grid so that many distances tie
        n, max_dim, quantile = trial % 10 + 1, trial // 10 % 3, trial // 30 % 2
        dim = rng.randint(1, 3)
        raw = [[rng.uniform(0, 1) for _ in range(dim)] for _ in range(n)]
        dm = distance_matrix(PointCloud(np.round(np.array(raw), 1)))
        threshold = None
        if quantile and n > 1:
            threshold = float(np.quantile(dm[np.triu_indices(n, 1)], rng.uniform(0.0, 1.0)))
        f = build_rips_filtration(dm, max_dim, threshold)
        expected = brute_force_rips(dm, max_dim, f.threshold)
        assert [(s.vertices, s.value) for s in f.simplices] == expected
        assert all(type(v) is int for s in f.simplices for v in s.vertices)
        assert all(type(s.value) is float for s in f.simplices)


def mask_expansion(entries: np.ndarray, max_dim: int, thr: float) -> tuple[list, list]:
    """The clique expansion over simplices x n masks that the neighbour lists replaced, verbatim."""
    n = entries.shape[0]
    adj = entries <= thr
    ids = np.arange(n)
    verts, vals = ids[:, None], np.zeros(n)
    all_verts, all_vals = [verts], [vals]
    for _ in range(max_dim + 1):
        common = verts[:, -1:] < ids
        for col in verts.T:
            common &= adj[col]
        rows, ks = np.nonzero(common)
        del common
        verts = verts[rows]
        vals = np.maximum(vals[rows], entries[verts, ks[:, None]].max(axis=1))
        verts = np.column_stack((verts, ks))
        order = np.argsort(vals, kind="stable")
        all_verts.append(verts[order])
        all_vals.append(vals[order])
    return all_verts, all_vals


def assert_build_matches_mask_expansion(entries: np.ndarray, max_dim: int, threshold) -> None:
    f = build_rips_filtration(entries, max_dim, threshold)
    verts, vals = mask_expansion(entries, max_dim, f.threshold)
    assert len(f.verts) == len(verts) == len(f.vals) == len(vals) == max_dim + 2
    for got, want in zip(f.verts + f.vals, verts + vals):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # the same bits, signed zeros included
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_build_matches_mask_expansion_on_tie_heavy_clouds():
    rng = random.Random(43)
    for trial in range(40):
        dm = distance_matrix(tie_heavy_cloud(rng, trial % 3))
        n = dm.shape[0]
        threshold = None
        if trial % 4 and n > 1:
            quantile = (0.1, 0.3, 0.6)[trial % 4 - 1]
            threshold = float(np.quantile(dm[np.triu_indices(n, 1)], quantile))
        assert_build_matches_mask_expansion(dm, trial % 3, threshold)
    # off-diagonal -0.0 entries pass the matrix checks and tie with 0.0
    signed = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]])
    assert_build_matches_mask_expansion(signed, 1, 0.0)
    assert_build_matches_mask_expansion(np.zeros((0, 0)), 2, None)


def test_build_matches_mask_expansion_on_fixture_at_5_percent(synthetic_csv):
    dm = distance_matrix(delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1))
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.05))
    assert_build_matches_mask_expansion(dm, 2, threshold)


# --- edge collapse ---


def reference_collapse(entries: np.ndarray, threshold: float) -> np.ndarray:
    """The collapse rule step by step: every event, every candidate dominator.

    Edges go in decreasing (value, vertices) order. At time s, uv is
    dominated when some common neighbour w other than u and v is joined by
    time s to every other common neighbour present at s. A dominated edge
    moves to the next time a common neighbour arrives; with none left it
    is dropped, to the float above the threshold.
    """
    n = entries.shape[0]
    time = {
        (u, v): float(entries[u, v])
        for u in range(n)
        for v in range(u + 1, n)
        if entries[u, v] <= threshold
    }

    def at(a: int, b: int) -> float:
        return time.get((min(a, b), max(a, b)), math.inf)

    for u, v in sorted(time, key=lambda e: (time[e], e), reverse=True):
        s = time[u, v]
        arrival = {x: max(at(u, x), at(v, x)) for x in range(n) if x not in (u, v)}
        while True:
            present = [x for x, a in arrival.items() if a <= s]
            if not any(all(at(w, x) <= s for x in present if x != w) for w in present):
                time[u, v] = s
                break
            later = [a for a in arrival.values() if s < a < math.inf]
            if not later:
                del time[u, v]
                break
            s = min(later)
    out = entries.copy()
    within = np.triu(entries <= threshold, 1)
    out[within | within.T] = math.nextafter(threshold, math.inf)
    for (u, v), s in time.items():
        out[u, v] = out[v, u] = s
    return out


def collapse_corpus():
    """Tie-heavy clouds at quantile and maximum thresholds, then two clouds without ties."""
    rng = random.Random(47)
    for trial in range(150):
        dm = distance_matrix(tie_heavy_cloud(rng, trial % 3))
        n = dm.shape[0]
        if n > 1:
            dists = dm[np.triu_indices(n, 1)]
            yield dm, float(np.quantile(dists, (0.3, 0.6)[trial % 2]))
        yield dm, float(dm.max())
    for seed in (1, 2):
        dm = distance_matrix(random_cloud(random.Random(seed), 24, 3))
        yield dm, float(np.quantile(dm[np.triu_indices(24, 1)], 0.4))


@pytest.fixture(scope="module")
def collapse_references() -> list[tuple[np.ndarray, float, bytes]]:
    return [(dm, t, reference_collapse(dm, t).tobytes()) for dm, t in collapse_corpus()]


def test_collapse_matches_reference_rule(collapse_references):
    changed = 0
    for dm, threshold, reference in collapse_references:
        collapsed = tda.collapse_edges(dm, threshold)
        assert collapsed.tobytes() == reference
        changed += not np.array_equal(collapsed, dm)
    assert changed > 200


COLLAPSE_MUTANTS = {
    "a kept edge leaves now at once": (tda.collapse_edges, "if t != value:", "if True:"),
    "a moved edge waits for the value to change": (
        tda.collapse_edges, "now[u] ^= 1 << v\n        now[v] ^= 1 << u", "kept.append((u, v))"
    ),
    "kept edges never leave now": (tda.collapse_edges, "kept.append((u, v))", "pass"),
    "domination tested on adj": (
        tda.collapse_edges, "if common & now[w] | bit", "if common & adj[w] | bit"
    ),
    "drop instead of delay": (tda.collapse_edges, "moved[u, v] = s", "moved[u, v] = s = inf"),
    "< for <= in _dominator": (tda._dominator, "near[x] <= s", "near[x] < s"),
}


@pytest.mark.parametrize("mutant", COLLAPSE_MUTANTS)
def test_collapse_mutant_fails_reference(mutant, collapse_references, monkeypatch):
    install_mutant(monkeypatch, *COLLAPSE_MUTANTS[mutant])
    assert any(
        tda.collapse_edges(dm, threshold).tobytes() != reference
        for dm, threshold, reference in collapse_references
    )


def assert_collapse_keeps_diagrams(dm: np.ndarray, threshold: float) -> list:
    """Diagrams equal with and without the collapse at max_dim 0-2; the collapsed counts."""
    collapsed = tda.collapse_edges(dm, threshold)
    for max_dim in range(3):
        full = compute_persistence(build_rips_filtration(dm, max_dim, threshold))
        f = build_rips_filtration(collapsed, max_dim, threshold)
        assert compute_persistence(f) == full
    return [len(vals) for vals in f.vals]


def test_collapse_keeps_diagrams_on_tie_heavy_clouds():
    for dm, threshold in collapse_corpus():
        assert_collapse_keeps_diagrams(dm, threshold)


def test_collapse_keeps_diagrams_on_desk_shape():
    closes = desk_prices()
    dates = tuple(weekdays(dt.date(2024, 1, 2), len(closes)))
    returns = preprocess(PriceSeries("DESK", dates, closes))
    dm = distance_matrix(delay_embed(returns, 10, 1))
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.13))
    counts = assert_collapse_keeps_diagrams(dm, threshold)
    # against 1,283 edges, 8,483 triangles and 36,608 tetrahedra uncollapsed
    assert counts == [141, 563, 1731, 3453]


@pytest.mark.parametrize(
    "quantile, expected",
    [
        # W1: against 1,446 / 6,923 / 22,529 uncollapsed
        (0.05, [241, 777, 2396, 5588]),
        # W2: against 2,892 / 26,104 / 160,368 uncollapsed
        (0.10, [241, 1344, 6821, 26860]),
    ],
)
def test_collapse_keeps_diagrams_on_fixture(synthetic_csv, quantile, expected):
    dm = distance_matrix(delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1))
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], quantile))
    assert assert_collapse_keeps_diagrams(dm, threshold) == expected


def test_collapse_threshold_rules():
    dm = distance_matrix(random_cloud(random.Random(3), 12, 2))
    top = float(dm.max())
    collapsed = tda.collapse_edges(dm, top)
    dropped = collapsed > top
    assert dropped.any()
    assert np.all(collapsed[dropped] == math.nextafter(top, math.inf))
    # entries above the threshold are no edges, and stay as they were
    low = float(np.median(dm))
    above = dm > low
    assert np.array_equal(tda.collapse_edges(dm, low)[above], dm[above])
    for threshold in (None, sys.float_info.max, -1.0, math.nan):
        with pytest.raises(ParameterError):
            tda.collapse_edges(dm, threshold)


@pytest.mark.parametrize("kind", ["half", "top", "double", "auto", "largest float"])
def test_collapse_in_pipeline_at_every_threshold(kind, monkeypatch):
    """Dropped edges stay out of the build at every threshold, None and the largest float too.

    The diagrams equal the full build's and keep the threshold asked for,
    None resolved to the largest entry: it caps infinite deaths.
    """
    returns = np.random.default_rng(4).normal(size=40)
    dm = distance_matrix(delay_embed(returns, 3, 1))
    top = float(dm.max())
    threshold = {
        "half": top / 2, "top": top, "double": 2 * top, "auto": None,
        "largest float": sys.float_info.max,
    }[kind]
    built = []

    def build(*args):
        built.append(build_rips_filtration(*args))
        return built[-1]

    monkeypatch.setattr(tvard, "build_rips_filtration", build)
    cfg = AnalysisConfig(seed=0, window=3, threshold=threshold)
    got = tvard._diagrams_for(returns, cfg, "baseline-persistence")
    resolved = top if threshold is None else threshold
    assert got == compute_persistence(build_rips_filtration(dm, 2, resolved))
    assert got.threshold == resolved
    scale = min(resolved, top)
    kept = np.count_nonzero(np.triu(tda.collapse_edges(dm, scale) <= scale, 1))
    assert len(built[0].vals[1]) == kept < np.count_nonzero(np.triu(dm <= scale, 1))


# --- persistence ---


def test_two_points_h0():
    dm = np.array([[0.0, 3.5], [3.5, 0.0]])
    d = compute_persistence(build_rips_filtration(dm, 2, None))
    assert d.diagrams[0] == ((0.0, 3.5), (0.0, math.inf))
    assert d.diagrams[1] == ()
    assert d.diagrams[2] == ()


def test_unit_square_h1():
    d = compute_persistence(unit_square_filtration())
    assert len(d.diagrams[1]) == 1
    birth, death = d.diagrams[1][0]
    assert birth == 1.0
    assert abs(death - SQRT2) < 1e-12
    assert d.diagrams[2] == ()
    # three merges at scale 1, one essential component
    assert d.diagrams[0] == ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, math.inf))


def test_h0_deaths_match_mst():
    rng = random.Random(33)
    for _ in range(30):
        cloud = random_cloud(rng, rng.randint(2, 12), 3)
        dm = distance_matrix(cloud)
        d = compute_persistence(build_rips_filtration(dm, 0, None))
        deaths = sorted(death for _, death in d.diagrams[0] if math.isfinite(death))
        mst_lengths = sorted(minimum_spanning_tree(dm).data)
        assert len(deaths) == len(mst_lengths)
        assert all(abs(a - b) < 1e-9 for a, b in zip(deaths, mst_lengths))


def test_h0_births_zero_and_one_essential_when_connected():
    rng = random.Random(34)
    for _ in range(20):
        cloud = random_cloud(rng, rng.randint(2, 9), 2)
        d = compute_persistence(build_rips_filtration(distance_matrix(cloud), 2, None))
        assert all(birth == 0.0 for birth, _ in d.diagrams[0])
        essentials = [p for p in d.diagrams[0] if math.isinf(p[1])]
        assert len(essentials) == 1  # auto threshold always connects the cloud


def test_zero_persistence_pairs_suppressed():
    pts = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    d = compute_persistence(build_rips_filtration(distance_matrix(pts), 1, None))
    # the duplicate point merges at scale 0; that pair carries no information
    assert d.diagrams[0] == ((0.0, 1.0), (0.0, math.inf))
    assert all(death > birth for q in d.diagrams for birth, death in d.diagrams[q])


def on_both_lookup_paths(call) -> tuple:
    """``call()`` with facets found through the dense key index, then by sort and search."""
    dense = call()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tda, "_INDEX_SLOTS", 0)
        return dense, call()


def assert_raises_alike_on_both_paths(
    f: Filtration, match: str | None = None, error: type = InternalInvariantError
) -> None:
    """compute_persistence(f) raises the same ``error`` on both lookup paths."""

    def raised() -> tuple:
        with pytest.raises(error, match=match) as info:
            compute_persistence(f)
        return type(info.value), str(info.value)

    dense, searched = on_both_lookup_paths(raised)
    assert dense == searched


def test_malformed_filtrations_rejected():
    tri_before_edges = filtration_of(
        (
            Simplex((0,), 0.0),
            Simplex((1,), 0.0),
            Simplex((2,), 0.0),
            Simplex((0, 1, 2), 1.0),
        ),
        1.0,
        1,
    )
    assert_raises_alike_on_both_paths(tri_before_edges)

    above_threshold = filtration_of(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 2.0)), 1.0, 0
    )
    assert_raises_alike_on_both_paths(above_threshold)

    # a NaN edge would merge its vertices yet leave no H0 pair
    nan_value = filtration_of(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), math.nan)), 1.0, 0
    )
    assert_raises_alike_on_both_paths(nan_value, "threshold")
    # the threshold is a parameter, checked by its rule: a NaN one would admit
    # every value, and a string one cannot be compared with the values
    edge = (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 5.0))
    for threshold in (math.nan, math.inf, "1", -1.0):
        f = filtration_of(edge, threshold, 0)
        assert_raises_alike_on_both_paths(f, "^threshold must be", ParameterError)

    bad_vertex_order = filtration_of(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((1, 0), 1.0)), 1.0, 0
    )
    assert_raises_alike_on_both_paths(bad_vertex_order)

    verts3 = tuple(Simplex((i,), 0.0) for i in range(3))
    face_above_coface = filtration_of(
        verts3
        + (
            Simplex((0, 1), 1.0),
            Simplex((0, 2), 1.0),
            Simplex((0, 1, 2), 1.5),
            Simplex((1, 2), 2.0),
        ),
        2.0,
        1,
    )
    assert_raises_alike_on_both_paths(face_above_coface, "face")

    # a missing vertex is an id at or past the vertex count
    edge_over_missing_vertex = filtration_of(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 2), 1.0)), 1.0, 0
    )
    assert_raises_alike_on_both_paths(edge_over_missing_vertex, r"vertex id outside \[0, 2\)")
    # an infinite coface value needs an infinite threshold, which
    # compute_persistence refuses; the facet check alone, within it, still
    # finds the missing face under the infinite coface
    infinite_over_missing_edge = filtration_of(
        tuple(Simplex((v,), 0.0) for v in range(3))
        + (Simplex((0, 1), math.inf), Simplex((0, 2), math.inf), Simplex((0, 1, 2), math.inf)),
        math.inf,
        1,
    )
    assert_raises_alike_on_both_paths(
        infinite_over_missing_edge, "^threshold must be", ParameterError
    )

    def missing_face() -> str:
        f = infinite_over_missing_edge
        with pytest.raises(InternalInvariantError, match=r"face \(1, 2\) of \(0, 1, 2\)") as info:
            tda._facet_positions(f.verts, f.vals, f.threshold, 2)
        return str(info.value)

    dense, searched = on_both_lookup_paths(missing_face)
    assert dense == searched

    duplicate = filtration_of(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 1.0), Simplex((0, 1), 1.0)),
        1.0,
        0,
    )
    assert_raises_alike_on_both_paths(duplicate)

    verts4 = tuple(Simplex((i,), 0.0) for i in range(4))
    edges4 = tuple(Simplex(e, 1.0) for e in itertools.combinations(range(4), 2))
    tris4 = tuple(Simplex(t, 1.0) for t in itertools.combinations(range(4), 3))
    tet = (Simplex((0, 1, 2, 3), 1.0),)
    open_tet = verts4 + edges4 + tris4[:3] + tet
    assert_raises_alike_on_both_paths(filtration_of(open_tet, 1.0, 1))
    assert_raises_alike_on_both_paths(filtration_of(open_tet, 1.0, 2), "face")
    # the same tetrahedron with all four triangles is still one dimension too many
    closed_tet = verts4 + edges4 + tris4 + tet
    closed = filtration_of(closed_tet, 1.0, 1)
    assert_raises_alike_on_both_paths(closed, "one vertex and one value array per dimension 0..2")
    # and without the top dimension's arrays, one too few
    short = Filtration(closed.verts[:2], closed.vals[:2], 1.0, 1)
    assert_raises_alike_on_both_paths(short, "per dimension 0..2, got 2 and 2")


def test_filtration_max_dim_out_of_range_rejected():
    for max_dim in (-1, 3):
        with pytest.raises(ParameterError, match="max_dim"):
            compute_persistence(filtration_of((Simplex((0,), 0.0),), 1.0, max_dim))


def test_filtration_threshold_none_refused_with_a_rule_that_refuses_it():
    # build_rips_filtration reads None as "auto" before its check; a filtration
    # holds the number it was built at, so its rule does not offer None
    with pytest.raises(ParameterError) as info:
        compute_persistence(filtration_of((Simplex((0,), 0.0),), None, 0))
    assert str(info.value) == "threshold must be a finite number >= 0, got None"


def test_hand_built_arrays_checked_like_builder_arrays():
    verts2 = (Simplex((0,), 0.0), Simplex((1,), 0.0))
    # the same edge twice, at different values, is still a duplicate
    twice = filtration_of(verts2 + (Simplex((0, 1), 1.0), Simplex((0, 1), 2.0)), 2.0, 0)
    with pytest.raises(InternalInvariantError, match="duplicate"):
        compute_persistence(twice)
    # out of canonical order, though every facet precedes its coface:
    # tied edges out of vertex order
    tied = verts2 + (Simplex((2,), 0.0), Simplex((1, 2), 1.0), Simplex((0, 1), 1.0))
    with pytest.raises(InternalInvariantError, match="order violated"):
        compute_persistence(filtration_of(tied, 1.0, 0))


# case -> (dimension, its replacement vertex or value array, the message expected),
# each applied to a path of three vertices and edges (0, 1) and (1, 2)
IDS, SHAPE = r"vertex id outside \[0, 3\)", r"integer vertex array of shape \(values, "
MALFORMED_ARRAYS = {
    "negative id": (1, np.array([[-1, 1], [1, 2]]), None, IDS),
    "id at the vertex count": (1, np.array([[0, 1], [1, 3]]), None, IDS),
    "float vertices": (0, np.array([[0.0], [1.0], [2.0]]), None, SHAPE + "1"),
    "width mismatch": (1, np.array([[0, 1, 2], [0, 1, 2]]), None, SHAPE + "2"),
    "values of another length": (1, None, np.array([1.0]), SHAPE + "2"),
    "integer values": (1, None, np.array([1, 1]), SHAPE + "2"),
    "vertex at -0.0": (0, None, np.array([0.0, -0.0, 0.0]), r"simplex \(1,\) has value -0\.0"),
}


@pytest.mark.parametrize("case", MALFORMED_ARRAYS)
def test_caller_arrays_checked_before_keying(case):
    """Shapes, dtypes, -0.0 values and vertex ids are checked before keys are taken.

    Keys are sized by the vertex count: an id at or past it would index past their table.
    """
    path = tuple(Simplex((v,), 0.0) for v in range(3)) + (Simplex((0, 1), 1.0), Simplex((1, 2), 1.0))
    good = filtration_of(path, 1.0, 0)
    assert compute_persistence(good).diagrams == {0: ((0.0, 1.0), (0.0, 1.0), (0.0, math.inf))}
    q, v, x, message = MALFORMED_ARRAYS[case]
    verts, vals = list(good.verts), list(good.vals)
    verts[q] = verts[q] if v is None else v
    vals[q] = vals[q] if x is None else x
    assert_raises_alike_on_both_paths(Filtration(tuple(verts), tuple(vals), 1.0, 0), message)


def test_simplex_keys_refuse_int64_overflow():
    # the largest point count whose tetrahedron keys, all below C(n, 4), fit in int64
    n = 100_000
    while math.comb(n + 1, 4) <= np.iinfo(np.int64).max:
        n += 1
    table = tda._binomial_table(n, 4)
    assert table[-1].tolist() == [math.comb(n - 1, k) for k in (1, 2, 3, 4)]
    with pytest.raises(ParameterError, match=str(n + 1)):
        tda._binomial_table(n + 1, 4)
    # three-vertex keys fit far beyond that
    assert tda._binomial_table(n + 1, 3)[-1, 2] == math.comb(n, 3)


def tie_heavy_cloud(rng: random.Random, kind: int) -> PointCloud:
    """Uniform points, a noisy circle (H1) or a noisy octahedron (H2), on a 0.1 grid.

    Rounding to the grid makes many distances equal, so ties in value
    between simplices are common.
    """
    if kind == 0:
        dim = rng.randint(1, 3)
        raw = [[rng.uniform(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 11))]
    elif kind == 1:
        n = rng.randint(4, 10)
        angles = [2 * math.pi * k / n for k in range(n)]
        centres = [(math.cos(a), math.sin(a)) for a in angles]
        raw = [[c + rng.uniform(-0.15, 0.15) for c in centre] for centre in centres]
    else:
        centres = [tuple(sign * (axis == i) for i in range(3)) for axis in range(3) for sign in (1, -1)]
        raw = [[c + rng.uniform(-0.15, 0.15) for c in centre] for centre in centres]
        raw += [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(rng.randint(0, 3))]
    return PointCloud(np.round(np.array(raw), 1))


def test_pairing_matches_boundary_reduction_oracle():
    rng = random.Random(41)
    nonempty = [0, 0, 0]
    for trial in range(240):
        max_dim = trial % 3
        dm = distance_matrix(tie_heavy_cloud(rng, rng.randrange(3)))
        n = len(dm)
        if trial % 2 and n > 1:
            dists = dm[np.triu_indices(n, 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        else:
            threshold = None
        f = build_rips_filtration(dm, max_dim, threshold)
        result = compute_persistence(f)
        diagrams = result.diagrams
        assert diagrams == boundary_reduction_diagrams(f.simplices, f.max_dim)
        # the same simplices, written out as items and rebuilt, give the same diagrams
        assert compute_persistence(filtration_of(f.simplices, f.threshold, f.max_dim)) == result
        for q, pairs in diagrams.items():
            nonempty[q] += bool(pairs)
    # every dimension is exercised, not just H0
    assert min(nonempty) >= 10, nonempty


def test_pairing_matches_oracle_on_fixture_at_5_percent(synthetic_csv):
    cloud = delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1)
    dm = distance_matrix(cloud)
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.05))
    f = build_rips_filtration(dm, 2, threshold)
    assert sum(1 for s in f.simplices if len(s.vertices) == 4) == 22529
    assert compute_persistence(f).diagrams == boundary_reduction_diagrams(f.simplices, f.max_dim)


# --- apparent pairs: brute-force enumeration, no shared code ---


def faces_of(verts: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [verts[:i] + verts[i + 1 :] for i in range(len(verts))]


def enumerated_apparent_pairs(f: Filtration) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(sigma, tau) with tau sigma's earliest coface and sigma tau's latest facet.

    Earliest and latest are positions in ``f.simplices``; sigma ranges over
    dimensions 1..max_dim, the columns the cohomology reduction reduces.
    """
    rank = {s.vertices: i for i, s in enumerate(f.simplices)}
    earliest_coface: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s in f.simplices:
        if 2 <= len(s.vertices) - 1 <= f.max_dim + 1:
            for face in faces_of(s.vertices):
                earliest_coface.setdefault(face, s.vertices)
    return {
        (sigma, tau)
        for sigma, tau in earliest_coface.items()
        if max(faces_of(tau), key=rank.__getitem__) == sigma
    }


def negative_simplices(f: Filtration) -> set[tuple[int, ...]]:
    """Simplices of dimensions 1..max_dim whose boundary is independent of earlier ones.

    Each kills a class of the dimension below, so clearing skips its column.
    Boundaries are bitmasks over face positions, eliminated over Z/2.
    """
    position: dict[int, dict[tuple[int, ...], int]] = {q: {} for q in range(f.max_dim + 1)}
    basis: dict[int, dict[int, int]] = {q: {} for q in range(f.max_dim + 1)}
    negative = set()
    for s in f.simplices:
        q = len(s.vertices) - 1
        if q > f.max_dim:
            continue
        position[q][s.vertices] = len(position[q])
        mask = sum(1 << position[q - 1][face] for face in faces_of(s.vertices)) if q else 0
        while mask:
            high = mask.bit_length() - 1
            if high not in basis[q]:
                basis[q][high] = mask
                negative.add(s.vertices)
                break
            mask ^= basis[q][high]
    return negative


def marked_apparent_pairs(f: Filtration) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs the numpy pass marks, as vertex tuples."""
    facets = tda._facet_positions(f.verts, f.vals, f.threshold, f.max_dim + 1)
    marked = set()
    for q in range(1, f.max_dim + 1):
        _, _, cols, pivots = tda._coboundary_csr(facets[q + 1], len(f.vals[q]))
        marked |= {
            (tuple(f.verts[q][c].tolist()), tuple(f.verts[q + 1][p].tolist()))
            for c, p in zip(cols.tolist(), pivots.tolist())
        }
    return marked


def assert_apparent_pairs_enumerated(f: Filtration) -> int:
    marked = marked_apparent_pairs(f)
    assert marked == enumerated_apparent_pairs(f)
    # an apparent column keeps its pivot, so clearing never skips it
    assert not {sigma for sigma, _ in marked} & negative_simplices(f)
    return len(marked)


def test_apparent_pairs_match_enumeration_on_tie_heavy_clouds():
    # the clouds and thresholds of test_pairing_matches_boundary_reduction_oracle
    rng = random.Random(41)
    marked = 0
    for trial in range(240):
        dm = distance_matrix(tie_heavy_cloud(rng, rng.randrange(3)))
        threshold = None
        if trial % 2 and len(dm) > 1:
            dists = dm[np.triu_indices(len(dm), 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        marked += assert_apparent_pairs_enumerated(build_rips_filtration(dm, trial % 3, threshold))
    assert marked > 2000, marked


def test_apparent_pairs_match_enumeration_on_fixture_at_5_percent(synthetic_csv):
    cloud = delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1)
    dm = distance_matrix(cloud)
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.05))
    f = build_rips_filtration(dm, 2, threshold)
    # most of the 1,446 edge and 6,923 triangle columns are apparent
    assert assert_apparent_pairs_enumerated(f) > 0.7 * (1446 + 6923)


# --- columns at the edges: no cofaces, all cleared, empty top dimension ---


def test_dimension_with_simplices_but_no_cofaces():
    # edges and no triangle, at max_dim 1 and 2
    dm = distance_matrix(PointCloud(np.array([[0.0], [1.0], [2.0]])))
    for max_dim in (1, 2):
        f = build_rips_filtration(dm, max_dim, 1.0)
        assert f.vals[1].size == 2 and f.vals[2].size == 0
        d = compute_persistence(f)
        assert d.diagrams == boundary_reduction_diagrams(f.simplices, f.max_dim)
        assert d.diagrams[0] == ((0.0, 1.0), (0.0, 1.0), (0.0, math.inf))
    # a hollow tetrahedron: four triangles, no tetrahedron, so one lives forever
    tet = (0, 1, 2, 3)
    hollow = filtration_of(
        tuple(Simplex((v,), 0.0) for v in tet)
        + tuple(Simplex(e, 1.0) for e in itertools.combinations(tet, 2))
        + tuple(Simplex(t, 2.0) for t in itertools.combinations(tet, 3)),
        2.0,
        2,
    )
    d = compute_persistence(hollow)
    assert d.diagrams == boundary_reduction_diagrams(hollow.simplices, hollow.max_dim)
    assert d.diagrams[1] == ((1.0, 2.0),) * 3 and d.diagrams[2] == ((2.0, math.inf),)


def test_dimension_whose_columns_are_all_cleared():
    # a square with one diagonal, both triangles filled: each kills a loop
    square = filtration_of(
        tuple(Simplex((v,), 0.0) for v in range(4))
        + tuple(Simplex(e, 1.0) for e in ((0, 1), (0, 3), (1, 2), (2, 3)))
        + (Simplex((0, 2), 1.5), Simplex((0, 1, 2), 2.0), Simplex((0, 2, 3), 2.0)),
        2.0,
        2,
    )
    assert {(0, 1, 2), (0, 2, 3)} <= negative_simplices(square)
    d = compute_persistence(square)
    assert d.diagrams == boundary_reduction_diagrams(square.simplices, square.max_dim)
    assert d.diagrams[1] == ((1.0, 2.0), (1.5, 2.0)) and d.diagrams[2] == ()


def test_empty_top_dimension():
    # a unit square below its diagonal: one loop, no triangle, no tetrahedron
    for max_dim in (1, 2):
        f = unit_square_filtration(max_dim, 1.0)
        assert f.vals[-1].size == 0
        d = compute_persistence(f)
        assert d.diagrams == boundary_reduction_diagrams(f.simplices, f.max_dim)
        assert d.diagrams[1] == ((1.0, math.inf),)


@pytest.mark.parametrize("right", [256, 257])
def test_columns_on_each_side_of_16_bit_sort_keys(right):
    # complete bipartite K_{256, right} plus edge (0, 1) and two triangles on it:
    # 65,536 edges sort on 16-bit keys, 65,793 on 32-bit ones
    left = range(256)
    edges = [(a, b) for a in left for b in range(256, 256 + right)]
    if right == 256:
        edges.remove((255, 511))
    simplices = (
        tuple(Simplex((v,), 0.0) for v in range(256 + right))
        + tuple(Simplex(e, 1.0) for e in edges)
        + (Simplex((0, 1), 2.0), Simplex((0, 1, 256), 3.0), Simplex((0, 1, 257), 3.0))
    )
    f = filtration_of(simplices, 3.0, 1)
    assert len(edges) + 1 == {256: 65_536, 257: 65_793}[right]
    d = compute_persistence(f)
    assert d.diagrams == boundary_reduction_diagrams(f.simplices, f.max_dim)
    # the triangles kill the youngest loop and one born at 1.0; the others stay
    loops = len(edges) - (256 + right)
    assert d.diagrams[1] == ((1.0, 3.0),) + ((1.0, math.inf),) * loops + ((2.0, 3.0),)


# --- facet lookup: the dense key index against sort and search ---


def assert_both_paths_find_the_same_facets(f: Filtration) -> None:
    top = f.max_dim + 1
    dense, searched = on_both_lookup_paths(
        lambda: tda._facet_positions(f.verts, f.vals, f.threshold, top)
    )
    assert len(dense) == len(searched) == top + 1
    for got, want in zip(dense, searched):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_facet_lookup_paths_agree_on_tie_heavy_clouds():
    rng = random.Random(44)
    for trial in range(120):
        dm = distance_matrix(tie_heavy_cloud(rng, rng.randrange(3)))
        threshold = None
        if trial % 2 and len(dm) > 1:
            dists = dm[np.triu_indices(len(dm), 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        assert_both_paths_find_the_same_facets(build_rips_filtration(dm, trial % 3, threshold))


def test_facet_lookup_paths_agree_on_fixture_at_5_percent(synthetic_csv, monkeypatch):
    dm = distance_matrix(delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1))
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.05))
    f = build_rips_filtration(dm, 2, threshold)
    assert_both_paths_find_the_same_facets(f)

    # 241 points, the W1 and W2 shape, and 141, the desk shape, look every
    # facet up in the index: the largest, for the tetrahedra, has C(n, 3) slots
    assert len(dm) == 241 and math.comb(241, 3) <= tda._INDEX_SLOTS
    assert math.comb(141, 3) <= tda._INDEX_SLOTS

    def no_search(*args, **kwargs):
        raise AssertionError("facet found by np.searchsorted")

    monkeypatch.setattr(np, "searchsorted", no_search)
    tda._facet_positions(f.verts, f.vals, f.threshold, 3)


def test_sort_path_at_its_real_trigger(monkeypatch):
    # 400 points: the tetrahedra's facet index would need C(400, 3) > 2**23
    # slots, so triangles are found by sort and search, with no patch
    pts = np.random.default_rng(0).standard_normal((400, 3))
    dm = distance_matrix(PointCloud(pts))
    f = build_rips_filtration(dm, 2, float(np.quantile(dm[np.triu_indices(400, 1)], 0.01)))
    assert [len(v) for v in f.vals] == [400, 798, 679, 379]
    assert math.comb(400, 3) > tda._INDEX_SLOTS >= math.comb(400, 2)
    search, searched_dims = tda._search, []

    def spy(keys, order, queries):
        searched_dims.append(len(queries))
        return search(keys, order, queries)

    monkeypatch.setattr(tda, "_search", spy)
    searched = tda._facet_positions(f.verts, f.vals, f.threshold, 3), compute_persistence(f)
    # each of a tetrahedron's four faces, in both calls
    assert searched_dims == [379] * 8
    monkeypatch.setattr(tda, "_INDEX_SLOTS", 1 << 24)
    dense = tda._facet_positions(f.verts, f.vals, f.threshold, 3), compute_persistence(f)
    assert len(searched_dims) == 8
    for got, want in zip(searched[0], dense[0]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert searched[1] == dense[1]


def assert_h0_contract(f: Filtration) -> None:
    """``_merge_edges`` pairs as the cohomology reducer does at q = 0, with no clearing."""
    facets = tda._facet_positions(f.verts, f.vals, f.threshold, f.max_dim + 1)
    n = len(f.vals[0])
    roots, edges, survivors = tda._merge_edges(facets[1], n, None)
    cols, pivots, zeros = tda._reduce_coboundaries(facets[1], n, np.zeros(n, dtype=bool))
    assert sorted(edges.tolist()) == sorted(pivots.tolist())
    assert len(survivors) == len(zeros)
    # each absorbing edge absorbs a distinct root, and every vertex is
    # absorbed once or survives
    assert len(set(roots.tolist())) == len(roots)
    assert sorted(roots.tolist() + survivors.tolist()) == list(range(n))
    assert sorted(cols.tolist() + zeros.tolist()) == list(range(n))


def test_h0_contract_on_tie_heavy_clouds():
    # the clouds and thresholds of test_pairing_matches_boundary_reduction_oracle
    rng = random.Random(41)
    for trial in range(240):
        dm = distance_matrix(tie_heavy_cloud(rng, rng.randrange(3)))
        threshold = None
        if trial % 2 and len(dm) > 1:
            dists = dm[np.triu_indices(len(dm), 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        assert_h0_contract(build_rips_filtration(dm, trial % 3, threshold))


def test_h0_contract_on_fixture_at_5_percent(synthetic_csv):
    dm = distance_matrix(delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1))
    threshold = float(np.quantile(dm[np.triu_indices(len(dm), 1)], 0.05))
    assert_h0_contract(build_rips_filtration(dm, 2, threshold))


@pytest.mark.parametrize("count", [255, 256, 65_535, 65_536])
def test_facet_index_empty_slots_on_each_side_of_a_dtype(count):
    # ``count`` edges: a triangle's three, then the first of K_{256, 256}'s.
    # Empty index slots hold ``count``, which fits uint8 (uint16) at 255
    # (65,535) and widens the index to uint16 (uint32) at 256 (65,536)
    bipartite = [(a, b) for a in range(256) for b in range(256, 512)]
    edges = sorted([(0, 1), (0, 2), (1, 2)] + bipartite[: count - 3])
    simplices = (
        tuple(Simplex((v,), 0.0) for v in range(512))
        + tuple(Simplex(e, 1.0) for e in edges)
        + (Simplex((0, 1, 2), 2.0),)
    )
    assert len(edges) == len(set(edges)) == count
    f = filtration_of(simplices, 3.0, 1)
    assert_both_paths_find_the_same_facets(f)
    # the triangle kills the loop its edges close
    assert compute_persistence(f).diagrams[1][0] == (1.0, 2.0)
    # (256, 257) is no edge, so the triangle on it lacks a face
    missing = filtration_of(simplices + (Simplex((0, 256, 257), 3.0),), 3.0, 1)
    assert_raises_alike_on_both_paths(missing, r"face \(256, 257\) of \(0, 256, 257\) missing")


def test_pairing_matches_betti_numbers():
    rng = random.Random(35)
    for _ in range(40):
        cloud = random_cloud(rng, rng.randint(2, 8), rng.randint(2, 4))
        f = build_rips_filtration(distance_matrix(cloud), 2, None)
        d = compute_persistence(f)
        for eps in np.linspace(0.0, f.threshold, 20):
            betti = betti_numbers_at(f, float(eps))
            for q in range(3):
                alive = sum(1 for b, dth in d.diagrams[q] if b <= eps < dth)
                assert alive == betti[q]


def test_betti_against_dense_elimination():
    rng = random.Random(36)
    for _ in range(25):
        cloud = random_cloud(rng, rng.randint(2, 7), rng.randint(2, 3))
        f = build_rips_filtration(distance_matrix(cloud), 2, None)
        for eps in np.linspace(0.0, f.threshold, 7):
            assert betti_numbers_at(f, float(eps)) == dense_betti(f, float(eps))


def test_betti_examples():
    f = unit_square_filtration()
    assert betti_numbers_at(f, 1.0) == [1, 1, 0]
    assert betti_numbers_at(f, SQRT2) == [1, 0, 0]
    assert betti_numbers_at(f, 0.5) == [4, 0, 0]


def test_euler_characteristic_at_threshold():
    rng = random.Random(37)
    checked = 0
    while checked < 15:
        cloud = random_cloud(rng, rng.randint(5, 8), 3)
        dm = distance_matrix(cloud)
        # keep the scale below every 5-point diameter so no 4-simplex fits
        five_diams = [
            max(dm[a, b] for a, b in itertools.combinations(subset, 2))
            for subset in itertools.combinations(range(len(cloud)), 5)
        ]
        threshold = 0.99 * min(five_diams)
        f = build_rips_filtration(dm, 2, threshold)
        counts = [0, 0, 0, 0]
        for s in f.simplices:
            counts[len(s.vertices) - 1] += 1
        euler_simplices = counts[0] - counts[1] + counts[2] - counts[3]
        b0, b1, b2 = betti_numbers_at(f, threshold)
        assert euler_simplices == b0 - b1 + b2
        checked += 1


def test_scale_equivariance():
    rng = random.Random(38)
    for _ in range(15):
        cloud = random_cloud(rng, rng.randint(3, 7), 2)
        entries = distance_matrix(cloud)
        c = rng.uniform(0.2, 4.0)
        base = compute_persistence(build_rips_filtration(entries, 2, None))
        scaled = compute_persistence(build_rips_filtration(entries * c, 2, None))
        for q in range(3):
            assert len(base.diagrams[q]) == len(scaled.diagrams[q])
            for (b1, d1), (b2, d2) in zip(base.diagrams[q], scaled.diagrams[q]):
                assert b2 == pytest.approx(c * b1, rel=1e-12, abs=1e-15)
                if math.isinf(d1):
                    assert math.isinf(d2)
                else:
                    assert d2 == pytest.approx(c * d1, rel=1e-12)


def test_permutation_invariance():
    rng = random.Random(39)
    for _ in range(15):
        n = rng.randint(3, 8)
        cloud = random_cloud(rng, n, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        base = compute_persistence(build_rips_filtration(distance_matrix(cloud), 2, None))
        shuffled_cloud = PointCloud(cloud.points[perm])
        shuf = compute_persistence(
            build_rips_filtration(distance_matrix(shuffled_cloud), 2, None)
        )
        for q in range(3):
            assert sorted(base.diagrams[q]) == sorted(shuf.diagrams[q])


def test_determinism():
    rng = random.Random(40)
    cloud = random_cloud(rng, 8, 3)
    f1 = build_rips_filtration(distance_matrix(cloud), 2, None)
    f2 = build_rips_filtration(distance_matrix(cloud), 2, None)
    assert f1.simplices == f2.simplices
    assert compute_persistence(f1).diagrams == compute_persistence(f2).diagrams
