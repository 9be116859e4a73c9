"""Delay embedding, Rips filtrations and persistence against independent oracles.

Four routes cross-check each other here:
* compute_persistence (union-find + coboundary reduction with clearing),
* betti_numbers_at (rank-nullity over Z/2 inside the package),
* a dense numpy Gaussian elimination over Z/2 written in this file,
  sharing no code with either of the above,
* a boundary-matrix reduction written in this file (homology, pivot =
  latest face, clearing from the top dimension down), whose diagrams
  must equal compute_persistence's exactly.
Plus scipy's minimum spanning tree as the oracle for finite H0 deaths, a
brute-force enumeration of vertex subsets as the oracle for the Rips build,
the mask expansion it replaced as a bit-exact differential oracle for it,
and one of cofaces and facets as the oracle for the apparent pairs.
"""

from __future__ import annotations

import io
import itertools
import math
import random

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
    ReturnSeries,
    Simplex,
    betti_numbers_at,
    build_rips_filtration,
    compute_persistence,
    delay_embed,
    distance_matrix,
    load_price_csv,
    preprocess,
    write_diagram_csv,
)
from toporisk import tda

SQRT2 = math.sqrt(2.0)


def random_cloud(rng: random.Random, n: int, dim: int) -> PointCloud:
    return PointCloud(np.array([[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]))


def unit_square_filtration(max_dim=2, threshold=None) -> Filtration:
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return build_rips_filtration(distance_matrix(pts), max_dim, threshold)


# --- independent Betti oracle: dense Z/2 elimination, no shared code ---


def dense_gf2_rank(mat: np.ndarray) -> int:
    m = (mat % 2).astype(np.uint8).copy()
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def dense_betti(f: Filtration, epsilon: float) -> list[int]:
    by_dim: dict[int, list[tuple[int, ...]]] = {q: [] for q in range(4)}
    for s in f.simplices:
        if s.value <= epsilon:
            by_dim[len(s.vertices) - 1].append(s.vertices)
    index = {q: {v: i for i, v in enumerate(by_dim[q])} for q in range(4)}

    ranks = [0] * 5
    for q in range(1, 4):
        if not by_dim[q] or not by_dim[q - 1]:
            continue
        mat = np.zeros((len(by_dim[q - 1]), len(by_dim[q])), dtype=np.uint8)
        for col, verts in enumerate(by_dim[q]):
            for drop in range(len(verts)):
                face = verts[:drop] + verts[drop + 1 :]
                mat[index[q - 1][face], col] = 1
        ranks[q] = dense_gf2_rank(mat)
    return [len(by_dim[q]) - ranks[q] - ranks[q + 1] for q in range(f.max_dim + 1)]


# --- independent pairing oracle: boundary-matrix reduction, no shared code ---


def boundary_reduction_diagrams(f: Filtration) -> dict[int, tuple[tuple[float, float], ...]]:
    """Persistence diagrams by Z/2 reduction of boundary columns.

    Columns are sets of face positions and a column's pivot is its
    latest face. Dimensions are reduced from max_dim + 1 down to 1; a
    column whose simplex is a pivot of the dimension above is skipped
    (cleared), since it reduces to zero. H0 comes from the edge columns.
    """
    by_dim: dict[int, list[tuple[tuple[int, ...], float]]] = {q: [] for q in range(f.max_dim + 2)}
    for s in f.simplices:
        by_dim[len(s.vertices) - 1].append((s.vertices, s.value))
    position = {q: {v: i for i, (v, _) in enumerate(by_dim[q])} for q in by_dim}

    diagrams: dict[int, list[tuple[float, float]]] = {q: [] for q in range(f.max_dim + 1)}
    cleared: set[int] = set()
    for q in range(f.max_dim + 1, 0, -1):
        owner: dict[int, set[int]] = {}
        for col_idx, (verts, value) in enumerate(by_dim[q]):
            if col_idx in cleared:
                continue
            work = {position[q - 1][verts[:i] + verts[i + 1 :]] for i in range(len(verts))}
            while work:
                low = max(work)
                if low not in owner:
                    owner[low] = work
                    birth = by_dim[q - 1][low][1]
                    if value > birth:
                        diagrams[q - 1].append((birth, value))
                    break
                work = work ^ owner[low]
            else:
                if q <= f.max_dim:
                    diagrams[q].append((value, math.inf))
        cleared = set(owner)
    diagrams[0].extend(
        (value, math.inf) for i, (_, value) in enumerate(by_dim[0]) if i not in cleared
    )
    return {q: tuple(sorted(pairs)) for q, pairs in diagrams.items()}


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
        assert cloud.dimension == window


def test_delay_embed_validation():
    with pytest.raises(ParameterError):
        delay_embed([1, 2, 3], window=0)
    with pytest.raises(ParameterError):
        delay_embed([1, 2, 3], window=2, stride=0)
    with pytest.raises(ParameterError):
        delay_embed(np.zeros((2, 2)), window=2)


def test_delay_embed_accepts_return_series():
    series = ReturnSeries("T", np.array([0.1, 0.2, 0.3]), 0)
    assert delay_embed(series, window=2).points.shape == (2, 2)


# --- distance matrix ---


def test_distance_matrix_examples():
    dm = distance_matrix(PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert dm.entries[0, 1] == 5.0

    dm = distance_matrix(PointCloud(np.array([[7.0]])))
    assert dm.entries.tolist() == [[0.0]]

    dm = distance_matrix(PointCloud(np.array([[0.0], [1.0], [2.0]])))
    assert dm.entries[0, 2] == dm.entries[0, 1] + dm.entries[1, 2] == 2.0


def test_distance_matrix_validation():
    from toporisk import DistanceMatrix

    with pytest.raises(ParameterError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ParameterError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ParameterError):
        DistanceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # nonzero diagonal
    with pytest.raises(ParameterError):
        DistanceMatrix(np.zeros((2, 3)))  # not square


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
    with pytest.raises(ParameterError):
        build_rips_filtration(dm, max_dim=2, threshold=-0.5)
    auto = build_rips_filtration(dm + np.array([[0, 1], [1, 0]]), 1, None)
    assert auto.threshold == 1.0
    # None is the only spelling of auto, here as in AnalysisConfig and the CLI
    for text in ("auto", "x", "0.5"):
        with pytest.raises(ParameterError):
            build_rips_filtration(dm, 1, text)
        with pytest.raises(ParameterError):
            AnalysisConfig(seed=0, threshold=text)


def brute_force_rips(dm: np.ndarray, max_dim: int, threshold: float) -> list[tuple]:
    """Every vertex subset of size <= max_dim + 2 within the threshold, in canonical order."""
    n = dm.shape[0]
    found = []
    for size in range(1, max_dim + 3):
        for subset in itertools.combinations(range(n), size):
            diam = max((dm[a, b] for a, b in itertools.combinations(subset, 2)), default=0.0)
            if diam <= threshold:
                found.append((subset, float(diam)))
    found.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return found


def test_rips_canonical_order_and_closure():
    rng = random.Random(32)
    for _ in range(20):
        cloud = random_cloud(rng, rng.randint(2, 8), rng.randint(2, 3))
        dm = distance_matrix(cloud).entries
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
        dm = distance_matrix(PointCloud(np.round(np.array(raw), 1))).entries
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
        dm = distance_matrix(tie_heavy_cloud(rng, trial % 3)).entries
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
    threshold = float(np.quantile(dm.entries[np.triu_indices(dm.n, 1)], 0.05))
    assert_build_matches_mask_expansion(dm.entries, 2, threshold)


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
        mst_lengths = sorted(minimum_spanning_tree(dm.entries).data)
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


def test_malformed_filtrations_rejected():
    tri_before_edges = Filtration(
        (
            Simplex((0,), 0.0),
            Simplex((1,), 0.0),
            Simplex((2,), 0.0),
            Simplex((0, 1, 2), 1.0),
        ),
        1.0,
        1,
    )
    with pytest.raises(InternalInvariantError):
        compute_persistence(tri_before_edges)

    above_threshold = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 2.0)), 1.0, 0
    )
    with pytest.raises(InternalInvariantError):
        compute_persistence(above_threshold)

    # a NaN edge would merge its vertices yet leave no H0 pair; a NaN
    # threshold would admit every value
    nan_value = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), math.nan)), 1.0, 0
    )
    nan_threshold = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 5.0)), math.nan, 0
    )
    for f in (nan_value, nan_threshold):
        with pytest.raises(InternalInvariantError, match="threshold"):
            compute_persistence(f)

    bad_vertex_order = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((1, 0), 1.0)), 1.0, 0
    )
    with pytest.raises(InternalInvariantError):
        compute_persistence(bad_vertex_order)

    verts3 = tuple(Simplex((i,), 0.0) for i in range(3))
    face_above_coface = Filtration(
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
    with pytest.raises(InternalInvariantError, match="face"):
        compute_persistence(face_above_coface)

    edge_over_missing_vertex = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 2), 1.0)), 1.0, 0
    )
    with pytest.raises(InternalInvariantError, match="face"):
        compute_persistence(edge_over_missing_vertex)

    duplicate = Filtration(
        (Simplex((0,), 0.0), Simplex((1,), 0.0), Simplex((0, 1), 1.0), Simplex((0, 1), 1.0)),
        1.0,
        0,
    )
    with pytest.raises(InternalInvariantError):
        compute_persistence(duplicate)

    verts4 = tuple(Simplex((i,), 0.0) for i in range(4))
    edges4 = tuple(Simplex(e, 1.0) for e in itertools.combinations(range(4), 2))
    tris4 = tuple(Simplex(t, 1.0) for t in itertools.combinations(range(4), 3))
    tet = (Simplex((0, 1, 2, 3), 1.0),)
    with pytest.raises(InternalInvariantError):
        compute_persistence(Filtration(verts4 + edges4 + tris4[:3] + tet, 1.0, 1))
    with pytest.raises(InternalInvariantError, match="face"):
        compute_persistence(Filtration(verts4 + edges4 + tris4[:3] + tet, 1.0, 2))
    # the same tetrahedron with all four triangles is still one dimension too many
    with pytest.raises(InternalInvariantError, match="exceeds dimension"):
        compute_persistence(Filtration(verts4 + edges4 + tris4 + tet, 1.0, 1))


def test_filtration_max_dim_out_of_range_rejected():
    for max_dim in (-1, 3):
        with pytest.raises(ParameterError, match="max_dim"):
            compute_persistence(Filtration((Simplex((0,), 0.0),), 1.0, max_dim))


def test_caller_tuples_checked_like_builder_arrays():
    verts2 = (Simplex((0,), 0.0), Simplex((1,), 0.0))
    # the same edge twice, at different values, is still a duplicate
    twice = Filtration(verts2 + (Simplex((0, 1), 1.0), Simplex((0, 1), 2.0)), 2.0, 0)
    with pytest.raises(InternalInvariantError, match="duplicate"):
        compute_persistence(twice)
    with pytest.raises(InternalInvariantError, match="no vertices"):
        compute_persistence(Filtration(verts2 + (Simplex((), 0.0),), 1.0, 0))
    # out of canonical order, though every facet precedes its coface:
    # tied edges out of vertex order, and a vertex after an edge of equal value
    verts3 = verts2 + (Simplex((2,), 0.0),)
    tied = verts3 + (Simplex((1, 2), 1.0), Simplex((0, 1), 1.0))
    late_vertex = verts2 + (Simplex((0, 1), 0.0), Simplex((2,), 0.0))
    for simplices in (tied, late_vertex):
        with pytest.raises(InternalInvariantError, match="order violated"):
            compute_persistence(Filtration(simplices, 1.0, 0))
    # labels far beyond the vertex count, or not integers, are relabelled before keying
    big = 10**15
    far = Filtration((Simplex((-7,), 0.0), Simplex((big,), 0.0), Simplex((-7, big), 1.0)), 1.0, 1)
    assert compute_persistence(far).diagrams == {0: ((0.0, 1.0), (0.0, math.inf)), 1: ()}
    near = Filtration(
        (Simplex((0.2,), 0.0), Simplex((0.7,), 0.0), Simplex((0.2, 0.7), 1.0)), 1.0, 0
    )
    assert compute_persistence(near).diagrams == {0: ((0.0, 1.0), (0.0, math.inf))}
    # messages name the caller's labels
    with pytest.raises(InternalInvariantError, match=rf"face \(10, {big}\) of \(-7, 10, {big}\)"):
        compute_persistence(Filtration(far.simplices + (Simplex((-7, 10, big), 1.0),), 1.0, 1))


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


def test_vertex_labels_need_not_be_contiguous():
    f = Filtration((Simplex((0,), 0.0), Simplex((5,), 0.0), Simplex((0, 5), 1.0)), 1.0, 0)
    d = compute_persistence(f)
    assert d.diagrams[0] == ((0.0, 1.0), (0.0, math.inf))
    assert betti_numbers_at(f, 1.0) == [1]

    # a triangle's boundary on labels 3, 7, 11 plus a lone vertex 20
    loop = Filtration(
        (
            Simplex((3,), 0.0),
            Simplex((7,), 0.0),
            Simplex((11,), 0.0),
            Simplex((20,), 0.0),
            Simplex((3, 7), 1.0),
            Simplex((7, 11), 1.0),
            Simplex((3, 11), 2.0),
            Simplex((3, 7, 11), 3.0),
        ),
        3.0,
        1,
    )
    d = compute_persistence(loop)
    assert d.diagrams == boundary_reduction_diagrams(loop)
    for eps in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        alive = [sum(1 for b, dth in d.diagrams[q] if b <= eps < dth) for q in range(2)]
        assert alive == betti_numbers_at(loop, eps)


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
        n = dm.n
        if trial % 2 and n > 1:
            dists = dm.entries[np.triu_indices(n, 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        else:
            threshold = None
        f = build_rips_filtration(dm, max_dim, threshold)
        result = compute_persistence(f)
        diagrams = result.diagrams
        assert diagrams == boundary_reduction_diagrams(f)
        # a caller's tuple of the same simplices takes the conversion path
        assert compute_persistence(Filtration(f.simplices, f.threshold, f.max_dim)) == result
        for q, pairs in diagrams.items():
            nonempty[q] += bool(pairs)
    # every dimension is exercised, not just H0
    assert min(nonempty) >= 10, nonempty


def test_pairing_matches_oracle_on_fixture_at_5_percent(synthetic_csv):
    cloud = delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1)
    dm = distance_matrix(cloud)
    threshold = float(np.quantile(dm.entries[np.triu_indices(dm.n, 1)], 0.05))
    f = build_rips_filtration(dm, 2, threshold)
    assert sum(1 for s in f.simplices if len(s.vertices) == 4) == 22529
    assert compute_persistence(f).diagrams == boundary_reduction_diagrams(f)


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
        if trial % 2 and dm.n > 1:
            dists = dm.entries[np.triu_indices(dm.n, 1)]
            threshold = float(np.quantile(dists, rng.uniform(0.05, 0.9)))
        marked += assert_apparent_pairs_enumerated(build_rips_filtration(dm, trial % 3, threshold))
    assert marked > 2000, marked


def test_apparent_pairs_match_enumeration_on_fixture_at_5_percent(synthetic_csv):
    cloud = delay_embed(preprocess(load_price_csv(synthetic_csv)), 10, 1)
    dm = distance_matrix(cloud)
    threshold = float(np.quantile(dm.entries[np.triu_indices(dm.n, 1)], 0.05))
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
        assert d.diagrams == boundary_reduction_diagrams(f)
        assert d.diagrams[0] == ((0.0, 1.0), (0.0, 1.0), (0.0, math.inf))
    # a hollow tetrahedron: four triangles, no tetrahedron, so one lives forever
    tet = (0, 1, 2, 3)
    hollow = Filtration(
        tuple(Simplex((v,), 0.0) for v in tet)
        + tuple(Simplex(e, 1.0) for e in itertools.combinations(tet, 2))
        + tuple(Simplex(t, 2.0) for t in itertools.combinations(tet, 3)),
        2.0,
        2,
    )
    d = compute_persistence(hollow)
    assert d.diagrams == boundary_reduction_diagrams(hollow)
    assert d.diagrams[1] == ((1.0, 2.0),) * 3 and d.diagrams[2] == ((2.0, math.inf),)


def test_dimension_whose_columns_are_all_cleared():
    # a square with one diagonal, both triangles filled: each kills a loop
    square = Filtration(
        tuple(Simplex((v,), 0.0) for v in range(4))
        + tuple(Simplex(e, 1.0) for e in ((0, 1), (0, 3), (1, 2), (2, 3)))
        + (Simplex((0, 2), 1.5), Simplex((0, 1, 2), 2.0), Simplex((0, 2, 3), 2.0)),
        2.0,
        2,
    )
    assert {(0, 1, 2), (0, 2, 3)} <= negative_simplices(square)
    d = compute_persistence(square)
    assert d.diagrams == boundary_reduction_diagrams(square)
    assert d.diagrams[1] == ((1.0, 2.0), (1.5, 2.0)) and d.diagrams[2] == ()


def test_empty_top_dimension():
    # a unit square below its diagonal: one loop, no triangle, no tetrahedron
    for max_dim in (1, 2):
        f = unit_square_filtration(max_dim, 1.0)
        assert f.vals[-1].size == 0
        d = compute_persistence(f)
        assert d.diagrams == boundary_reduction_diagrams(f)
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
    f = Filtration(simplices, 3.0, 1)
    assert len(edges) + 1 == {256: 65_536, 257: 65_793}[right]
    d = compute_persistence(f)
    assert d.diagrams == boundary_reduction_diagrams(f)
    # the triangles kill the youngest loop and one born at 1.0; the others stay
    loops = len(edges) - (256 + right)
    assert d.diagrams[1] == ((1.0, 3.0),) + ((1.0, math.inf),) * loops + ((2.0, 3.0),)


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
    with pytest.raises(ParameterError):
        betti_numbers_at(f, -0.1)


def test_euler_characteristic_at_threshold():
    rng = random.Random(37)
    checked = 0
    while checked < 15:
        cloud = random_cloud(rng, rng.randint(5, 8), 3)
        dm = distance_matrix(cloud)
        # keep the scale below every 5-point diameter so no 4-simplex fits
        five_diams = [
            max(dm.entries[a, b] for a, b in itertools.combinations(subset, 2))
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
        entries = distance_matrix(cloud).entries
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


# --- diagram CSV export ---


def test_diagram_csv_format():
    d = compute_persistence(unit_square_filtration())
    buf = io.StringIO()
    write_diagram_csv(d, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "dim,birth,death"
    assert lines[1:5] == ["0,0,1", "0,0,1", "0,0,1", "0,0,inf"]
    h1_line = lines[5]
    assert h1_line.startswith("1,1,1.414213562")
    # at least 9 significant digits on the irrational death value
    assert len(h1_line.split(",")[2].replace(".", "")) >= 9


def test_diagram_csv_to_path(tmp_path):
    d = compute_persistence(unit_square_filtration())
    out = tmp_path / "diagram.csv"
    write_diagram_csv(d, out)
    assert out.read_text().startswith("dim,birth,death\n")
