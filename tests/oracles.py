"""Test oracles that share no code with the package's fast path.

Each recomputes from first principles what ``toporisk.tda`` computes fast,
and none calls ``compute_persistence``, ``_facet_positions`` or ``_keys``,
so an oracle and the package check each other:

* ``one_shot_distances``: the distance matrix as one ``einsum``,
* ``brute_force_rips``: the Rips filtration by enumerating vertex subsets,
* ``boundary_reduction_diagrams``: persistence by boundary-matrix reduction
  (homology, pivot = latest face, clearing from the top dimension down),
* ``betti_numbers_at``: Betti numbers by rank-nullity over Z/2, with ranks
  from column bitmasks,
* ``dense_betti``: the same by dense numpy Gaussian elimination over Z/2.

``filtration_of`` turns hand-written ``(vertices, value)`` items into the
arrays of a ``Filtration`` as given, malformed ones included, so tests
reach the package's filtration checks through its public constructor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from toporisk import Filtration


def filtration_of(simplices, threshold: float, max_dim: int) -> Filtration:
    """``(vertices, value)`` items as a ``Filtration``, each dimension in the items' order.

    One vertex and one value array per dimension 0..max_dim + 1, or up
    to the items' largest dimension when that is higher.
    """
    top = max([max_dim + 1] + [len(vertices) - 1 for vertices, _ in simplices])
    verts = tuple(
        np.array([v for v, _ in simplices if len(v) == q + 1], dtype=np.intp).reshape(-1, q + 1)
        for q in range(top + 1)
    )
    vals = tuple(
        np.array([x for v, x in simplices if len(v) == q + 1], dtype=np.float64)
        for q in range(top + 1)
    )
    return Filtration(verts, vals, threshold, max_dim)


def one_shot_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


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


# --- pairing oracle: boundary-matrix reduction ---


def boundary_reduction_diagrams(
    simplices, max_dim: int
) -> dict[int, tuple[tuple[float, float], ...]]:
    """Persistence diagrams of ``(vertices, value)`` items in canonical order, by Z/2 reduction.

    Columns are sets of face positions and a column's pivot is its
    latest face. Dimensions are reduced from max_dim + 1 down to 1; a
    column whose simplex is a pivot of the dimension above is skipped
    (cleared), since it reduces to zero. H0 comes from the edge columns.
    """
    by_dim: dict[int, list[tuple[tuple[int, ...], float]]] = {q: [] for q in range(max_dim + 2)}
    for vertices, value in simplices:
        by_dim[len(vertices) - 1].append((vertices, value))
    position = {q: {v: i for i, (v, _) in enumerate(by_dim[q])} for q in by_dim}

    diagrams: dict[int, list[tuple[float, float]]] = {q: [] for q in range(max_dim + 1)}
    cleared: set[int] = set()
    for q in range(max_dim + 1, 0, -1):
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
                if q <= max_dim:
                    diagrams[q].append((value, math.inf))
        cleared = set(owner)
    diagrams[0].extend(
        (value, math.inf) for i, (_, value) in enumerate(by_dim[0]) if i not in cleared
    )
    return {q: tuple(sorted(pairs)) for q, pairs in diagrams.items()}


# --- Betti oracles: rank-nullity over Z/2 ---


def _gf2_rank(columns: list[int]) -> int:
    """Rank of a Z/2 matrix given as column bitmasks."""
    basis: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            high = col.bit_length() - 1
            if high in basis:
                col ^= basis[high]
            else:
                basis[high] = col
                rank += 1
                break
    return rank


def _facets(vertices: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [vertices[:i] + vertices[i + 1 :] for i in range(len(vertices))]


def betti_numbers_at(f: Filtration, epsilon: float) -> list[int]:
    """Betti numbers beta_0..beta_max_dim of the subcomplex at scale epsilon.

    Computed by rank-nullity from boundary-matrix ranks over Z/2:
    beta_q = #q-simplices - rank(boundary_q) - rank(boundary_{q+1}).
    This never consults the reduction pairing, so it serves as an
    independent check on compute_persistence.
    """
    pos: dict[int, dict[tuple[int, ...], int]] = {q: {} for q in range(4)}
    for s in f.simplices:
        if s.value <= epsilon:
            q = len(s.vertices) - 1
            pos[q][s.vertices] = len(pos[q])

    ranks = [0] * 5
    for q in range(1, 4):
        face_pos = pos[q - 1]
        cols = []
        for verts in pos[q]:
            mask = 0
            for face in _facets(verts):
                mask |= 1 << face_pos[face]
            cols.append(mask)
        ranks[q] = _gf2_rank(cols)

    return [len(pos[q]) - ranks[q] - ranks[q + 1] for q in range(f.max_dim + 1)]


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
