"""Delay embedding, Vietoris-Rips filtrations, persistent homology over Z/2.

The pipeline turns a 1-D return series into a point cloud of overlapping
windows (sliding-window delay embedding), builds the Vietoris-Rips
filtration on the Euclidean distance matrix up to a scale threshold, and
computes persistence diagrams in dimensions 0..max_dim: a union-find
pass for dimension 0, then persistent cohomology with clearing (each
dimension's coboundary matrix reduced from the latest simplex to the
earliest, skipping simplices already paired in the dimension below).

Two deliberate reading choices are worth knowing about:

* A single return series does not canonically define a point cloud.
  Here the points are the overlapping windows (r_t, ..., r_{t+w-1}) for
  t = 0, stride, 2*stride, ...; window 10 and stride 1 are the defaults.
* Homology coefficients are Z/2. Over a field, persistent homology and
  persistent cohomology of the same filtration give identical pairs
  (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
  (co)homology", 2011), so nothing downstream depends on which of the
  two is computed. Cohomology is faster: most coboundary columns need no
  reduction, while most top-dimension boundary columns reduce to zero.

``betti_numbers_at`` recomputes Betti numbers from boundary-matrix ranks
(rank-nullity) without touching the reduction pairing, so the two code
paths check each other; do not reimplement one in terms of the other.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, NamedTuple, Union

import numpy as np

from .errors import InsufficientDataError, InternalInvariantError, ParameterError

DEFAULT_WINDOW = 10
DEFAULT_STRIDE = 1
DEFAULT_MAX_DIM = 2

DIAGRAM_CSV_HEADER = "dim,birth,death"


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^w, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError(f"points must be a non-empty 2-D array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise distances, zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"distance matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ParameterError("distances must be finite and >= 0")
        if np.any(np.diag(m) != 0):
            raise ParameterError("distance matrix diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ParameterError("distance matrix must be symmetric")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class Simplex(NamedTuple):
    """Simplex of the filtration: sorted vertex indices plus its scale."""

    vertices: tuple[int, ...]
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Filtration:
    """Simplices in canonical order: by value, then dimension, then vertices.

    Contains every simplex of dimension <= max_dim + 1 with diameter <=
    threshold; the extra dimension supplies the cofaces that can kill
    max_dim-cycles.
    """

    simplices: tuple[Simplex, ...]
    threshold: float
    max_dim: int


@dataclass(frozen=True)
class PersistenceDiagramSet:
    """Per-dimension multisets of (birth, death) pairs, death possibly inf.

    ``diagrams`` maps each q in 0..max_dim to pairs sorted by (birth,
    death); zero-persistence pairs are never present.
    """

    diagrams: dict[int, tuple[tuple[float, float], ...]]
    threshold: float
    max_dim: int


def check_embedding(window: int, stride: int) -> None:
    """Reject a delay-embedding window or stride below 1."""
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")


def check_max_dim(max_dim: int) -> None:
    """Reject a top homology dimension other than 0, 1 or 2."""
    if max_dim not in (0, 1, 2):
        raise ParameterError(f"max_dim must be 0, 1 or 2, got {max_dim}")


def check_threshold(threshold: float | None) -> None:
    """Reject a Rips scale cap that is not a finite number >= 0; None means auto."""
    if threshold is not None and not (
        isinstance(threshold, numbers.Real) and math.isfinite(threshold) and threshold >= 0
    ):
        raise ParameterError(f"threshold must be a finite number >= 0 or None, got {threshold!r}")


def delay_embed(series: Any, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> PointCloud:
    """Embed a return series as overlapping windows in R^window.

    ``series`` is a 1-D array of returns or anything with a ``returns``
    attribute. Produces floor((L - window) / stride) + 1 points; raises
    InsufficientDataError when the series is shorter than one window.
    """
    check_embedding(window, stride)
    r = np.asarray(getattr(series, "returns", series), dtype=np.float64)
    if r.ndim != 1:
        raise ParameterError(f"series must be 1-D, got shape {r.shape}")
    if r.shape[0] < window:
        raise InsufficientDataError(f"series length {r.shape[0]} < window {window}")
    windows = np.lib.stride_tricks.sliding_window_view(r, window)[::stride]
    return PointCloud(windows.copy())


def distance_matrix(cloud: PointCloud) -> DistanceMatrix:
    """Pairwise Euclidean distances between the cloud's points."""
    pts = cloud.points
    diff = pts[:, None, :] - pts[None, :, :]
    return DistanceMatrix(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


def _dm_entries(dm: Union[DistanceMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(dm, DistanceMatrix):
        return dm.entries
    return DistanceMatrix(np.asarray(dm, dtype=np.float64)).entries


def build_rips_filtration(
    dm: Union[DistanceMatrix, np.ndarray],
    max_dim: int = DEFAULT_MAX_DIM,
    threshold: float | None = None,
) -> Filtration:
    """Vietoris-Rips filtration: every simplex whose diameter fits the scale.

    Enumerates simplices of dimension <= max_dim + 1 with value = max
    pairwise distance among the vertices, by clique expansion (Zomorodian,
    "Fast construction of the Vietoris-Rips complex", 2010): each step
    extends every simplex by each vertex above its last one that is within
    the threshold of all its vertices, valued at the max of the old value
    and the new distances. ``np.nonzero`` scans row by row, so dimensions
    come out one after another, each in lexicographic vertex order, and one
    stable sort by value gives the canonical (value, dimension, vertices)
    order. ``threshold`` of None means the maximum matrix entry, which
    guarantees the dimension-0 merge tree completes; note the dimension-3
    enumeration is O(n^4) at that scale, so large clouds want an explicit
    threshold.
    """
    entries = _dm_entries(dm)
    n = entries.shape[0]
    check_max_dim(max_dim)
    check_threshold(threshold)
    thr = float(entries.max(initial=0.0) if threshold is None else threshold)

    adj = entries <= thr
    ids = np.arange(n)
    verts, vals = ids[:, None], np.zeros(n)
    simplices: list[Simplex] = [Simplex((i,), 0.0) for i in range(n)]
    for _ in range(max_dim + 1):
        common = verts[:, -1:] < ids
        for col in verts.T:
            common &= adj[col]
        rows, ks = np.nonzero(common)
        # free the mask before the new arrays: left alive, its heap pages
        # raised peak RSS by ~3 MB on a 141-point, 36k-tetrahedron cloud
        del common
        verts = verts[rows]
        vals = np.maximum(vals[rows], entries[verts, ks[:, None]].max(axis=1))
        verts = np.column_stack((verts, ks))
        simplices.extend(map(Simplex, zip(*verts.T.tolist()), vals.tolist()))

    simplices.sort(key=operator.itemgetter(1))
    return Filtration(tuple(simplices), thr, max_dim)


def _facets(vertices: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [vertices[:i] + vertices[i + 1 :] for i in range(len(vertices))]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def _reduce_coboundaries(
    coboundaries: list[list[int]], cleared: set[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Z/2 reduction of coboundary columns, latest column first.

    ``coboundaries[i]`` lists the cofaces of simplex i in ascending
    filtration order, so its pivot (earliest coface) is its first entry.
    Columns in ``cleared`` are skipped: their simplex already died in the
    dimension below, so they reduce to zero. Returns the (column, pivot)
    pairs and the columns that reduced to zero.
    """
    owner: dict[int, Iterable[int]] = {}
    pairs: list[tuple[int, int]] = []
    zeros: list[int] = []
    for idx in range(len(coboundaries) - 1, -1, -1):
        if idx in cleared:
            continue
        col = coboundaries[idx]
        # most columns keep their earliest coface as pivot: no set is built
        if col and col[0] not in owner:
            owner[col[0]] = col
            pairs.append((idx, col[0]))
            continue
        work = set(col)
        while work:
            low = min(work)
            other = owner.get(low)
            if other is None:
                owner[low] = work
                pairs.append((idx, low))
                break
            work.symmetric_difference_update(other)
        else:
            zeros.append(idx)
    return pairs, zeros


def compute_persistence(f: Filtration) -> PersistenceDiagramSet:
    """Persistence diagrams of the filtration via persistent cohomology.

    One pass over the simplices checks the filtration (canonical order,
    strictly increasing vertices, zero-valued vertices, values within the
    threshold, dimension at most max_dim + 1, every facet present
    earlier) and records each simplex's cofaces. Dimension 0 uses a
    union-find merge pass over the edges; each dimension q = 1..max_dim
    then reduces the coboundary columns of its q-simplices over Z/2 from
    the latest to the earliest, skipping the q-simplices that already
    died in dimension q - 1 (clearing). Over a field this gives the same
    pairs as reducing boundary matrices. Pairs with equal birth and death
    are dropped; unkilled classes of dimension <= max_dim get death = inf.
    """
    top = f.max_dim + 1
    index: list[dict[tuple[int, ...], int]] = [{} for _ in range(top)]
    values: list[list[float]] = [[] for _ in range(top + 1)]
    coboundaries: list[list[list[int]]] = [[] for _ in range(top)]
    edges: list[list[int]] = []
    prev_key: tuple | None = None
    for verts, value in f.simplices:
        q = len(verts) - 1
        if q > top:
            raise InternalInvariantError(f"simplex {verts} exceeds dimension {top}")
        if not all(map(operator.lt, verts, verts[1:])):
            raise InternalInvariantError(f"vertices not strictly increasing: {verts}")
        if q == 0 and value != 0.0:
            raise InternalInvariantError(f"vertex {verts} has nonzero value {value}")
        if not value <= f.threshold:  # also rejects a NaN value or threshold
            raise InternalInvariantError(f"simplex {verts} value {value} above threshold")
        key = (value, q, verts)
        if prev_key is not None and key <= prev_key:
            raise InternalInvariantError(f"filtration order violated at {verts}")
        prev_key = key
        own = len(values[q])
        if q:
            # canonical order puts a face first iff its value is <= the coface's
            facets = _facets(verts)
            faces = index[q - 1]
            pos = [faces.get(face) for face in facets]
            if None in pos:
                face = facets[pos.index(None)]
                raise InternalInvariantError(f"face {face} of {verts} missing or after coface")
            if q == 1:
                edges.append(pos)
            else:
                below = coboundaries[q - 1]
                for j in pos:
                    below[j].append(own)
        values[q].append(value)
        if q < top:
            index[q][verts] = own
            coboundaries[q].append([])

    diagrams: dict[int, list[tuple[float, float]]] = {q: [] for q in range(f.max_dim + 1)}

    # dimension 0: elder rule is trivial because every vertex is born at 0
    uf = _UnionFind(len(values[0]))
    died: set[int] = set()
    for e_idx, (u, v) in enumerate(edges):
        if uf.union(u, v):
            died.add(e_idx)
            if values[1][e_idx] > 0.0:
                diagrams[0].append((0.0, values[1][e_idx]))
    components = sum(1 for i in range(len(values[0])) if uf.find(i) == i)
    diagrams[0].extend((0.0, math.inf) for _ in range(components))

    for q in range(1, f.max_dim + 1):
        pairs, zeros = _reduce_coboundaries(coboundaries[q], died)
        died = set()
        for idx, pivot in pairs:
            birth, death = values[q][idx], values[q + 1][pivot]
            if death > birth:
                diagrams[q].append((birth, death))
            died.add(pivot)
        diagrams[q].extend((values[q][idx], math.inf) for idx in zeros)

    final = {q: tuple(sorted(pairs)) for q, pairs in diagrams.items()}
    return PersistenceDiagramSet(final, f.threshold, f.max_dim)


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


def betti_numbers_at(f: Filtration, epsilon: float) -> list[int]:
    """Betti numbers beta_0..beta_max_dim of the subcomplex at scale epsilon.

    Computed by rank-nullity from boundary-matrix ranks over Z/2:
    beta_q = #q-simplices - rank(boundary_q) - rank(boundary_{q+1}).
    This never consults the reduction pairing, so it serves as an
    independent check on compute_persistence.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
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


def _format_value(x: float) -> str:
    return "inf" if math.isinf(x) else format(x, ".12g")


def write_diagram_csv(diagrams: PersistenceDiagramSet, dest: Union[str, Path, IO[str]]) -> None:
    """Write `dim,birth,death` rows, dimensions ascending, `inf` for essential."""
    lines = [DIAGRAM_CSV_HEADER]
    for q in sorted(diagrams.diagrams):
        for birth, death in diagrams.diagrams[q]:
            lines.append(f"{q},{_format_value(birth)},{_format_value(death)}")
    text = "\n".join(lines) + "\n"
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)
