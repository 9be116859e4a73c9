"""Delay embedding, Vietoris-Rips filtrations, persistent homology over Z/2.

The pipeline turns a 1-D return series into a point cloud of overlapping
windows (sliding-window delay embedding), builds the Vietoris-Rips
filtration on the Euclidean distance matrix up to a scale threshold, and
computes persistence diagrams in dimensions 0..max_dim: a union-find
pass for dimension 0, then persistent cohomology with clearing (each
dimension's coboundary matrix reduced from the latest simplex to the
earliest, skipping simplices already paired in the dimension below).

The filtration stays in numpy arrays from the build to the reduction:
one vertex array and one value array per dimension. Each simplex is
keyed in the combinatorial number system (as in Ripser: Bauer, J. Appl.
Comput. Topol. 5, 2021), so its facets are found by ``np.searchsorted``
on keys, and one sort gives the coboundary columns as CSR: one flat
coface array plus per-simplex offsets. Most columns are apparent pairs
(a simplex whose earliest coface has it as latest facet), paired on the
arrays; Python reads a column from the CSR, as a list, only when it
reduces the rest. ``Simplex`` tuples are made only when a caller reads
``Filtration.simplices``.

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

import itertools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, NamedTuple, Sequence, Union

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

    ``build_rips_filtration`` stores it per dimension q = 0..max_dim + 1:
    ``verts[q]``, a k x (q+1) int array of the q-simplices' increasing
    vertices in canonical order, and ``vals[q]``, their values. From those,
    ``simplices`` (one tuple of ``Simplex`` items with ``int`` vertices and
    ``float`` values, as a caller would pass it) is derived on first read.
    A filtration constructed from a caller's ``simplices`` tuple has
    ``verts`` and ``vals`` None; ``compute_persistence`` converts it to the
    same arrays and checks both kinds with one vectorized checker. The
    arrays take no part in ``==`` or ``hash``.
    """

    simplices: tuple[Simplex, ...]
    threshold: float
    max_dim: int
    verts: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    vals: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @classmethod
    def _from_arrays(cls, verts: tuple, vals: tuple, threshold: float, max_dim: int) -> Filtration:
        f = object.__new__(cls)
        fields = {"threshold": threshold, "max_dim": max_dim, "verts": verts, "vals": vals}
        for name, value in fields.items():
            object.__setattr__(f, name, value)
        return f

    def __getattr__(self, name: str) -> Any:
        # reached only for ``simplices`` of a filtration made from arrays
        if name != "simplices" or self.verts is None:
            raise AttributeError(name)
        per_dim = [
            s
            for verts, vals in zip(self.verts, self.vals)
            for s in map(Simplex, zip(*verts.T.tolist()), vals.tolist())
        ]
        # dimensions are concatenated in order, so a stable sort by value
        # gives the canonical (value, dimension, vertices) order
        order = np.argsort(np.concatenate(self.vals), kind="stable")
        simplices = tuple(map(per_dim.__getitem__, order.tolist()))
        object.__setattr__(self, "simplices", simplices)
        return simplices


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
    pairwise distance among the vertices, by clique expansion over
    neighbour lists (Zomorodian, "Fast construction of the Vietoris-Rips
    complex", 2010). The upper neighbours of each vertex (those above it
    and within the threshold) are one CSR, ``tails[starts[v]:starts[v +
    1]]`` ascending. Each step takes as a simplex's candidates the upper
    neighbours of its last vertex, values each at the running
    ``np.maximum`` of the simplex's value and its distances to every
    vertex, and keeps those valued within the threshold: exactly the
    vertices above the last one that are within the threshold of all of
    them. ``np.maximum`` is exact, so a value is its diameter bit for bit.
    The candidates come out simplex by simplex, ascending within each, so each
    dimension is in lexicographic vertex order, which the next step
    extends, and a stable sort of its values stores it in canonical
    (value, vertices) order. ``threshold`` of None means the maximum matrix entry, which
    guarantees the dimension-0 merge tree completes; note the dimension-3
    enumeration is O(n^4) at that scale, so large clouds want an explicit
    threshold.
    """
    entries = _dm_entries(dm)
    n = entries.shape[0]
    check_max_dim(max_dim)
    check_threshold(threshold)
    thr = float(entries.max(initial=0.0) if threshold is None else threshold)

    upper = np.triu(entries <= thr, 1)
    # int32 vertex ids (the n x n float64 matrix bounds n) halve the
    # candidate id arrays, which lowers peak memory; the column_stack
    # below widens them back to intp
    tails = np.nonzero(upper)[1].astype(np.int32)
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(upper, axis=1), out=starts[1:])
    verts, vals = np.arange(n)[:, None], np.zeros(n)
    all_verts, all_vals = [verts], [vals]
    for _ in range(max_dim + 1):
        first = starts[verts[:, -1]]
        counts = starts[verts[:, -1] + 1] - first
        rows = np.repeat(np.arange(len(verts)), counts)
        # candidate i of a simplex sits at tails[first + i]
        ks = np.arange(len(rows))
        ks += (first - np.cumsum(counts) + counts)[rows]
        ks = tails[ks]
        vals = vals[rows]
        for col in verts.T:
            np.maximum(vals, entries[col[rows], ks], out=vals)
        keep = vals <= thr
        rows, ks, vals = rows[keep], ks[keep], vals[keep]
        verts = np.column_stack((verts[rows], ks))
        # the next step extends the lexicographic order; the stored copy is canonical
        order = np.argsort(vals, kind="stable")
        all_verts.append(verts[order])
        all_vals.append(vals[order])

    return Filtration._from_arrays(tuple(all_verts), tuple(all_vals), thr, max_dim)


def _binomial_table(n: int, k: int) -> np.ndarray:
    """``table[v, j] = C(v, j + 1)`` for vertices v < n and key digits j < k.

    Keying a (k-1)-simplex as sum C(v_i, i + 1) (the combinatorial number
    system, as in Ripser) gives keys below C(n, k); refuses an n whose keys
    would overflow int64, before allocating anything.
    """
    if math.comb(n, k) > np.iinfo(np.int64).max:
        raise ParameterError(f"{n} points are too many for int64 simplex keys of {k} vertices")
    table = np.empty((n, k), dtype=np.int64)
    col = np.ones(n, dtype=np.int64)
    for j in range(k):
        # Pascal's rule: C(v, j + 1) is the sum of C(u, j) over u < v
        col = np.cumsum(col) - col
        table[:, j] = col
    return table


def _keys(cols: Sequence[np.ndarray], table: np.ndarray) -> np.ndarray:
    """Key sum C(v_i, i + 1) of each simplex, given as its ascending vertex columns."""
    key = table[cols[0], 0]
    for i in range(1, len(cols)):
        key += table[cols[i], i]
    return key


def _ordered(vals: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """For each consecutive pair of rows, whether (value, vertices) strictly increases."""
    less, tied = vals[:-1] < vals[1:], vals[:-1] == vals[1:]
    for col in verts.T:
        less |= tied & (col[:-1] < col[1:])
        tied &= col[:-1] == col[1:]
    return less


def _to_arrays(simplices: tuple, top: int) -> tuple[list, list, np.ndarray]:
    """A caller's simplex tuple as per-dimension arrays, vertices relabelled 0..m-1.

    Checks what only the sequence shows: every simplex has a vertex, and
    (value, dimension) never decreases along it. The relabelling keeps
    vertex order, so the arrays satisfy the same checks as the tuple;
    ``labels[i]`` is the caller's label of vertex i.
    """
    vertices, values = zip(*simplices) if simplices else ((), ())
    sizes = np.fromiter(map(len, vertices), dtype=np.intp, count=len(vertices))
    values = np.array(values, dtype=np.float64)
    if np.any(sizes == 0):
        raise InternalInvariantError("simplex () has no vertices")
    dims = sizes - 1
    # NaN compares false here and is rejected by the threshold check
    back = (values[1:] < values[:-1]) | ((values[1:] == values[:-1]) & (dims[1:] < dims[:-1]))
    if back.any():
        first_late = vertices[np.argmax(back) + 1]
        raise InternalInvariantError(f"filtration order violated at {first_late}")
    # labels need only be hashable and ordered, as sorted vertex tuples are
    flat = list(itertools.chain.from_iterable(vertices))
    labels = sorted(set(flat))
    rank = {label: i for i, label in enumerate(labels)}
    relabelled = np.fromiter(map(rank.__getitem__, flat), dtype=np.intp, count=len(flat))
    labels = np.array(labels, dtype=object)
    first = np.cumsum(sizes) - sizes
    verts, vals = [], []
    for q in range(max(top, int(dims.max(initial=0))) + 1):
        idx = np.flatnonzero(dims == q)
        verts.append(relabelled[first[idx, None] + np.arange(q + 1)])
        vals.append(values[idx])
    return verts, vals, labels


def _facet_positions(
    verts: Sequence[np.ndarray],
    vals: Sequence[np.ndarray],
    threshold: float,
    top: int,
    labels: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Check a filtration's per-dimension arrays and locate every facet.

    Checks, one dimension at a time: dimension at most ``top``, values
    within the threshold, zero-valued vertices, strictly increasing
    vertices, canonical (value, vertices) order, no duplicates, and every
    facet present and valued at or below its coface. Returns ``facets``
    with ``facets[q][i, j]`` the position among the (q-1)-simplices of
    q-simplex i's facet without vertex j, for q = 1..top. ``labels`` maps
    array vertices back to the caller's for messages.
    """

    def name(row: np.ndarray) -> tuple[int, ...]:
        return tuple((row if labels is None else labels[row]).tolist())

    def fail(message: str, q: int, bad: np.ndarray) -> None:
        if bad.any():
            raise InternalInvariantError(message.format(name(verts[q][np.argmax(bad)])))

    if len(verts) > top + 1:
        raise InternalInvariantError(f"simplex {name(verts[-1][0])} exceeds dimension {top}")
    table = _binomial_table(1 + max((int(v.max()) for v in verts if v.size), default=0), len(verts))
    facets: list[np.ndarray] = [np.empty((len(verts[0]), 0), dtype=np.intp)]
    for q, (v, x) in enumerate(zip(verts, vals)):
        # ``not <=`` also rejects a NaN value or threshold
        fail(f"simplex {{}} value above threshold {threshold}", q, ~(x <= threshold))
        if q == 0:
            fail("vertex {} has nonzero value", q, x != 0.0)
        # column by column: a row-wise reduction over q + 1 columns is slower
        descent = np.zeros(len(v), dtype=bool)
        for i in range(q):
            descent |= v[:, i + 1] <= v[:, i]
        fail("vertices not strictly increasing: {}", q, descent)
        fail("filtration order violated at {}", q, np.append(False, ~_ordered(x, v)))
        keys = _keys(v.T, table)
        order = np.argsort(keys)
        keys = keys[order]
        duplicate = np.zeros(len(v), dtype=bool)
        duplicate[order[1:]] = keys[1:] == keys[:-1]
        fail("duplicate simplex {}", q, duplicate)
        if q:
            # a padded slot past the end matches no key and has an infinite value
            padded_keys, padded_order = np.append(below_keys, -1), np.append(below_order, -1)
            padded_vals = np.append(vals[q - 1], np.inf)
            pos = np.empty(v.shape, dtype=np.intp)
            for j in range(q + 1):
                face_keys = _keys([v[:, i] for i in range(q + 1) if i != j], table)
                # queries in key order walk the sorted keys in one direction
                by_key = np.argsort(face_keys)
                loc = np.empty_like(by_key)
                loc[by_key] = np.searchsorted(below_keys, face_keys[by_key])
                pos[:, j] = padded_order[loc]
                ok = (padded_keys[loc] == face_keys) & (padded_vals[pos[:, j]] <= x)
                if not ok.all():
                    row = v[np.argmax(~ok)]
                    face = name(np.delete(row, j))
                    raise InternalInvariantError(
                        f"face {face} of {name(row)} missing or after coface"
                    )
            facets.append(pos)
        below_keys, below_order = keys, order
    return facets


def _coboundary_csr(facets: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """``starts`` and ``cofaces``, the CSR coboundary columns, and the apparent columns and pivots.

    Column i is ``cofaces[starts[i]:starts[i + 1]]``, ascending, from one
    stable sort of the raveled facet positions, keyed in the smallest dtype
    holding count - 1 (numpy's stable sort of up to 16-bit keys is a radix
    sort). Simplex sigma and its earliest coface tau are an apparent pair
    when sigma is tau's latest facet: no column reduced before sigma's can
    contain tau, so sigma's keeps pivot tau (Bauer, "Ripser", 2021, 3.5).
    """
    faces = facets.ravel()
    order = np.argsort(faces.astype(np.min_scalar_type(count - 1)), kind="stable")
    cofaces = order // facets.shape[1]
    starts = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(faces, minlength=count), out=starts[1:])
    cols = np.flatnonzero(starts[1:] > starts[:-1])
    oldest = cofaces[starts[cols]]
    apparent = facets[oldest].max(axis=1) == cols
    return starts, cofaces, cols[apparent], oldest[apparent]


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


def _reduce_coboundaries(facets: np.ndarray, count: int, cleared: np.ndarray) -> tuple:
    """Z/2 reduction of the coboundary columns of ``count`` simplices, latest first.

    ``facets`` holds the cofaces' facet positions; the columns masked by
    ``cleared`` died in the dimension below and reduce to zero. Python
    reduces only the columns that are neither apparent, empty nor cleared,
    reading each column from the CSR as a list when it is needed. Returns
    the paired columns, their pivots (earliest cofaces) and the zero columns.
    """
    starts, cofaces, cols, pivots = _coboundary_csr(facets, count)
    bounds = starts.tolist()

    def column(i: int) -> list[int]:
        return cofaces[bounds[i] : bounds[i + 1]].tolist()

    empty = starts[1:] == starts[:-1]
    skip = cleared | empty
    skip[cols] = True
    owner = dict(zip(pivots.tolist(), cols.tolist()))
    reduced: dict[int, set[int]] = {}
    pairs, zeros = [], []
    for idx in np.flatnonzero(~skip)[::-1].tolist():
        col = column(idx)
        # most columns keep their earliest coface as pivot: no set is built
        if col[0] not in owner:
            owner[col[0]] = idx
            pairs.append((idx, col[0]))
            continue
        work = set(col)
        while work:
            low = min(work)
            other = owner.get(low)
            if other is None:
                owner[low] = idx
                reduced[idx] = work
                pairs.append((idx, low))
                break
            work.symmetric_difference_update(reduced[other] if other in reduced else column(other))
        else:
            zeros.append(idx)
    idx, low = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    zeros = np.concatenate((np.flatnonzero(empty & ~cleared), zeros)).astype(np.intp)
    return np.concatenate((cols, idx)), np.concatenate((pivots, low)), zeros


def compute_persistence(f: Filtration) -> PersistenceDiagramSet:
    """Persistence diagrams of the filtration via persistent cohomology.

    Works on the per-dimension arrays: the builder's, or those converted
    from a caller's ``simplices`` tuple. One vectorized check covers both
    (canonical order, strictly increasing vertices, zero-valued vertices,
    values within the threshold, dimension at most max_dim + 1, no
    duplicates, every facet present and valued at or below its coface)
    and locates each facet by its combinatorial-number-system key.
    Dimension 0 uses a union-find merge pass over the edges; each
    dimension q = 1..max_dim then reduces the coboundary columns of its
    q-simplices over Z/2 from the latest to the earliest, skipping the
    q-simplices that already died in dimension q - 1 (clearing). The
    columns are one CSR from a sort; apparent pairs and empty columns are
    decided on its arrays, and Python reduces the rest, making a column a
    list only when it reads it. Over a field this gives the same pairs as
    reducing boundary matrices. Pairs with equal birth and death are
    dropped; unkilled classes of dimension <= max_dim get death = inf.
    """
    check_max_dim(f.max_dim)
    top = f.max_dim + 1
    if f.verts is None:
        verts, vals, labels = _to_arrays(f.simplices, top)
    else:
        verts, vals, labels = f.verts, f.vals, None
    facets = _facet_positions(verts, vals, f.threshold, top, labels)

    diagrams: dict[int, list[tuple[float, float]]] = {q: [] for q in range(f.max_dim + 1)}

    # dimension 0: elder rule is trivial because every vertex is born at 0
    uf = _UnionFind(len(vals[0]))
    cleared = np.zeros(len(vals[1]), dtype=bool)
    edge_vals = vals[1].tolist()
    for e_idx, (u, v) in enumerate(facets[1].tolist()):
        if uf.union(u, v):
            cleared[e_idx] = True
            if edge_vals[e_idx] > 0.0:
                diagrams[0].append((0.0, edge_vals[e_idx]))
    components = sum(1 for i in range(len(vals[0])) if uf.find(i) == i)
    diagrams[0].extend((0.0, math.inf) for _ in range(components))

    for q in range(1, f.max_dim + 1):
        idx, pivots, zeros = _reduce_coboundaries(facets[q + 1], len(vals[q]), cleared)
        births, deaths = vals[q][idx], vals[q + 1][pivots]
        alive = deaths > births
        diagrams[q].extend(zip(births[alive].tolist(), deaths[alive].tolist()))
        diagrams[q].extend((birth, math.inf) for birth in vals[q][zeros].tolist())
        cleared = np.bincount(pivots, minlength=len(vals[q + 1])) > 0

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
