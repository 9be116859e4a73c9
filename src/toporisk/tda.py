"""Delay embedding, Vietoris-Rips filtrations, persistent homology over Z/2.

The pipeline turns a 1-D return series into a point cloud of overlapping
windows (sliding-window delay embedding), builds the Vietoris-Rips
filtration on the Euclidean distance matrix up to a scale threshold, and
computes persistence diagrams in dimensions 0..max_dim: a merge pass
over the edges for dimension 0, then persistent cohomology with clearing
(each dimension's coboundary matrix reduced from the latest simplex to
the earliest, skipping simplices already paired in the dimension below).

The filtration stays in numpy arrays from the build to the reduction:
one vertex array and one value array per dimension. Each simplex is
keyed in the combinatorial number system (as in Ripser: Bauer, J. Appl.
Comput. Topol. 5, 2021). A key addresses a dense index of each
dimension's positions, so every facet is found by one gather; only when
that index would exceed ``_INDEX_SLOTS`` slots (tetrahedra on more than
370 points) are facets found by ``np.searchsorted`` on sorted keys. One
sort gives the coboundary columns as CSR: one flat coface array plus
per-simplex offsets. Most columns are apparent pairs (a simplex whose
earliest coface has it as latest facet), paired on the arrays; Python
reads a column from the CSR, as a list, only when it reduces the rest.
``Simplex`` tuples are made only when a caller reads
``Filtration.simplices``, which the benchmark's tracer does to count them.

Every command builds the Rips filtration of an edge-collapsed copy of
the distance matrix. ``collapse_edges`` delays or drops the edges that
a common neighbour dominates (Boissonnat and Pritam, "Edge Collapse and
Persistence of Flag Complexes", SoCG 2020; Glisse and Pritam, "Swap,
Shift and Trim to Edge Collapse a Filtration", SoCG 2022), which leaves
every persistence diagram unchanged and, at the benchmark's desk shape,
cuts the tetrahedra from 36,608 to 3,453. ``build_rips_filtration``
still means the full Rips filtration, and is the collapse's test oracle.

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

The test suite's oracles (``tests/oracles.py``: Betti numbers by
rank-nullity, a boundary-matrix reduction, a brute-force Rips
enumeration) share no code with this module; do not reimplement them in
terms of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, NamedTuple, Sequence, Union

import numpy as np

from .errors import InsufficientDataError, InternalInvariantError, ParameterError
from .errors import check_param, check_vector

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

    def __len__(self) -> int:
        return self.points.shape[0]


class Simplex(NamedTuple):
    """Simplex of the filtration: sorted vertex indices plus its scale."""

    vertices: tuple[int, ...]
    value: float


@dataclass(frozen=True, eq=False)
class Filtration:
    """Simplices per dimension in canonical order: by value, then vertices.

    For each dimension q = 0..max_dim + 1, ``verts[q]`` is a k x (q+1)
    integer array of the q-simplices' increasing vertex ids and
    ``vals[q]`` their values. ``build_rips_filtration`` fills it with
    every simplex of diameter <= threshold; the extra dimension supplies
    the cofaces that can kill max_dim-cycles. ``compute_persistence``
    checks the arrays before it reads them.
    """

    verts: tuple[np.ndarray, ...]
    vals: tuple[np.ndarray, ...]
    threshold: float
    max_dim: int

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        """Every simplex as a ``Simplex`` with ``int`` vertices and a ``float`` value.

        Ordered by value, then dimension, then vertices. Kept only for the
        benchmark's tracer, which counts simplices from it; it goes once
        the tracer counts ``len(f.vals[q])``.
        """
        per_dim = [
            s
            for verts, vals in zip(self.verts, self.vals)
            for s in map(Simplex, zip(*verts.T.tolist()), vals.tolist())
        ]
        # dimensions are concatenated in order, so a stable sort by value
        # gives the canonical (value, dimension, vertices) order
        order = np.argsort(np.concatenate(self.vals), kind="stable")
        return tuple(map(per_dim.__getitem__, order.tolist()))


@dataclass(frozen=True)
class PersistenceDiagramSet:
    """Per-dimension multisets of (birth, death) pairs, death possibly inf.

    ``diagrams`` maps each q in 0..max_dim to pairs sorted by (birth,
    death); zero-persistence pairs are never present.
    """

    diagrams: dict[int, tuple[tuple[float, float], ...]]
    threshold: float
    max_dim: int


def delay_embed(series: Any, window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE) -> PointCloud:
    """Embed a return series as overlapping windows in R^window.

    ``series`` is a 1-D array of returns, or a sequence numpy reads as
    one. Produces floor((L - window) / stride) + 1 points; raises
    InsufficientDataError when the series is shorter than one window.
    """
    window, stride = check_param("window", window), check_param("stride", stride)
    r = check_vector("series", series)
    if r.shape[0] < window:
        raise InsufficientDataError(f"series length {r.shape[0]} < window {window}")
    windows = np.lib.stride_tricks.sliding_window_view(r, window)[::stride]
    return PointCloud(windows.copy())


# Cells of the difference tensor one block of distance rows may hold: 16 MiB
# of float64. The 241 points of a year of daily returns are one block; ten
# years (2,512 points) take 31 blocks instead of one 505 MB tensor.
_DISTANCE_BLOCK_CELLS = 1 << 21


def _checked_distances(entries: Any) -> np.ndarray:
    """``entries`` as a float64 distance matrix: square, finite, >= 0, zero-diagonal, symmetric."""
    m = np.asarray(entries, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"distance matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ParameterError("distances must be finite and >= 0")
    if np.any(np.diag(m) != 0):
        raise ParameterError("distance matrix diagonal must be zero")
    if not np.array_equal(m, m.T):
        raise ParameterError("distance matrix must be symmetric")
    return m


def distance_matrix(cloud: PointCloud) -> np.ndarray:
    """Pairwise Euclidean distances between the cloud's points.

    Rows are computed in blocks whose difference tensor holds at most
    ``_DISTANCE_BLOCK_CELLS`` cells, each by the same ``einsum`` over the
    window axis, so every entry is the one-shot form's bit for bit.
    """
    pts = cloud.points
    n, w = pts.shape
    rows = max(1, _DISTANCE_BLOCK_CELLS // (n * w))
    squares = np.empty((n, n))
    for lo in range(0, n, rows):
        diff = pts[lo : lo + rows, None, :] - pts[None, :, :]
        squares[lo : lo + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return _checked_distances(np.sqrt(squares, out=squares))


def _members(mask: int) -> list[int]:
    """The vertices of an int bitset, highest first."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    return out


def _dominator(common: int, s: float, adj: list[int], times: list[dict[int, float]]) -> int:
    """A vertex of the bitset ``common`` joined to all its others by time s, or -1.

    ``adj`` holds each vertex's neighbours at any time as a bitset, and
    ``times`` the time of each of those edges.
    """
    members = _members(common)
    joined = common  # the members joined to every other member, at any time
    for x in members:
        joined &= adj[x] | 1 << x
        if not joined:
            return -1
    for w in _members(joined):
        near = times[w]
        if all(near[x] <= s for x in members if x != w):
            return w
    return -1


def collapse_edges(dm: Any, threshold: float) -> np.ndarray:
    """A copy of the matrix with the flag filtration's dominated edges delayed or dropped.

    The filtered edge collapse of Boissonnat and Pritam ("Edge Collapse
    and Persistence of Flag Complexes", SoCG 2020), in the backward form
    of Glisse and Pritam ("Swap, Shift and Trim to Edge Collapse a
    Filtration", SoCG 2022). An edge is present from its time on, and an
    entry above ``threshold`` is no edge. Edges are visited in decreasing
    (value, vertices) order. At time s, a common neighbour w of u and v
    (never u or v) dominates edge uv when every other common neighbour
    present at s is w's neighbour at s; removing a dominated edge keeps
    the flag complex's homotopy type. An edge dominated at its time moves
    to the next time its common neighbourhood grows and is tested again
    there; one dominated to the end is dropped. The Rips filtration of
    the copy has the same persistence diagrams in every dimension as that
    of the matrix, from far fewer simplices.

    A delayed edge holds its new time and a dropped one the float just
    above ``threshold``, so build the copy at ``threshold``, which must be
    a number below the largest float.

    Every edge is decided in one descending pass. ``adj`` holds each
    vertex's neighbours at any time as an int bitset, ``times`` one dict
    per vertex (neighbour -> current time), and ``now`` the neighbours
    present at the value being visited: an edge that stays leaves it once
    the visit drops below its value, and one that moves leaves it at once.
    An edge is tested at its value on ``now``; for one dominated there the
    pass follows the dominator until a common neighbour arrives before
    that neighbour's edge to it, where it tests anew.
    """
    entries = _checked_distances(dm)
    if threshold is None:
        raise ParameterError("collapse_edges needs a threshold, not None: resolve it first")
    thr = check_param("threshold", threshold)
    above = math.nextafter(thr, math.inf)
    if math.isinf(above):
        raise ParameterError(f"no finite entry lies above threshold {thr!r} to drop an edge to")
    n = entries.shape[0]
    us, vs = np.nonzero(np.triu(entries <= thr, 1))
    # stable on the lexicographic nonzero order: ascending (value, vertices)
    vals = entries[us, vs]
    order = np.argsort(vals, kind="stable")
    us, vs, vals = us[order].tolist(), vs[order].tolist(), vals[order].tolist()

    # adj holds every edge at any time; a dropped edge leaves it
    adj = [0] * n
    times: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v, t in zip(us, vs, vals):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        times[u][v] = times[v][u] = t
    now = adj.copy()
    kept, value = [], None  # the edges that stay at the value being visited
    moved = {}
    inf = math.inf
    for k in range(len(us) - 1, -1, -1):
        u, v, t = us[k], vs[k], vals[k]
        if t != value:
            for a, b in kept:
                now[a] ^= 1 << b
                now[b] ^= 1 << a
            kept, value = [], t
        common = rest = now[u] & now[v]
        while rest:
            w = rest.bit_length() - 1
            bit = 1 << w
            if common & now[w] | bit == common:
                break
            rest ^= bit
        else:  # no dominator at t: uv stays there
            kept.append((u, v))
            continue
        tu, tv = times[u], times[v]
        later = []
        rest = adj[u] & adj[v] & ~common
        while rest:
            x = rest.bit_length() - 1
            rest ^= 1 << x
            a, b = tu[x], tv[x]
            later.append((a if a > b else b, x))
        s = t
        while w >= 0:
            near = times[w]
            # w dominates until a common neighbour arrives before its edge to w
            fail = inf
            for tau, x in later:
                if s < tau < fail and near.get(x, inf) > tau:
                    fail = tau
            s = fail
            if s == inf:
                break
            for tau, x in later:
                if tau <= s:
                    common |= 1 << x
            w = _dominator(common, s, adj, times)
        moved[u, v] = s
        now[u] ^= 1 << v
        now[v] ^= 1 << u
        if s == inf:
            del tu[v], tv[u]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        else:
            tu[v] = tv[u] = s

    out = entries.copy()
    if moved:
        (a, b), s = np.array(list(moved)).T, np.array(list(moved.values()))
        out[a, b] = out[b, a] = np.where(np.isinf(s), above, s)
    return out


def build_rips_filtration(
    dm: Any, max_dim: int = DEFAULT_MAX_DIM, threshold: float | None = None
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
    threshold or an edge-collapsed matrix (``collapse_edges``).
    """
    entries = _checked_distances(dm)
    n = entries.shape[0]
    max_dim = check_param("max_dim", max_dim)
    thr = float(entries.max(initial=0.0)) if threshold is None else check_param("threshold", threshold)

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

    return Filtration(tuple(all_verts), tuple(all_vals), thr, max_dim)


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


def _search(keys: np.ndarray, order: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``order[i]`` for each query equal to ``keys[i]``, ``len(keys)`` for one equal to none.

    ``keys`` ascend. The queries are searched in key order, so the search
    walks the keys in one direction.
    """
    by_key = np.argsort(queries)
    first, last = (np.searchsorted(keys, queries[by_key], side) for side in ("left", "right"))
    pos = np.empty_like(by_key)
    # a key equal to the query lies between its two insertion points
    pos[by_key] = np.where(last > first, np.append(order, len(keys))[first], len(keys))
    return pos


# Slot cap of the dense facet index: 16 MiB at uint16 positions, 32 MiB at
# uint32. Tetrahedra on up to 370 points, and triangles on up to 4,096, fit.
_INDEX_SLOTS = 1 << 23


def _facet_positions(
    verts: Sequence[np.ndarray], vals: Sequence[np.ndarray], threshold: float, top: int
) -> list[np.ndarray]:
    """Check a filtration's per-dimension arrays and locate every facet.

    Checks one vertex and one value array per dimension 0..``top``, then,
    one dimension at a time: a 1-D float value array and an integer vertex
    array of its length and q + 1 columns, values within the threshold,
    zero-valued vertices, no -0.0 value, strictly increasing vertices,
    vertex ids below the vertex count, canonical (value, vertices) order,
    no duplicates, and every facet present and valued at or below its
    coface. Returns ``facets`` with ``facets[q][i, j]`` the position among
    the (q-1)-simplices of q-simplex i's facet without vertex j, for q =
    1..top.

    Facets are found by key, and (q-1)-simplex keys on m vertices are
    below C(m, q). Up to ``_INDEX_SLOTS`` such slots (2**23, so the index
    takes at most 16 MiB at uint16), the positions of the (q-1)-simplices
    are scattered into a dense index of the smallest unsigned dtype that
    holds their count, each empty slot holding the count itself (the
    padded slot past the end), and each dropped vertex costs one gather.
    Above the cap (C(2512, 3) is 2.6e9 at ten years of daily returns)
    facets are found by ``np.searchsorted`` on the sorted keys. Either
    way a missing face lands on the padded NaN value, which fails the
    check that a face is valued at or below its coface.
    """

    def fail(message: str, q: int, bad: np.ndarray) -> None:
        if bad.any():
            raise InternalInvariantError(message.format(tuple(verts[q][np.argmax(bad)].tolist())))

    if len(verts) != top + 1 or len(vals) != top + 1:
        raise InternalInvariantError(
            f"need one vertex and one value array per dimension 0..{top},"
            f" got {len(verts)} and {len(vals)}"
        )
    # keys are sized by the vertex count, which the id check below holds every id under
    n = len(verts[0])
    table = _binomial_table(n, top + 1)
    facets: list[np.ndarray] = [np.empty((n, 0), dtype=np.intp)]
    for q, (v, x) in enumerate(zip(verts, vals)):
        if not (
            isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind == "f"
            and isinstance(v, np.ndarray) and v.dtype.kind in "iu" and v.shape == (len(x), q + 1)
        ):
            raise InternalInvariantError(
                f"dimension {q} needs a 1-D value array and an integer vertex array"
                f" of shape (values, {q + 1})"
            )
        # ``not <=`` also rejects a NaN value or threshold
        fail(f"simplex {{}} value above threshold {threshold}", q, ~(x <= threshold))
        if q == 0:
            fail("vertex {} has nonzero value", q, x != 0.0)
        fail("simplex {} has value -0.0", q, (x == 0.0) & np.signbit(x))  # it prints as -0
        # column by column: a row-wise reduction over q + 1 columns is slower
        descent = np.zeros(len(v), dtype=bool)
        for i in range(q):
            descent |= v[:, i + 1] <= v[:, i]
        fail("vertices not strictly increasing: {}", q, descent)
        # with increasing vertices, the first and last bound the rest
        fail(f"simplex {{}} has a vertex id outside [0, {n})", q, (v[:, 0] < 0) | (v[:, -1] >= n))
        fail("filtration order violated at {}", q, np.append(False, ~_ordered(x, v)))
        keys = _keys(v.T, table)
        order = np.argsort(keys)
        keys = keys[order]
        duplicate = np.zeros(len(v), dtype=bool)
        duplicate[order[1:]] = keys[1:] == keys[:-1]
        fail("duplicate simplex {}", q, duplicate)
        if q:
            # a missing face is given the padded slot past the end, whose NaN
            # value is at or below no coface value, infinite ones included
            padded_vals = np.append(vals[q - 1], np.nan)
            slots = math.comb(len(table), q)
            if slots <= _INDEX_SLOTS:
                # (q-1)-simplex keys are below C(m, q); empty slots point at the pad
                count = len(below_order)
                index = np.full(slots, count, dtype=np.min_scalar_type(count))
                index[below_keys] = below_order
                lookup = index.__getitem__
            else:
                lookup = functools.partial(_search, below_keys, below_order)
            pos = np.empty(v.shape, dtype=np.intp)
            for j in range(q + 1):
                pos[:, j] = lookup(_keys([v[:, i] for i in range(q + 1) if i != j], table))
                ok = padded_vals[pos[:, j]] <= x
                if not ok.all():
                    row = v[np.argmax(~ok)]
                    face = tuple(np.delete(row, j).tolist())
                    raise InternalInvariantError(
                        f"face {face} of {tuple(row.tolist())} missing or after coface"
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


def _merge_edges(facets: np.ndarray, count: int, cleared: np.ndarray | None) -> tuple:
    """Dimension-0 pairing of ``count`` vertices, with ``_reduce_coboundaries``'s contract.

    ``facets`` holds the edges' vertex positions, edges in filtration
    order; no vertex died below dimension 0, so ``cleared`` is unused. A
    forest of parent links with path halving tracks the components, and
    each edge that joins two (Kruskal's minimum spanning forest) absorbs
    one root. Returns the absorbed roots, their absorbing edges and the
    surviving roots: the paired columns, their pivots and the zero columns.
    """
    parent = list(range(count))
    pairs = []
    for i, (u, v) in enumerate(facets.tolist()):
        # halving: u's link skips to its grandparent, which u then becomes
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            pairs.append((u, i))
    roots, edges = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return roots, edges, np.flatnonzero(np.array(parent) == np.arange(count))


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

    Works on the per-dimension arrays, after checking max_dim and the
    threshold as parameters. One vectorized check covers the arrays
    (shapes, dtypes and vertex ids, canonical order, strictly increasing
    vertices, zero-valued vertices, no -0.0, values within the threshold,
    one array per dimension 0..max_dim + 1, no duplicates, every facet
    present and valued at or below its coface) and locates each facet by
    its combinatorial-number-system key.
    Every dimension q = 0..max_dim is paired under one contract: the
    pairing returns the q-simplices it pairs (columns), the (q+1)-simplex
    that kills each (pivots), and the q-simplices nothing kills (zero
    columns). Dimension 0 pairs by union-find over the edges
    (``_merge_edges``); each q >= 1 reduces the coboundary columns of its
    q-simplices over Z/2 from the latest to the earliest, skipping those
    that are pivots of dimension q - 1 (clearing). The columns are one CSR
    from a sort; apparent pairs and empty columns are decided on its
    arrays, and Python reduces the rest, making a column a list only when
    it reads it. Over a field this gives the same pairs as reducing
    boundary matrices. A pair is kept when its death exceeds its birth; a
    zero column is an essential class, dying at inf.
    """
    check_param("max_dim", f.max_dim)
    threshold = check_param("threshold", f.threshold)
    vals = f.vals
    facets = _facet_positions(f.verts, vals, threshold, f.max_dim + 1)

    diagrams, cleared = {}, None
    for q in range(f.max_dim + 1):
        pair = _reduce_coboundaries if q else _merge_edges
        idx, pivots, zeros = pair(facets[q + 1], len(vals[q]), cleared)
        births, deaths = vals[q][idx], vals[q + 1][pivots]
        alive = deaths > births
        pairs = list(zip(births[alive].tolist(), deaths[alive].tolist()))
        pairs.extend((birth, math.inf) for birth in vals[q][zeros].tolist())
        diagrams[q] = tuple(sorted(pairs))
        cleared = np.bincount(pivots, minlength=len(vals[q + 1])) > 0
    return PersistenceDiagramSet(diagrams, threshold, f.max_dim)


def _format_value(x: float) -> str:
    """A number as every table prints it: 12 significant digits, ``inf`` for infinity."""
    return format(x, ".12g")


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
