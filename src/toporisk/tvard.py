"""Stress sampling, diagram vectorization, TVaRD and the full risk report.

TVaRD is the Euclidean distance between fixed-length vectorizations of
two persistence diagram sets, a baseline one and one recomputed from a
random subsample of the returns (the stress scenario). The magnitude
depends on the vectorization scheme, so the scheme is pinned down here:

* infinite deaths are replaced by the larger of the two thresholds,
* per dimension, pairs sort by persistence descending (ties by birth),
* the shorter list is padded with (0, 0) pairs,
* pairs flatten as (birth, death, ...) and dimensions 0,1,2 concatenate.

Stress sampling is deterministic given the seed: a SplitMix64 stream
drives a partial Fisher-Yates shuffle whose first floor(fraction * n)
slots, re-sorted ascending, are the kept return indices. The subsample
keeps chronological order. Sampling happens on the float64 return array
``preprocess`` gives. A report's config block records window, stride,
max_dim, threshold, fraction and seed, not the scheme, so at threshold
"auto" it does not hold the cap applied to infinite deaths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, PipelineError, TopoRiskError
from .errors import as_array, check_param, check_vector
from .ingest import PriceSeries, clean_series, compute_returns, normalize
from .risk import DEFAULT_ALPHA, snapped_floor, tail_risk
from .tda import (
    DEFAULT_MAX_DIM,
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    PersistenceDiagramSet,
    build_rips_filtration,
    collapse_edges,
    compute_persistence,
    delay_embed,
    distance_matrix,
)

_U64 = (1 << 64) - 1


def _splitmix64(state: int) -> Iterator[int]:
    """SplitMix64's endless stream from a 64-bit seed: golden-gamma increment, two mixes.

    Chosen over a platform RNG so stress samples are bit-identical for a
    given seed no matter where the tool runs.
    """
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _U64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        yield z ^ (z >> 31)


def stress_sample(returns: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Subsample floor(cfg.fraction * n) returns without replacement, in order.

    Keeps the first k slots, sorted, of a Fisher-Yates shuffle of 0..n-1
    drawn from ``_splitmix64(cfg.seed)``; a k of 0 fails as stage
    "stress-sample". Raises ParameterError unless the returns are 1-D numbers.
    """
    returns = check_vector("returns", returns)
    n = len(returns)
    k = snapped_floor(cfg.fraction * n)
    if k < 1:
        raise PipelineError("stress-sample", InsufficientDataError(
            f"fraction {cfg.fraction} of {n} returns selects nothing"
        ))
    draws = _splitmix64(cfg.seed)
    idx = list(range(n))
    for i in range(k):
        j = i + next(draws) % (n - i)
        idx[i], idx[j] = idx[j], idx[i]
    keep = sorted(idx[:k])
    return returns[keep]


def _ordered_pairs(
    d: PersistenceDiagramSet, counterpart: PersistenceDiagramSet, q: int
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Dimension q's pairs of both sets, in the order ``vectorize`` lays them out.

    Infinite deaths on either side are capped at max(threshold of the two
    inputs); each side sorts by persistence descending, ties by birth
    ascending. ``vectorize`` and the bottleneck distances both take their
    pairs from here, so they cap alike.
    """
    cap = max(d.threshold, counterpart.threshold)
    sides = []
    for ds in (d, counterpart):
        capped = [(b, cap if math.isinf(death) else death) for b, death in ds.diagrams.get(q, ())]
        capped.sort(key=lambda p: (-(p[1] - p[0]), p[0]))
        sides.append(capped)
    return sides[0], sides[1]


def vectorize(
    d: PersistenceDiagramSet, counterpart: PersistenceDiagramSet
) -> tuple[np.ndarray, np.ndarray]:
    """Make the two diagram sets comparable as equal-length float64 vectors.

    Per dimension: take both sides' capped, sorted pairs from
    ``_ordered_pairs``, pad the shorter side with (0, 0), flatten as
    (birth, death, ...); dimensions concatenate in increasing order.
    """
    if d.max_dim != counterpart.max_dim:
        raise ParameterError(
            f"diagram sets disagree on max_dim: {d.max_dim} vs {counterpart.max_dim}"
        )
    flats: list[list[float]] = [[], []]
    for q in range(d.max_dim + 1):
        sides = _ordered_pairs(d, counterpart, q)
        width = max(map(len, sides))
        for flat, pairs in zip(flats, sides):
            for pair in pairs + [(0.0, 0.0)] * (width - len(pairs)):
                flat.extend(pair)
    return np.array(flats[0], dtype=np.float64), np.array(flats[1], dtype=np.float64)


def tvard_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean norm of the difference between two 1-D feature vectors of one length."""
    a, b = check_vector("feature vectors", a), check_vector("feature vectors", b)
    if a.shape != b.shape:
        raise ParameterError(
            f"feature vectors not comparable: shapes {a.shape} vs {b.shape}, need equal 1-D"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused below
        dist = float(np.linalg.norm(a - b))
    if not math.isfinite(dist):
        raise ParameterError(f"TVaRD needs finite feature vectors within float range, got {dist}")
    return dist


def _saturates(adj: list[list[int]], n_right: int) -> bool:
    """Whether some matching covers every row of ``adj``: greedy, then augmenting paths.

    ``adj[u]`` lists the right vertices 0..n_right-1 that row u may take.
    A greedy pass gives each row its first free right vertex. Each row
    left free runs one breadth-first search over alternating paths and
    flips the path to the first free right vertex it reaches. A row that
    reaches none fails the test: a matching covering every row would
    differ from the current one by an augmenting path from that row
    (Berge's lemma). No recursion.
    """
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    free = []
    for u, nbrs in enumerate(adj):
        if not nbrs:
            return False
        for v in nbrs:
            if match_r[v] < 0:
                match_r[v], match_l[u] = u, v
                break
        else:
            free.append(u)
    for root in free:
        via = [-1] * n_right  # the row whose edge first reached each right vertex
        queue = [root]
        end = -1
        for u in queue:
            for v in adj[u]:
                if via[v] < 0:
                    via[v] = u
                    if match_r[v] < 0:
                        end = v
                        break
                    queue.append(match_r[v])
            if end >= 0:
                break
        if end < 0:
            return False
        while end >= 0:  # flip back to the root: each row takes the vertex it reached
            u = via[end]
            match_r[end], match_l[u], end = u, end, match_l[u]
    return True


def _matching_exists(
    cost: np.ndarray, half1: np.ndarray, half2: np.ndarray, c: float
) -> bool:
    """Whether the diagrams are within bottleneck distance c of each other.

    ``cost`` is the n1 x n2 matrix of L-infinity point costs, ``half1``
    and ``half2`` the points' distances to the diagonal. The rows of
    each one-sided test are the far points of one diagram, each with
    its points of the other diagram within cost c (see
    ``bottleneck_distance`` for why the two tests decide it).
    """
    within = cost <= c
    for rows, half in ((within, half1), (within.T, half2)):
        far = rows[half > c]
        cols = np.nonzero(far)[1].tolist()
        ends = np.cumsum(far.sum(axis=1)).tolist()
        adj = [cols[a:b] for a, b in zip([0] + ends, ends)]
        if not _saturates(adj, rows.shape[1]):
            return False
    return True


def _floor(cost: np.ndarray, half1: np.ndarray, half2: np.ndarray) -> float:
    """The candidate cost where ``bottleneck_distance`` starts: no lower cap is feasible."""
    floor = -math.inf
    for rows, half, other in ((cost, half1, half2), (cost.T, half2, half1)):
        nearest = np.minimum(half, rows.min(axis=1, initial=math.inf))
        floor = max(floor, nearest.max(initial=-math.inf))
        if len(half) > len(other):
            floor = max(floor, np.sort(half)[::-1][len(other)])
    return floor


def bottleneck_distance(
    d1: Sequence[tuple[float, float]], d2: Sequence[tuple[float, float]]
) -> float:
    """Exact bottleneck distance between two finite single-dimension diagrams.

    Minimum over partial matchings of the largest L-infinity pair cost,
    with unmatched points paying their distance to the diagonal, half
    their persistence. The answer is one of the candidate costs: 0, a
    point's distance to the diagonal, or an entry of the n1 x n2 cost
    matrix max(|birth1 - birth2|, |death1 - death2|), built once with
    numpy from the same IEEE operations a pairwise loop would use. The
    search over the sorted distinct candidates finds the least feasible
    one.

    It starts at a floor that no matching can beat (``_floor``), the
    largest of two kinds of term. Each point pays its distance to the
    diagonal or its cost to some point of the other diagram, so at
    least the smaller of that distance and its nearest cost: below it,
    the point is far and has no partner. And when n1 > n2, below the
    (n2+1)-th largest distance to the diagonal in d1, n2+1 far points
    would need n2 partners; the same holds with the sides swapped. So
    every cap below the floor is infeasible, and the floor, a maximum
    of candidates, is itself one. The search probes it once and
    returns it when it is feasible, as it is when the stress side has
    about half the pairs. Otherwise it runs the bisection over all
    candidates but probes only caps above the floor: each of those
    probes is one the bisection alone would make, so the floor costs
    one probe at most.

    Feasibility at cap c is decided on the graph of point pairs with
    cost <= c. Call a point far when its distance to the diagonal
    exceeds c. A matching of cost at most c exists exactly when that
    graph has a matching covering every far point of both diagrams:
    far points cannot go to the diagonal, and near points left over
    can. This is the perfect-matching test on the doubled graph (each
    diagram plus diagonal slots for the other) with the slots taken
    out. By the Mendelsohn-Dulmage theorem, such a matching exists
    exactly when one matching covers the far points of d1 and another
    covers those of d2, so two one-sided tests decide it exactly, each
    a greedy matching completed by augmenting paths (``_saturates``).
    Neither the search nor the matching recurses.
    """
    a, b = (as_array("a diagram", d, what="(birth, death) pairs") for d in (d1, d2))
    if any(p.size and (p.ndim != 2 or p.shape[1] != 2) for p in (a, b)):
        raise ParameterError("a diagram must be empty or k x 2 (birth, death) pairs")
    a, b = a.reshape(-1, 2), b.reshape(-1, 2)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("bottleneck distance needs finite pairs; cap infinities first")
    if np.any(a[:, 1] < a[:, 0]) or np.any(b[:, 1] < b[:, 0]):
        raise ParameterError("a diagram pair must not die before it is born")
    with np.errstate(over="ignore"):  # an overflow sorts last and is refused below
        cost = np.maximum(
            np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
        )
        half1 = (a[:, 1] - a[:, 0]) / 2.0
        half2 = (b[:, 1] - b[:, 0]) / 2.0
    # sort and drop repeats: on numpy 2.x np.unique imports numpy.ma on first use
    costs = np.sort(np.concatenate(([0.0], half1, half2, cost.ravel())))
    if math.isinf(costs[-1]):
        raise ParameterError("bottleneck distance needs pair differences within float range")
    costs = costs[np.concatenate(([True], costs[1:] != costs[:-1]))]
    start = int(np.searchsorted(costs, _floor(cost, half1, half2)))
    lo, hi = 0, len(costs) - 1
    if _matching_exists(cost, half1, half2, costs[start]):
        lo = hi = start
    while lo < hi:
        mid = (lo + hi) // 2
        # a cap at or below an infeasible floor is infeasible: no probe
        if mid > start and _matching_exists(cost, half1, half2, costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    # -0.0 and 0.0 are one candidate; + 0.0 reports it as 0.0
    return float(costs[lo]) + 0.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything run_analysis needs beyond the price series itself."""

    seed: int
    alpha: float = DEFAULT_ALPHA
    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    max_dim: int = DEFAULT_MAX_DIM
    threshold: float | None = None
    fraction: float = 0.5
    with_bottleneck: bool = False

    def __post_init__(self):
        # store each as a plain int or float, so the report holds only JSON numbers
        for name in ("alpha", "window", "stride", "max_dim", "threshold", "fraction", "seed"):
            value = getattr(self, name)
            if value is not None or name != "threshold":
                object.__setattr__(self, name, check_param(name, value))


@dataclass(frozen=True)
class RiskReport:
    """Per-ticker bundle of tail risk, diagrams and the TVaRD comparison."""

    ticker: str
    alpha: float
    var: float
    cvar: float
    tvard: float
    bottleneck: dict[str, float] | None
    config: AnalysisConfig
    baseline_diagrams: PersistenceDiagramSet
    stress_diagrams: PersistenceDiagramSet


def _diagrams_json(ds: PersistenceDiagramSet) -> list[dict]:
    rows = []
    for q in sorted(ds.diagrams):
        for birth, death in ds.diagrams[q]:
            rows.append(
                {"dim": q, "birth": birth, "death": "inf" if math.isinf(death) else death}
            )
    return rows


def report_to_json(report: RiskReport) -> str:
    """Serialize a RiskReport with a stable key order; essential deaths as "inf"."""
    cfg = report.config
    obj = {
        "ticker": report.ticker,
        "alpha": report.alpha,
        "var": report.var,
        "cvar": report.cvar,
        "tvard": report.tvard,
        "bottleneck": report.bottleneck,
        "config": {
            "window": cfg.window,
            "stride": cfg.stride,
            "max_dim": cfg.max_dim,
            "threshold": "auto" if cfg.threshold is None else cfg.threshold,
            "fraction": cfg.fraction,
            "seed": cfg.seed,
        },
        "baseline_diagrams": _diagrams_json(report.baseline_diagrams),
        "stress_diagrams": _diagrams_json(report.stress_diagrams),
    }
    return json.dumps(obj, indent=2) + "\n"


def preprocess(prices: PriceSeries) -> np.ndarray:
    """clean -> normalize -> returns array; failures carry the stage "preprocess"."""
    try:
        cleaned, _ = clean_series(prices)
        return compute_returns(normalize(cleaned), prices.ticker)
    except TopoRiskError as exc:
        raise PipelineError("preprocess", exc) from exc


def _diagrams_for(returns: np.ndarray, cfg: AnalysisConfig, stage: str) -> PersistenceDiagramSet:
    """The config's persistence diagrams of the returns' delay embedding.

    ``collapse_edges`` runs between the distance matrix and the Rips
    build: a filtered edge collapse (Boissonnat and Pritam, SoCG 2020;
    Glisse and Pritam, SoCG 2022) delays or drops dominated edges, so the
    diagrams are the full Rips filtration's from far fewer simplices. A
    threshold of None is resolved here, once, to the largest entry, as
    the build would resolve it: the collapsed matrix holds entries above
    it. From the largest entry up every threshold builds the same
    complex, so the collapse and the build run at the smaller of the two,
    where a dropped edge always has a finite entry above the scale. The
    diagrams keep the threshold asked for, the cap on infinite deaths.
    """
    try:
        cloud = delay_embed(returns, cfg.window, cfg.stride)
        dm = distance_matrix(cloud)
        top = float(dm.max(initial=0.0))
        threshold = top if cfg.threshold is None else cfg.threshold
        scale = min(threshold, top)
        filtration = build_rips_filtration(collapse_edges(dm, scale), cfg.max_dim, scale)
        diagrams = compute_persistence(filtration).diagrams
        return PersistenceDiagramSet(diagrams, threshold, cfg.max_dim)
    except TopoRiskError as exc:
        raise PipelineError(stage, exc) from exc


def run_analysis(prices: PriceSeries, cfg: AnalysisConfig) -> RiskReport:
    """Full per-ticker pipeline from raw prices to a RiskReport.

    clean -> normalize -> returns -> VaR/CVaR -> baseline persistence ->
    stress sample -> stress persistence -> vectorize -> TVaRD. Failures
    carry the stage name via PipelineError.
    """
    returns = preprocess(prices)
    var, cvar = tail_risk(returns, cfg.alpha)
    baseline = _diagrams_for(returns, cfg, "baseline-persistence")
    stress = _diagrams_for(stress_sample(returns, cfg), cfg, "stress-persistence")
    tvard = tvard_distance(*vectorize(baseline, stress))

    bottleneck = None
    if cfg.with_bottleneck:
        bottleneck = {
            f"h{q}": bottleneck_distance(*_ordered_pairs(baseline, stress, q))
            for q in range(cfg.max_dim + 1)
        }

    return RiskReport(
        ticker=prices.ticker,
        alpha=cfg.alpha,
        var=var,
        cvar=cvar,
        tvard=tvard,
        bottleneck=bottleneck,
        config=cfg,
        baseline_diagrams=baseline,
        stress_diagrams=stress,
    )
