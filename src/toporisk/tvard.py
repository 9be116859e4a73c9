"""Stress sampling, diagram vectorization, TVaRD and the full risk report.

TVaRD is the Euclidean distance between fixed-length vectorizations of
two persistence diagram sets, a baseline one and one recomputed from a
random subsample of the returns (the stress scenario). The magnitude
depends on the vectorization scheme, so the scheme is pinned down here
and echoed in every report:

* infinite deaths are replaced by the larger of the two thresholds,
* per dimension, pairs sort by persistence descending (ties by birth),
* the shorter list is padded with (0, 0) pairs,
* pairs flatten as (birth, death, ...) and dimensions 0,1,2 concatenate.

Stress sampling is deterministic given the seed: SplitMix64 drives a
partial Fisher-Yates shuffle whose first floor(fraction * n) slots,
re-sorted ascending, are the kept return indices. The subsample keeps
chronological order. Sampling happens on returns, after preprocessing;
the report's config block records fraction and seed so any number can
be regenerated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, PipelineError, TopoRiskError
from .ingest import PriceSeries, ReturnSeries, clean_series, compute_returns, normalize
from .risk import check_alpha, snapped_floor, tail_risk
from .tda import (
    DEFAULT_MAX_DIM,
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    PersistenceDiagramSet,
    build_rips_filtration,
    check_embedding,
    check_max_dim,
    check_threshold,
    compute_persistence,
    delay_embed,
    distance_matrix,
)

_U64 = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Reject a stress seed that is not an unsigned 64-bit integer."""
    if not isinstance(seed, int) or not 0 <= seed <= _U64:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")


def check_fraction(fraction: float) -> None:
    """Reject a stress-sample fraction outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must lie in (0, 1], got {fraction}")


class SplitMix64:
    """SplitMix64 generator: 64-bit state, golden-gamma increment.

    Chosen over a platform RNG so stress samples are bit-identical for a
    given seed no matter where the tool runs.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        check_seed(seed)
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ParameterError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


@dataclass(frozen=True)
class StressConfig:
    """Stress scenario: keep floor(fraction * n) returns, chosen by seed."""

    seed: int
    fraction: float = 0.5

    def __post_init__(self):
        check_fraction(self.fraction)
        check_seed(self.seed)


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """First k slots of a seeded Fisher-Yates shuffle of 0..n-1, sorted."""
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    idx = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def stress_sample(series: ReturnSeries, cfg: StressConfig) -> ReturnSeries:
    """Subsample floor(fraction * n) returns without replacement, in order.

    Deterministic for a given (series, seed); dropped_count carries over
    unchanged since the subsample introduces no new zero denominators.
    """
    n = len(series)
    if n < 2:
        raise InsufficientDataError(f"{series.ticker}: need >= 2 returns to stress-sample")
    k = snapped_floor(cfg.fraction * n)
    if k < 1:
        raise InsufficientDataError(
            f"{series.ticker}: fraction {cfg.fraction} of {n} returns selects nothing"
        )
    keep = sample_indices(n, k, cfg.seed)
    return ReturnSeries(series.ticker, series.returns[keep], series.dropped_count)


@dataclass(frozen=True)
class FeatureVector:
    """Flattened, padded diagram coordinates plus the layout that shaped them."""

    values: np.ndarray
    layout: tuple[int, ...]
    cap: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


def _ordered_pairs(
    pairs: Sequence[tuple[float, float]], cap: float
) -> list[tuple[float, float]]:
    capped = [(b, cap if math.isinf(d) else d) for b, d in pairs]
    capped.sort(key=lambda p: (-(p[1] - p[0]), p[0]))
    return capped


def vectorize(
    d: PersistenceDiagramSet, counterpart: PersistenceDiagramSet
) -> tuple[FeatureVector, FeatureVector]:
    """Make the two diagram sets comparable as equal-length vectors.

    Per dimension: cap infinite deaths at max(threshold of the two
    inputs), sort by persistence descending (ties by birth ascending),
    pad the shorter side with (0, 0), flatten as (birth, death, ...);
    dimensions concatenate in increasing order.
    """
    if d.max_dim != counterpart.max_dim:
        raise ParameterError(
            f"diagram sets disagree on max_dim: {d.max_dim} vs {counterpart.max_dim}"
        )
    cap = max(d.threshold, counterpart.threshold)
    flat_a: list[float] = []
    flat_b: list[float] = []
    layout: list[int] = []
    for q in range(d.max_dim + 1):
        pairs_a = _ordered_pairs(d.diagrams.get(q, ()), cap)
        pairs_b = _ordered_pairs(counterpart.diagrams.get(q, ()), cap)
        width = max(len(pairs_a), len(pairs_b))
        pairs_a += [(0.0, 0.0)] * (width - len(pairs_a))
        pairs_b += [(0.0, 0.0)] * (width - len(pairs_b))
        layout.append(width)
        for b, dth in pairs_a:
            flat_a.extend((b, dth))
        for b, dth in pairs_b:
            flat_b.extend((b, dth))
    shape = tuple(layout)
    return (
        FeatureVector(np.array(flat_a), shape, cap),
        FeatureVector(np.array(flat_b), shape, cap),
    )


def tvard_distance(a: FeatureVector, b: FeatureVector) -> float:
    """Euclidean norm of the difference between two feature vectors."""
    if a.layout != b.layout or a.values.shape != b.values.shape:
        raise ParameterError(
            f"feature vectors not comparable: layouts {a.layout} vs {b.layout}"
        )
    return float(np.linalg.norm(a.values - b.values))


def _saturates(adj: list[list[int]], n_right: int) -> bool:
    """Whether some matching covers every row of ``adj``: Hopcroft-Karp, no recursion.

    ``adj[u]`` lists the right vertices 0..n_right-1 that row u may take.
    Each phase grows BFS layers from the free rows up to the first layer
    that reaches a free right vertex, then augments along vertex paths
    that climb those layers, walking an explicit stack. The test fails
    as soon as a phase's BFS reaches no free right vertex; a phase whose
    BFS reaches one augments at least once, so the loop ends.
    """
    n = len(adj)
    match_l = [-1] * n
    match_r = [-1] * n_right
    free = []
    for u, nbrs in enumerate(adj):
        if not nbrs:
            return False
        for v in nbrs:
            if match_r[v] < 0:
                match_r[v] = u
                match_l[u] = v
                break
        else:
            free.append(u)
    while free:
        dist = [-1] * n
        for u in free:
            dist[u] = 0
        queue = list(free)
        limit = -1
        for u in queue:
            du = dist[u]
            if limit >= 0 and du > limit:
                break
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    limit = du
                elif dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        if limit < 0:
            return False
        ptr = [0] * n
        still_free = []
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                nbrs = adj[u]
                i = ptr[u]
                step = None
                while i < len(nbrs):
                    v = nbrs[i]
                    i += 1
                    w = match_r[v]
                    if w < 0 or dist[w] == dist[u] + 1:
                        step = v
                        break
                ptr[u] = i
                if step is None:
                    dist[u] = -1  # dead end for the rest of this phase
                    stack.pop()
                elif match_r[step] >= 0:
                    stack.append(match_r[step])
                else:
                    v = step
                    for x in reversed(stack):
                        prev = match_l[x]
                        match_l[x] = v
                        match_r[v] = x
                        v = prev
                    break
            if match_l[root] < 0:
                still_free.append(root)
        free = still_free
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


def bottleneck_distance(
    d1: Sequence[tuple[float, float]], d2: Sequence[tuple[float, float]]
) -> float:
    """Exact bottleneck distance between two finite single-dimension diagrams.

    Minimum over partial matchings of the largest L-infinity pair cost,
    with unmatched points paying their distance to the diagonal, half
    their persistence. The answer is one of the candidate costs: 0, a
    point's distance to the diagonal, or an entry of the n1 x n2 cost
    matrix max(|birth1 - birth2|, |death1 - death2|), built once with
    numpy from the same IEEE operations a pairwise loop would use. A
    binary search over the sorted distinct candidates finds the least
    feasible one.

    Feasibility at cap c is decided on the graph of point pairs with
    cost <= c. Call a point far when its distance to the diagonal
    exceeds c. A matching of cost at most c exists exactly when that
    graph has a matching covering every far point of both diagrams:
    far points cannot go to the diagonal, and near points left over
    can. This is the perfect-matching test on the doubled graph (each
    diagram plus diagonal slots for the other) with the slots taken
    out. By the Mendelsohn-Dulmage theorem, such a matching exists
    exactly when one matching covers the far points of d1 and another
    covers those of d2, so two one-sided Hopcroft-Karp tests decide it
    exactly. Neither the search nor the matching recurses.
    """
    a = np.asarray(d1, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(d2, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("bottleneck distance needs finite pairs; cap infinities first")
    if not len(a) and not len(b):
        return 0.0
    cost = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
    )
    half1 = (a[:, 1] - a[:, 0]) / 2.0
    half2 = (b[:, 1] - b[:, 0]) / 2.0
    # sort and drop repeats: on numpy 2.x np.unique imports numpy.ma on first use
    costs = np.sort(np.concatenate(([0.0], half1, half2, cost.ravel())))
    costs = costs[np.concatenate(([True], costs[1:] != costs[:-1]))]
    lo, hi = 0, len(costs) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_exists(cost, half1, half2, costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    # -0.0 and 0.0 are one candidate; + 0.0 reports it as 0.0
    return float(costs[lo]) + 0.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything run_analysis needs beyond the price series itself."""

    seed: int
    alpha: float = 0.95
    window: int = DEFAULT_WINDOW
    stride: int = DEFAULT_STRIDE
    max_dim: int = DEFAULT_MAX_DIM
    threshold: float | None = None
    fraction: float = 0.5
    with_bottleneck: bool = False

    def __post_init__(self):
        check_alpha(self.alpha)
        check_embedding(self.window, self.stride)
        check_max_dim(self.max_dim)
        check_threshold(self.threshold)
        StressConfig(seed=self.seed, fraction=self.fraction)


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


def preprocess(prices: PriceSeries) -> ReturnSeries:
    """clean -> normalize -> returns; failures carry the stage "preprocess"."""
    try:
        cleaned, _ = clean_series(prices)
        return compute_returns(normalize(cleaned))
    except TopoRiskError as exc:
        raise PipelineError("preprocess", exc) from exc


def _stress_returns(returns: ReturnSeries, cfg: AnalysisConfig) -> ReturnSeries:
    """The config's stress sample of returns; failures carry the stage "stress-sample"."""
    try:
        return stress_sample(returns, StressConfig(seed=cfg.seed, fraction=cfg.fraction))
    except TopoRiskError as exc:
        raise PipelineError("stress-sample", exc) from exc


def _diagrams_for(returns: ReturnSeries, cfg: AnalysisConfig, stage: str) -> PersistenceDiagramSet:
    try:
        cloud = delay_embed(returns, cfg.window, cfg.stride)
        dm = distance_matrix(cloud)
        filtration = build_rips_filtration(dm, cfg.max_dim, cfg.threshold)
        return compute_persistence(filtration)
    except TopoRiskError as exc:
        raise PipelineError(stage, exc) from exc


def run_analysis(prices: PriceSeries, cfg: AnalysisConfig) -> RiskReport:
    """Full per-ticker pipeline from raw prices to a RiskReport.

    clean -> normalize -> returns -> VaR/CVaR -> baseline persistence ->
    stress sample -> stress persistence -> vectorize -> TVaRD. Failures
    carry the stage name via PipelineError.
    """
    returns = preprocess(prices)
    try:
        tail = tail_risk(returns, cfg.alpha)
    except TopoRiskError as exc:
        raise PipelineError("risk", exc) from exc

    baseline = _diagrams_for(returns, cfg, "baseline-persistence")
    stress = _diagrams_for(_stress_returns(returns, cfg), cfg, "stress-persistence")

    try:
        vec_base, vec_stress = vectorize(baseline, stress)
        tvard = tvard_distance(vec_base, vec_stress)
    except TopoRiskError as exc:
        raise PipelineError("tvard", exc) from exc

    bottleneck = None
    if cfg.with_bottleneck:
        cap = max(baseline.threshold, stress.threshold)
        bottleneck = {}
        for q in range(cfg.max_dim + 1):
            pairs_b = _ordered_pairs(baseline.diagrams.get(q, ()), cap)
            pairs_s = _ordered_pairs(stress.diagrams.get(q, ()), cap)
            bottleneck[f"h{q}"] = bottleneck_distance(pairs_b, pairs_s)

    return RiskReport(
        ticker=prices.ticker,
        alpha=cfg.alpha,
        var=tail.var,
        cvar=tail.cvar,
        tvard=tvard,
        bottleneck=bottleneck,
        config=cfg,
        baseline_diagrams=baseline,
        stress_diagrams=stress,
    )
