"""In-memory spans around calls into toporisk's modules, and their arithmetic.

The recorder wraps module attributes (the names ``run_analysis`` and the
CLI look up at call time), so the program under test is unchanged and
an untraced pass runs none of this code. Each span records its name,
layer, ticker, parent, start and end; a span opened in a pool thread
with no open span of its own takes the pass span as parent. Counts
(simplices, pairs, rows) are taken from arguments and results after the
span closes, so counting is never inside a timed interval.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

LAYERS = ("ingest", "risk", "tda", "tvard", "cli")


@dataclass
class Span:
    """One call: wall interval, thread CPU seconds, ticker, parent index, counts."""

    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    ticker: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap (pool threads under one pass span), so the
    covered part is the length of the union of the children's intervals,
    clipped to the parent's interval.
    """
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(idx, ())
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


class Recorder:
    """Collects spans for one traced pass; ``install`` wraps, ``restore`` unwraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, ticker: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if ticker is None and parent is not None:
            ticker = self.spans[parent].ticker
        # cpu holds the thread's CPU clock at open until close turns it into a delta
        span = Span(name, parent, time.perf_counter(), cpu=time.thread_time(), ticker=ticker)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             ticker: str | None = None, count: Callable | None = None) -> Any:
        idx = self.open(name, ticker)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if count is not None:
            count(self.spans[idx], args, result)
        return result

    def _wrap(self, module: object, attr: str, name: str, count: Callable | None = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, count=count)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, cli: Any, tvard: Any) -> None:
        """Wrap every public call the analyze and var commands make."""
        for module in (cli, tvard):
            for attr in ("clean_series", "normalize", "compute_returns"):
                self._wrap(module, attr, f"ingest.{attr}")
            self._wrap(module, "tail_risk", "risk.tail_risk")
        self._wrap(cli, "load_price_csv", "ingest.load_price_csv", _count_rows)
        self._wrap(cli, "run_analysis", "tvard.run_analysis")
        self._wrap(cli, "report_to_json", "tvard.report_to_json")
        self._wrap(tvard, "_diagrams_for", "tvard.diagrams", _count_stage)
        self._wrap(tvard, "delay_embed", "tda.delay_embed", _count_points)
        self._wrap(tvard, "distance_matrix", "tda.distance_matrix", _count_tensor)
        self._wrap(tvard, "build_rips_filtration", "tda.build_rips_filtration", _count_simplices)
        self._wrap(tvard, "compute_persistence", "tda.compute_persistence", _count_pairs)
        self._wrap(tvard, "stress_sample", "tvard.stress_sample")
        self._wrap(tvard, "vectorize", "tvard.vectorize")
        self._wrap(tvard, "tvard_distance", "tvard.tvard_distance")
        self._wrap(tvard, "bottleneck_distance", "tvard.bottleneck_distance", self._count_cells)

        run_per_ticker = cli._run_per_ticker

        def per_ticker(paths, jobs, work):
            def traced_work(path):
                return self.call("cli.ticker", work, (path,), {}, ticker=Path(path).stem)

            return run_per_ticker(paths, jobs, traced_work)

        self._patched.append((cli, "_run_per_ticker", run_per_ticker))
        cli._run_per_ticker = per_ticker

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _count_cells(self, span: Span, args: tuple, result: Any) -> None:
        # run_analysis calls bottleneck_distance for h0, h1, h2 in order
        parent = span.parent
        span.attrs["q"] = sum(
            1 for s in self.spans
            if s.parent == parent and s.name == span.name and s is not span and s.end <= span.start
        )
        span.attrs["cells"] = len(args[0]) * len(args[1])


def _count_rows(span: Span, args: tuple, result: Any) -> None:
    span.attrs["rows"] = len(result)


def _count_stage(span: Span, args: tuple, result: Any) -> None:
    span.attrs["stage"] = args[2].split("-", 1)[0]


def _count_points(span: Span, args: tuple, result: Any) -> None:
    span.attrs["points"] = len(result)


def _count_tensor(span: Span, args: tuple, result: Any) -> None:
    n, w = args[0].points.shape
    span.attrs["tensor_mb"] = n * n * w * 8 / 1e6


def _count_simplices(span: Span, args: tuple, result: Any) -> None:
    counts = [0, 0, 0, 0]
    for s in result.simplices:
        counts[len(s.vertices) - 1] += 1
    span.attrs["simplices"] = counts


def _count_pairs(span: Span, args: tuple, result: Any) -> None:
    span.attrs["pairs"] = [len(result.diagrams.get(q, ())) for q in range(3)]


def _stage(spans: list[Span], span: Span) -> str | None:
    """baseline or stress, from the enclosing ``tvard.diagrams`` span."""
    idx = span.parent
    while idx is not None:
        if spans[idx].name == "tvard.diagrams":
            return spans[idx].attrs.get("stage")
        idx = spans[idx].parent
    return None


def pass_metrics(spans: list[Span], wall: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are summed over every call in the pass; simplex, point and pair
    counts are summed over the tickers' baseline complexes only.
    """

    def total(name: str, q: int | None = None) -> float:
        return sum(
            s.duration for s in spans
            if s.name == name and (q is None or s.attrs.get("q") == q)
        )

    baseline = [s for s in spans if _stage(spans, s) == "baseline"]

    def baseline_sum(name: str, attr: str, index: int | None = None) -> int:
        out = 0
        for s in baseline:
            if s.name == name:
                value = s.attrs[attr]
                out += value if index is None else value[index]
        return out

    # Busy time is the ticker spans' thread CPU time: in GIL-bound pool
    # threads a span's wall time also counts the wait for the lock.
    busy = sum(s.cpu for s in spans if s.name == "cli.ticker")
    m = {
        "tda.persistence_s": total("tda.compute_persistence"),
        "tda.rips_build_s": total("tda.build_rips_filtration"),
        "tda.distance_s": total("tda.distance_matrix"),
        "tda.embed_s": total("tda.delay_embed"),
        "tda.points": baseline_sum("tda.delay_embed", "points"),
        "tda.edges": baseline_sum("tda.build_rips_filtration", "simplices", 1),
        "tda.triangles": baseline_sum("tda.build_rips_filtration", "simplices", 2),
        "tda.tetrahedra": baseline_sum("tda.build_rips_filtration", "simplices", 3),
        "tda.pairs_h0": baseline_sum("tda.compute_persistence", "pairs", 0),
        "tda.pairs_h1": baseline_sum("tda.compute_persistence", "pairs", 1),
        "tda.pairs_h2": baseline_sum("tda.compute_persistence", "pairs", 2),
        "tda.distance_mb_computed": max(
            (s.attrs["tensor_mb"] for s in spans if s.name == "tda.distance_matrix"), default=0.0
        ),
        "tvard.bottleneck_s_h0": total("tvard.bottleneck_distance", 0),
        "tvard.bottleneck_s_h1": total("tvard.bottleneck_distance", 1),
        "tvard.bottleneck_s_h2": total("tvard.bottleneck_distance", 2),
        "tvard.bottleneck_cells_h0": sum(
            s.attrs["cells"] for s in spans
            if s.name == "tvard.bottleneck_distance" and s.attrs["q"] == 0
        ),
        "tvard.stress_sample_s": total("tvard.stress_sample"),
        "tvard.vectorize_s": total("tvard.vectorize"),
        "ingest.load_s": total("ingest.load_price_csv"),
        "ingest.preprocess_s": sum(
            total(f"ingest.{f}") for f in ("clean_series", "normalize", "compute_returns")
        ),
        "ingest.rows": sum(s.attrs["rows"] for s in spans if s.name == "ingest.load_price_csv"),
        "risk.tail_s": total("risk.tail_risk"),
        "cli.busy_s": busy,
        "cli.parallel_eff": busy / (jobs * wall),
        "cli.serialize_s": total("tvard.report_to_json"),
    }
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
    return m


def span_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name, for the run's detail record."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table


def count_records(spans: list[Span]) -> list[dict[str, Any]]:
    """Every span's counts with its ticker and stage: the simplex, point and
    pair counts of each complex, for the run's detail record."""
    return [
        {"name": s.name, "ticker": s.ticker, "stage": _stage(spans, s), **s.attrs}
        for s in spans
        if s.attrs and s.name != "tvard.diagrams"
    ]
