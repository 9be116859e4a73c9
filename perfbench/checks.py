"""Correctness checks on every report, independent of ``toporisk``.

Two kinds of check, both counted per report:

* the report's sha256 equals the pinned digest at a seed in
  ``PINNED_SEEDS``, where a missing pin fails the report, or at any other
  seed the first pass's digest, so every pass must be byte-identical;
* oracles computed here from the generated closes: VaR and CVaR by
  sort-and-index, CVaR <= VaR, TVaRD finite and >= 0, and the baseline H0
  deaths equal to the edge weights of a Kruskal minimum spanning forest
  of the thresholded distances, with one essential class per tree.

Values are compared to 1e-12 relative: the oracles repeat the program's
arithmetic but are not bound to its evaluation order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gen

REL_TOL = 1e-12
PINNED = Path(__file__).with_name("pinned.json")
# Seeds whose report digests pinned.json must hold, per workload.
PINNED_SEEDS = range(10)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def tail_oracle(closes: np.ndarray, alpha: float) -> tuple[float, float]:
    """Historical VaR and CVaR: the k-th smallest return and the mean below it."""
    r = np.sort(gen.returns(closes))
    k = math.floor(round((1.0 - alpha) * r.shape[0], 9))
    return float(r[min(k, r.shape[0] - 1)]), float(np.mean(r[: max(1, k)]))


def kruskal_deaths(dist: np.ndarray, threshold: float) -> tuple[list[float], int]:
    """Positive edge weights of the minimum spanning forest, and its tree count."""
    n = dist.shape[0]
    ii, jj = np.triu_indices(n, 1)
    keep = dist[ii, jj] <= threshold
    ii, jj = ii[keep], jj[keep]
    w = dist[ii, jj]
    order = np.argsort(w, kind="stable")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deaths, trees = [], n
    for e in order.tolist():
        a, b = find(int(ii[e])), find(int(jj[e]))
        if a != b:
            parent[a] = b
            trees -= 1
            if w[e] > 0.0:
                deaths.append(float(w[e]))
    return sorted(deaths), trees


def check_tail(var: float, cvar: float, closes: np.ndarray, alpha: float) -> list[str]:
    problems = []
    if not (math.isfinite(var) and math.isfinite(cvar)):
        problems.append(f"non-finite var {var} or cvar {cvar}")
    elif cvar > var:
        problems.append(f"cvar {cvar} > var {var}")
    want_var, want_cvar = tail_oracle(closes, alpha)
    if not (_close(var, want_var) and _close(cvar, want_cvar)):
        problems.append(f"var/cvar {var}/{cvar} != oracle {want_var}/{want_cvar}")
    return problems


def check_analyze(data: bytes, ticker: str, closes: np.ndarray, threshold: float,
                  alpha: float) -> list[str]:
    """Problems with one analyze report; an empty list means it passed."""
    report = json.loads(data)
    problems = []
    if report["ticker"] != ticker:
        problems.append(f"ticker {report['ticker']!r} != {ticker!r}")
    if report["config"]["threshold"] != threshold:
        problems.append(f"threshold {report['config']['threshold']} != {threshold}")
    problems += check_tail(report["var"], report["cvar"], closes, alpha)
    tvard = report["tvard"]
    if not (isinstance(tvard, float) and math.isfinite(tvard) and tvard >= 0.0):
        problems.append(f"tvard {tvard!r} is not finite and >= 0")
    h0 = [row["death"] for row in report["baseline_diagrams"] if row["dim"] == 0]
    finite = sorted(d for d in h0 if d != "inf")
    essential = len(h0) - len(finite)
    deaths, trees = kruskal_deaths(gen.distances(gen.points(closes)), threshold)
    if essential != trees or len(finite) != len(deaths):
        problems.append(
            f"H0 has {len(finite)} finite + {essential} essential pairs, "
            f"MST forest has {len(deaths)} edges + {trees} trees"
        )
    elif not all(_close(a, b) for a, b in zip(finite, deaths)):
        problems.append("H0 deaths differ from the MST edge weights")
    return problems


def check_var_rows(data: bytes, tickers: list[str], closes: dict[str, np.ndarray],
                   alpha: float) -> dict[str, list[str]]:
    """Problems per ticker row of a var JSON table."""
    rows = {row["ticker"]: row for row in json.loads(data)}
    out = {}
    for ticker in tickers:
        row = rows.get(ticker)
        if row is None:
            out[ticker] = ["missing from the table"]
        else:
            out[ticker] = check_tail(row["var"], row["cvar"], closes[ticker], alpha)
    if list(rows) != [t for t in tickers if t in rows]:
        out["var.json"] = ["rows not in input order"]
    return out


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    """Pinned digests per report; None for a seed outside ``PINNED_SEEDS``.

    A pinned seed with no pin file or no entry gets an empty mapping, so
    each of its reports fails for want of a pin.
    """
    if seed not in PINNED_SEEDS:
        return None
    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    return pins.get(workload, {}).get(str(seed), {})
