"""Command-line front end: var, diagram and analyze subcommands.

Flag validation happens before any file is opened, output files are
written atomically (temp file + rename), and the exit status is 0 only
when every ticker succeeded. Stress-dependent commands require an
explicit --seed; there is no entropy default, because an unseeded stress
sample can never be rerun or audited.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

from .errors import ParameterError, PipelineError, TopoRiskError
from .ingest import ReturnSeries, clean_series, compute_returns, load_price_csv, normalize
from .risk import tail_risk
from .tda import (
    PersistenceDiagramSet,
    build_rips_filtration,
    compute_persistence,
    delay_embed,
    distance_matrix,
    write_diagram_csv,
)
from .tvard import (
    AnalysisConfig,
    StressConfig,
    report_to_json,
    run_analysis,
    stress_sample,
)

_U64_MAX = (1 << 64) - 1


def _alpha_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _max_dim_arg(text: str) -> int:
    if text not in ("0", "1", "2"):
        raise argparse.ArgumentTypeError(f"max-dim must be 0, 1 or 2, got {text!r}")
    return int(text)


def _threshold_arg(text: str) -> float | None:
    if text.lower() == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threshold must be a number or 'auto', got {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"threshold must be finite and >= 0, got {text}")
    return value


def _fraction_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"stress-fraction must be a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"stress-fraction must lie in (0, 1], got {text}")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text!r}")
    if not 0 <= value <= _U64_MAX:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name per write, so concurrent writers never share a temp file
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _returns_for(path: Path) -> ReturnSeries:
    prices = load_price_csv(path)
    cleaned, _ = clean_series(prices)
    return compute_returns(normalize(cleaned))


def _stage_of(exc: Exception) -> str:
    if isinstance(exc, PipelineError):
        return exc.stage
    if isinstance(exc, OSError):
        return "io"
    return "ingest"


def _report_error(path: Path, exc: Exception) -> None:
    if isinstance(exc, (TopoRiskError, OSError)):
        print(f"error [{_stage_of(exc)}] {path}: {exc}", file=sys.stderr)
        return
    # an unexpected failure: keep its traceback for the bug report
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    print(f"error [internal] {path}: {exc!r}", file=sys.stderr)


def _run_per_ticker(paths: list[Path], jobs: int, work: Callable[[Path], object]) -> list[object]:
    """Apply work to each path, jobs at a time; results keep input order.

    Each slot holds either the work result or the exception it raised;
    no exception from one path reaches the others or the caller.
    """

    def safe(path: Path):
        try:
            return work(path)
        except Exception as exc:
            return exc

    if jobs <= 1:
        return [safe(p) for p in paths]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(safe, paths))


def _unique_tickers(paths: list[Path]) -> None:
    """Reject two inputs with one ticker (file stem): their outputs would collide."""
    seen: dict[str, Path] = {}
    for path in paths:
        if path.stem in seen:
            raise ParameterError(
                f"inputs {seen[path.stem]} and {path} both name ticker {path.stem!r}"
            )
        seen[path.stem] = path


def cmd_var(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)

    def work(path: Path):
        result = tail_risk(_returns_for(path), args.alpha)
        return (path.stem, result)

    outcomes = _run_per_ticker(paths, args.jobs, work)
    rows = []
    failed = False
    for path, outcome in zip(paths, outcomes):
        if isinstance(outcome, Exception):
            _report_error(path, outcome)
            failed = True
        else:
            rows.append(outcome)

    if args.format == "json":
        payload = [
            {"ticker": t, "alpha": r.alpha, "var": r.var, "cvar": r.cvar} for t, r in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["ticker,var,cvar"]
        lines.extend(f"{t},{_fmt(r.var)},{_fmt(r.cvar)}" for t, r in rows)
        text = "\n".join(lines) + "\n"

    if args.output:
        _atomic_write(Path(args.output), text)
    else:
        print(text, end="")
    return 1 if failed else 0


def _diagram_set(args: argparse.Namespace, path: Path) -> PersistenceDiagramSet:
    returns = _returns_for(path)
    if args.stress:
        returns = stress_sample(
            returns, StressConfig(seed=args.seed, fraction=args.stress_fraction)
        )
    cloud = delay_embed(returns, args.window, args.stride)
    filtration = build_rips_filtration(distance_matrix(cloud), args.max_dim, args.threshold)
    return compute_persistence(filtration)


def cmd_diagram(args: argparse.Namespace) -> int:
    if len(args.input) != 1:
        print("error [cli]: diagram takes exactly one --input", file=sys.stderr)
        return 2
    if args.stress and args.seed is None:
        print("error [cli]: --stress requires --seed", file=sys.stderr)
        return 2
    path = Path(args.input[0])
    try:
        diagrams = _diagram_set(args, path)
    except ParameterError as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 2
    except (TopoRiskError, OSError) as exc:
        _report_error(path, exc)
        return 1

    if args.format == "json":
        rows = [
            {"dim": q, "birth": b, "death": "inf" if d == float("inf") else d}
            for q in sorted(diagrams.diagrams)
            for b, d in diagrams.diagrams[q]
        ]
        text = json.dumps(rows, indent=2) + "\n"
        if args.output:
            _atomic_write(Path(args.output), text)
        else:
            print(text, end="")
        return 0

    if args.output:
        import io

        buf = io.StringIO()
        write_diagram_csv(diagrams, buf)
        _atomic_write(Path(args.output), buf.getvalue())
    else:
        write_diagram_csv(diagrams, sys.stdout)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)
    out_dir = Path(args.output) if args.output else Path(".")
    cfg = AnalysisConfig(
        seed=args.seed,
        alpha=args.alpha,
        window=args.window,
        stride=args.stride,
        max_dim=args.max_dim,
        threshold=args.threshold,
        fraction=args.stress_fraction,
        with_bottleneck=args.bottleneck,
    )

    def work(path: Path):
        report = run_analysis(load_price_csv(path), cfg)
        _atomic_write(out_dir / f"{report.ticker}.json", report_to_json(report))
        return report

    outcomes = _run_per_ticker(paths, args.jobs, work)
    reports = []
    failed = False
    for path, outcome in zip(paths, outcomes):
        if isinstance(outcome, Exception):
            _report_error(path, outcome)
            failed = True
        else:
            reports.append(outcome)

    if args.format == "json":
        payload = [
            {"ticker": r.ticker, "var": r.var, "cvar": r.cvar, "tvard": r.tvard}
            for r in reports
        ]
        print(json.dumps(payload, indent=2))
    else:
        print("ticker,var,cvar,tvard")
        for r in reports:
            print(f"{r.ticker},{_fmt(r.var)},{_fmt(r.cvar)},{_fmt(r.tvard)}")
    return 1 if failed else 0


def _add_common(parser: argparse.ArgumentParser, *, seed_required: bool = False) -> None:
    parser.add_argument(
        "--input", nargs="+", action="extend", required=True, metavar="CSV",
        help="price CSV path(s), one ticker per file (header: date,close)",
    )
    parser.add_argument("--alpha", type=_alpha_arg, default=0.95,
                        help="confidence level in (0, 1), default 0.95")
    parser.add_argument("--window", type=_positive_int, default=10,
                        help="delay-embedding window length, default 10")
    parser.add_argument("--stride", type=_positive_int, default=1,
                        help="delay-embedding stride, default 1")
    parser.add_argument("--max-dim", type=_max_dim_arg, default=2,
                        help="top homology dimension (0, 1 or 2), default 2")
    parser.add_argument("--threshold", type=_threshold_arg, default=None,
                        help="Rips scale cap, a number or 'auto' (max distance); "
                             "auto is O(n^4) in points, prefer a number for large inputs")
    parser.add_argument("--stress-fraction", type=_fraction_arg, default=0.5,
                        help="fraction of returns kept in the stress sample, default 0.5")
    parser.add_argument("--seed", type=_seed_arg, default=None, required=seed_required,
                        help="unsigned 64-bit RNG seed for stress sampling"
                             + ("" if seed_required else " (required with --stress)"))
    parser.add_argument("--output", default=None,
                        help="output path (analyze: directory for per-ticker reports)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="stdout format, default csv")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="tickers processed concurrently, default 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporisk",
        description="Historical VaR/CVaR plus a topological stress-distance "
                    "(TVaRD) for daily price series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_var = sub.add_parser("var", help="historical VaR and CVaR per ticker")
    _add_common(p_var)
    p_var.set_defaults(func=cmd_var)

    p_diag = sub.add_parser("diagram", help="persistence diagram CSV for one ticker")
    _add_common(p_diag)
    p_diag.add_argument("--stress", action="store_true",
                        help="compute diagrams of the stress sample instead of the baseline")
    p_diag.set_defaults(func=cmd_diagram)

    p_an = sub.add_parser("analyze", help="full risk report (VaR, CVaR, TVaRD) per ticker")
    _add_common(p_an, seed_required=True)
    p_an.add_argument("--bottleneck", action="store_true",
                      help="also report per-dimension bottleneck distances")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
