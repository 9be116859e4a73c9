"""Command-line front end: var, diagram and analyze subcommands.

The commands run the library pipeline of ``tvard`` and leave every range
rule of its parameters to the library: argparse only converts types
(--jobs >= 1 is the one rule of the CLI's own), and each command builds
its validated config before any file is opened. Output files are
written atomically (temp file + rename), and the exit status is 0 only
when every ticker succeeded. Stress-dependent commands require an
explicit --seed; there is no entropy default, because an unseeded stress
sample can never be rerun or audited.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import traceback
from pathlib import Path
from typing import Callable, Sequence

from .errors import ParameterError, PipelineError, TopoRiskError
# perfbench/spans.py wraps clean_series, compute_returns and normalize here too
from .ingest import clean_series, compute_returns, load_price_csv, normalize  # noqa: F401
from .risk import check_alpha, tail_risk
from .tda import write_diagram_csv
from .tvard import (
    AnalysisConfig,
    _diagrams_for,
    _diagrams_json,
    _stress_returns,
    preprocess,
    report_to_json,
    run_analysis,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _threshold_arg(text: str) -> float | None:
    if text.lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threshold must be a number or 'auto', got {text!r}")


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


def _emit(args: argparse.Namespace, text: str) -> bool:
    """Write text to --output atomically, or to stdout without it.

    Returns False, after printing its error line, when --output cannot be
    written (a directory, a path through a file, no permission).
    """
    if not args.output:
        print(text, end="")
        return True
    try:
        _atomic_write(Path(args.output), text)
    except OSError as exc:
        _report_error(Path(args.output), exc)
        return False
    return True


def _fmt(x: float) -> str:
    return format(x, ".12g")


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


def _run_per_ticker(
    paths: list[Path], jobs: int, work: Callable[[Path], object]
) -> tuple[list[object], bool]:
    """Apply work to each path, jobs at a time, and report each failure.

    Returns the results of the paths that succeeded, in input order, and
    whether any path failed. Each failure prints its own error line; no
    exception from one path reaches the others or the caller.
    """

    def safe(path: Path):
        try:
            return work(path)
        except Exception as exc:
            return exc

    if jobs <= 1:
        outcomes = [safe(p) for p in paths]
    else:
        # imported here: concurrent.futures (and the logging it loads) costs
        # every fresh interpreter milliseconds that a serial run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(safe, paths))
    results = []
    for path, outcome in zip(paths, outcomes):
        if isinstance(outcome, Exception):
            _report_error(path, outcome)
        else:
            results.append(outcome)
    return results, len(results) < len(paths)


def _unique_tickers(paths: list[Path]) -> None:
    """Reject two inputs with one ticker (file stem): their outputs would collide."""
    seen: dict[str, Path] = {}
    for path in paths:
        if path.stem in seen:
            raise ParameterError(
                f"inputs {seen[path.stem]} and {path} both name ticker {path.stem!r}"
            )
        seen[path.stem] = path


def _config(args: argparse.Namespace, **fields) -> AnalysisConfig:
    return AnalysisConfig(
        window=args.window,
        stride=args.stride,
        max_dim=args.max_dim,
        threshold=args.threshold,
        fraction=args.stress_fraction,
        **fields,
    )


def cmd_var(args: argparse.Namespace) -> int:
    check_alpha(args.alpha)
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)

    def work(path: Path):
        return path.stem, tail_risk(preprocess(load_price_csv(path)), args.alpha)

    rows, failed = _run_per_ticker(paths, args.jobs, work)
    if args.format == "json":
        payload = [
            {"ticker": t, "alpha": r.alpha, "var": r.var, "cvar": r.cvar} for t, r in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["ticker,var,cvar"]
        lines.extend(f"{t},{_fmt(r.var)},{_fmt(r.cvar)}" for t, r in rows)
        text = "\n".join(lines) + "\n"
    written = _emit(args, text)
    return 0 if written and not failed else 1


def cmd_diagram(args: argparse.Namespace) -> int:
    if len(args.input) != 1:
        raise ParameterError("diagram takes exactly one --input")
    if args.stress and args.seed is None:
        raise ParameterError("--stress requires --seed")
    # without --stress the seed is never used; 0 only fills the config
    cfg = _config(args, seed=0 if args.seed is None else args.seed)

    def work(path: Path):
        returns = preprocess(load_price_csv(path))
        if args.stress:
            return _diagrams_for(_stress_returns(returns, cfg), cfg, "stress-persistence")
        return _diagrams_for(returns, cfg, "baseline-persistence")

    results, failed = _run_per_ticker([Path(args.input[0])], 1, work)
    if failed:
        return 1
    if args.format == "json":
        text = json.dumps(_diagrams_json(results[0]), indent=2) + "\n"
    else:
        buf = io.StringIO()
        write_diagram_csv(results[0], buf)
        text = buf.getvalue()
    return 0 if _emit(args, text) else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config(args, seed=args.seed, alpha=args.alpha, with_bottleneck=args.bottleneck)
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)
    out_dir = Path(args.output) if args.output else Path(".")

    def work(path: Path):
        report = run_analysis(load_price_csv(path), cfg)
        _atomic_write(out_dir / f"{report.ticker}.json", report_to_json(report))
        return report

    reports, failed = _run_per_ticker(paths, args.jobs, work)
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


def _add_io(parser: argparse.ArgumentParser, output_help: str) -> None:
    parser.add_argument(
        "--input", nargs="+", action="extend", required=True, metavar="CSV",
        help="price CSV path(s), one ticker per file (header: date,close)",
    )
    parser.add_argument("--output", default=None, help=output_help)
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table or diagram format (analyze: stdout summary), default csv")


def _add_topology(parser: argparse.ArgumentParser, *, seed_required: bool) -> None:
    parser.add_argument("--window", type=int, default=10,
                        help="delay-embedding window length, default 10")
    parser.add_argument("--stride", type=int, default=1,
                        help="delay-embedding stride, default 1")
    parser.add_argument("--max-dim", type=int, default=2,
                        help="top homology dimension (0, 1 or 2), default 2")
    parser.add_argument("--threshold", type=_threshold_arg, default=None,
                        help="Rips scale cap, a number or 'auto' (max distance); "
                             "auto is O(n^4) in points, prefer a number for large inputs")
    parser.add_argument("--stress-fraction", type=float, default=0.5,
                        help="fraction of returns kept in the stress sample, default 0.5")
    parser.add_argument("--seed", type=int, default=None, required=seed_required,
                        help="unsigned 64-bit RNG seed for stress sampling"
                             + ("" if seed_required else " (required with --stress)"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporisk",
        description="Historical VaR/CVaR plus a topological stress-distance "
                    "(TVaRD) for daily price series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_var = sub.add_parser("var", help="historical VaR and CVaR per ticker")
    _add_io(p_var, "output file for the table, default stdout")
    p_var.set_defaults(func=cmd_var)

    p_diag = sub.add_parser("diagram", help="persistence diagram CSV for one ticker")
    _add_io(p_diag, "output file for the diagram, default stdout")
    _add_topology(p_diag, seed_required=False)
    p_diag.add_argument("--stress", action="store_true",
                        help="compute diagrams of the stress sample instead of the baseline")
    p_diag.set_defaults(func=cmd_diagram)

    p_an = sub.add_parser("analyze", help="full risk report (VaR, CVaR, TVaRD) per ticker")
    _add_io(p_an, "directory for the per-ticker reports, default the current one")
    _add_topology(p_an, seed_required=True)
    p_an.add_argument("--bottleneck", action="store_true",
                      help="also report per-dimension bottleneck distances")
    p_an.set_defaults(func=cmd_analyze)

    for p in (p_var, p_an):
        p.add_argument("--alpha", type=float, default=0.95,
                       help="confidence level in (0, 1), default 0.95")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="tickers processed concurrently, default 1")
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
