"""Command-line front end: var, diagram and analyze subcommands.

The commands run the library pipeline of ``tvard`` and leave every range
rule of its parameters to the library: argparse only converts types, and
each command checks its parameters before any file is opened. Output
files are written atomically (temp file + rename), and the exit status
is 0 only when every ticker succeeded. Stress-dependent commands require an
explicit --seed; there is no entropy default, because an unseeded stress
sample can never be rerun or audited.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

# Set before numpy loads, or OpenBLAS starts a worker thread per extra
# core that busy-waits for about 0.1 s of CPU in every process. The CLI
# gives it no work: TVaRD's norm, its one BLAS call, has a few hundred
# entries at a year of closes, and above 10,000 a second thread would
# make the norm's bits depend on the core count. An explicit setting
# wins; a program importing the library keeps numpy's default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ParameterError, PipelineError, TopoRiskError, check_param
# perfbench/spans.py wraps clean_series, compute_returns and normalize here too
from .ingest import clean_series, compute_returns, load_price_csv, normalize  # noqa: F401
from .risk import tail_risk
from .tvard import (
    AnalysisConfig,
    _diagram_rows,
    _diagrams_for,
    preprocess,
    report_to_json,
    run_analysis,
    stress_sample,
)


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
    # an unexpected failure: keep its traceback for the bug report; imported
    # here, since no other path needs it and every CLI start would pay for it
    import traceback

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


def _table(rows: list[dict], fmt: str, columns: tuple[str, ...]) -> str:
    """``rows`` as a JSON list, or RFC 4180 CSV of ``columns``, floats to 12 significant digits."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(columns)
    out.writerows(
        [format(row[k], ".12g") if isinstance(row[k], float) else row[k] for k in columns]
        for row in rows
    )
    return buf.getvalue()


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
    alpha = check_param("alpha", args.alpha)
    jobs = check_param("jobs", args.jobs)
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)

    def work(path: Path):
        var, cvar = tail_risk(preprocess(load_price_csv(path)), alpha)
        return {"ticker": path.stem, "alpha": alpha, "var": var, "cvar": cvar}

    rows, failed = _run_per_ticker(paths, jobs, work)
    written = _emit(args, _table(rows, args.format, ("ticker", "var", "cvar")))
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
            return _diagrams_for(stress_sample(returns, cfg), cfg, "stress-persistence")
        return _diagrams_for(returns, cfg, "baseline-persistence")

    results, failed = _run_per_ticker([Path(args.input[0])], 1, work)
    if failed:
        return 1
    text = _table(_diagram_rows(results[0]), args.format, ("dim", "birth", "death"))
    return 0 if _emit(args, text) else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config(args, seed=args.seed, alpha=args.alpha, with_bottleneck=args.bottleneck)
    jobs = check_param("jobs", args.jobs)
    paths = [Path(p) for p in args.input]
    _unique_tickers(paths)
    out_dir = Path(args.output) if args.output else Path(".")

    def work(path: Path):
        report = run_analysis(load_price_csv(path), cfg)
        _atomic_write(out_dir / f"{report.ticker}.json", report_to_json(report))
        return {"ticker": report.ticker, "var": report.var, "cvar": report.cvar,
                "tvard": report.tvard}

    rows, failed = _run_per_ticker(paths, jobs, work)
    print(_table(rows, args.format, ("ticker", "var", "cvar", "tvard")), end="")
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
    # every default is AnalysisConfig's own, so the CLI and the library agree
    cfg = AnalysisConfig
    parser.add_argument("--window", type=int, default=cfg.window,
                        help=f"delay-embedding window length, default {cfg.window}")
    parser.add_argument("--stride", type=int, default=cfg.stride,
                        help=f"delay-embedding stride, default {cfg.stride}")
    parser.add_argument("--max-dim", type=int, default=cfg.max_dim,
                        help=f"top homology dimension (0, 1 or 2), default {cfg.max_dim}")
    parser.add_argument("--threshold", type=_threshold_arg, default=cfg.threshold,
                        help="Rips scale cap, a number or 'auto' (max distance), default auto; "
                             "auto grows fast with points, prefer a number beyond a year of closes")
    parser.add_argument("--stress-fraction", type=float, default=cfg.fraction,
                        help="fraction of returns kept in the stress sample, "
                             f"default {cfg.fraction}")
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
        p.add_argument("--alpha", type=float, default=AnalysisConfig.alpha,
                       help=f"confidence level in (0, 1), default {AnalysisConfig.alpha}")
        p.add_argument("--jobs", type=int, default=1,
                       help="tickers run at a time on threads, default 1")
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
