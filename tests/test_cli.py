"""Command-line behavior: formats, exit codes, determinism, atomic output."""

from __future__ import annotations

import csv as csv_module
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import toporisk
import toporisk.cli as cli
from toporisk import AnalysisConfig
from toporisk.cli import main

from conftest import write_price_csv


def invoke(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_csv(tmp_path: Path, name="TICK", count=40, seed=61) -> Path:
    rng = random.Random(seed)
    closes = [100.0]
    for _ in range(count - 1):
        closes.append(closes[-1] * (1.0 + rng.gauss(0.0005, 0.012)))
    return write_price_csv(tmp_path / f"{name}.csv", closes)


# --- var ---


def test_var_csv_output(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, err = invoke(capsys, "var", "--input", str(csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ticker,var,cvar"
    ticker, var, cvar = lines[1].split(",")
    assert ticker == "TICK"
    assert float(cvar) <= float(var)


def test_var_csv_quotes_tickers(tmp_path, capsys):
    # a ticker is its file's stem, which may hold the CSV's comma or quote
    names = ("A,B", 'Q"X', "TICK")
    csvs = [make_csv(tmp_path, name, seed=70 + i) for i, name in enumerate(names)]
    code, out, _ = invoke(capsys, "var", "--input", *map(str, csvs))
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["ticker", *names]
    assert {len(row) for row in rows} == {3}
    # an ordinary ticker keeps its bytes
    assert out.splitlines()[3].startswith("TICK,")


def test_var_json_output(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, _ = invoke(capsys, "var", "--input", str(csv), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["ticker"] == "TICK"
    assert payload[0]["alpha"] == 0.95
    assert payload[0]["cvar"] <= payload[0]["var"]


def test_var_multiple_inputs_order(tmp_path, capsys):
    csvs = [make_csv(tmp_path, name, seed=62 + i) for i, name in enumerate(("BBB", "AAA"))]
    code, out, _ = invoke(capsys, "var", "--input", str(csvs[0]), str(csvs[1]))
    assert code == 0
    tickers = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert tickers == ["BBB", "AAA"]  # input order, not alphabetical


def test_var_output_file(tmp_path, capsys):
    csv = make_csv(tmp_path)
    out_file = tmp_path / "var.csv"
    code, out, _ = invoke(capsys, "var", "--input", str(csv), "--output", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("ticker,var,cvar\n")
    assert not list(tmp_path.glob(".*tmp*"))


def test_var_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, err = invoke(capsys, "var", "--input", str(missing))
    assert code == 1
    assert "nope.csv" in err


def test_flag_validation_before_io(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, err = invoke(capsys, "var", "--input", str(missing), "--alpha", "1.5")
    assert code == 2
    assert "alpha" in err
    assert "nope.csv" not in err  # rejected before any read was attempted


def test_bad_flag_values_exit_2(tmp_path, capsys):
    csv = make_csv(tmp_path)
    for flags in (
        ("--alpha", "0"),
        ("--window", "0"),
        ("--stride", "-1"),
        ("--max-dim", "3"),
        ("--threshold", "-1"),
        ("--stress-fraction", "0"),
        ("--stress-fraction", "1.5"),
        ("--jobs", "0"),
    ):
        code, _, _ = invoke(capsys, "var", "--input", str(csv), *flags)
        assert code == 2, flags


# --- diagram ---


def test_diagram_stdout(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, _ = invoke(
        capsys, "diagram", "--input", str(csv), "--window", "5", "--threshold", "0.7"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim,birth,death"
    h0 = [line for line in lines[1:] if line.startswith("0,")]
    assert h0 and all(line.split(",")[1] == "0" for line in h0)

    outs = [
        invoke(capsys, "diagram", "--input", str(csv), "--max-dim", "0", *extra)
        for extra in ((), ("--threshold", "AUTO"))
    ]
    assert outs[0][0] == 0 and outs[0][1] and outs[0] == outs[1]


def test_diagram_file_deterministic(tmp_path, capsys):
    csv = make_csv(tmp_path)
    paths = [tmp_path / "d1.csv", tmp_path / "d2.csv"]
    for p in paths:
        code, _, _ = invoke(
            capsys,
            "diagram", "--input", str(csv), "--window", "5", "--threshold", "0.7",
            "--output", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_diagram_stress_requires_seed(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, _, err = invoke(
        capsys, "diagram", "--input", str(csv), "--window", "5", "--stress"
    )
    assert code == 2
    assert "--seed" in err

    code, out, _ = invoke(
        capsys,
        "diagram", "--input", str(csv), "--window", "5", "--threshold", "0.7",
        "--stress", "--seed", "7",
    )
    assert code == 0
    assert out.startswith("dim,birth,death")


def test_diagram_single_input_only(tmp_path, capsys):
    a = make_csv(tmp_path, "A")
    b = make_csv(tmp_path, "B", seed=63)
    code, _, err = invoke(capsys, "diagram", "--input", str(a), str(b))
    assert code == 2
    assert "one" in err


def test_diagram_json_format(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, _ = invoke(
        capsys,
        "diagram", "--input", str(csv), "--window", "5", "--threshold", "0.7",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"dim", "birth", "death"} for r in rows)


# --- analyze ---


def test_analyze_requires_seed(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, _, err = invoke(capsys, "analyze", "--input", str(csv))
    assert code == 2
    assert "--seed" in err


def test_analyze_writes_report_and_summary(tmp_path, capsys):
    csv = make_csv(tmp_path)
    out_dir = tmp_path / "reports"
    code, out, _ = invoke(
        capsys,
        "analyze", "--input", str(csv), "--seed", "42", "--window", "5",
        "--threshold", "0.7", "--output", str(out_dir),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ticker,var,cvar,tvard"
    assert lines[1].startswith("TICK,")
    report = json.loads((out_dir / "TICK.json").read_text())
    assert report["config"]["seed"] == 42
    assert report["config"]["threshold"] == 0.7
    assert float(lines[1].split(",")[3]) == pytest.approx(report["tvard"], rel=1e-10)
    assert not list(out_dir.glob(".*tmp*"))


def test_analyze_full_fraction_zero_tvard(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, _ = invoke(
        capsys,
        "analyze", "--input", str(csv), "--seed", "1", "--window", "5",
        "--threshold", "0.7", "--stress-fraction", "1.0", "--output", str(tmp_path / "r"),
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "0"


def test_analyze_partial_failure(tmp_path, capsys):
    good = make_csv(tmp_path, "GOOD")
    bad = tmp_path / "BAD.csv"
    bad.write_text("date,close\n2024-01-02,100.0\n2024-01-03,100.0\n2024-01-04,100.0\n")
    out_dir = tmp_path / "reports"
    code, out, err = invoke(
        capsys,
        "analyze", "--input", str(good), str(bad), "--seed", "3", "--window", "5",
        "--threshold", "0.7", "--output", str(out_dir),
    )
    assert code == 1
    assert (out_dir / "GOOD.json").exists()
    assert not (out_dir / "BAD.json").exists()
    assert "BAD.csv" in err and "preprocess" in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["GOOD"]


def test_analyze_jobs_parallel_identical(tmp_path, capsys):
    # the same bytes from 1 job as from 3, and from a threshold of -0 as of 0
    csvs = [make_csv(tmp_path, name, seed=64 + i) for i, name in enumerate(("A", "B", "C"))]
    for runs in (
        {"seq": ("--threshold", "0.7", "--jobs", "1"), "par": ("--threshold", "0.7", "--jobs", "3")},
        {"zero": ("--threshold", "0"), "minus-zero": ("--threshold", "-0")},
    ):
        dirs = [tmp_path / name for name in runs]
        outputs = []
        for flags, out_dir in zip(runs.values(), dirs):
            code, out, _ = invoke(
                capsys,
                "analyze", "--input", *[str(c) for c in csvs], "--seed", "5",
                "--window", "5", *flags, "--output", str(out_dir),
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        for name in ("A", "B", "C"):
            assert (dirs[0] / f"{name}.json").read_bytes() == (dirs[1] / f"{name}.json").read_bytes()
    assert math.copysign(1.0, AnalysisConfig(seed=0, threshold=-0.0).threshold) == 1.0


def test_analyze_bottleneck_flag(tmp_path, capsys):
    csv = make_csv(tmp_path)
    out_dir = tmp_path / "reports"
    code, _, _ = invoke(
        capsys,
        "analyze", "--input", str(csv), "--seed", "9", "--window", "5",
        "--threshold", "0.7", "--bottleneck", "--output", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "TICK.json").read_text())
    assert set(report["bottleneck"]) == {"h0", "h1", "h2"}


IMPORTS_DURING_PASS = """
import json, sys
import toporisk.cli as cli
cli.build_parser()
before = set(sys.modules)
code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "gained": sorted(set(sys.modules) - before),
    "futures": "concurrent.futures" in sys.modules,
    "traceback": "traceback" in before,
}))
"""


def run_fresh(*args: str, **environ: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports this checkout's toporisk.

    OPENBLAS_NUM_THREADS is unset there unless ``environ`` sets it.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_analyze_pass_imports_nothing(tmp_path):
    # a fresh interpreter, as a shell user's call: an import inside the
    # pass is paid on every call; compared before and after, not by name,
    # because numpy 1.x imports numpy.ma eagerly and 2.x on first use
    csv = make_csv(tmp_path)
    argv = [
        "analyze", "--input", str(csv), "--seed", "9", "--window", "5",
        "--threshold", "0.7", "--bottleneck", "--output", str(tmp_path / "r"),
    ]
    done = run_fresh("-c", IMPORTS_DURING_PASS, *argv)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # traceback loads only on the internal-error path, not with the CLI
    assert result == {"code": 0, "gained": [], "futures": False, "traceback": False}


def test_import_toporisk_loads_no_numpy():
    # each public name loads its module on first use; conftest has loaded
    # numpy in this process, so only a fresh interpreter shows the order
    done = run_fresh("-c", "import sys, toporisk; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


CLI_THREADS = """
import os, toporisk.cli
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_cli_import_starts_openblas_without_a_thread_pool():
    # without the setting OpenBLAS starts a busy-waiting thread per extra core
    done = run_fresh("-c", CLI_THREADS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]


def test_cli_import_keeps_an_explicit_openblas_setting():
    done = run_fresh("-c", "import os, toporisk.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]


STAR_IMPORT = """
import json, sys, toporisk
unlisted = sorted(set(toporisk.__all__) - set(dir(toporisk)))  # before any name loads
names = {}
exec("from toporisk import *", names)
del names["__builtins__"]
print(json.dumps({
    "bound": sorted(names) == toporisk.__all__,
    "unlisted": unlisted,
    "misbound": [k for k, v in names.items() if getattr(sys.modules[v.__module__], k) is not v],
}))
"""


def test_star_import_binds_every_public_name():
    done = run_fresh("-c", STAR_IMPORT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"bound": True, "unlisted": [], "misbound": []}
    # a name left out of the table leaves __all__ too
    assert len(toporisk.__all__) == 35


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'toporisk' has no attribute 'no_such'$"):
        toporisk.no_such
    with pytest.raises(ImportError, match="no_such"):
        from toporisk import no_such  # noqa: F401


@pytest.mark.parametrize("status", [0, 1, 2])
def test_module_entry_point_exit_status(tmp_path, status):
    # ``python -m toporisk`` exits with main's status: 0 when every ticker
    # succeeds, 1 when one fails, 2 on a flag argparse refuses
    good = str(make_csv(tmp_path, "GOOD"))
    argv = {
        0: ["var", "--input", good],
        1: ["var", "--input", str(tmp_path / "MISSING.csv"), good],
        2: ["var", "--input", good, "--no-such-flag"],
    }[status]
    done = run_fresh("-m", "toporisk", *argv)
    assert done.returncode == status, done.stderr
    if status < 2:
        assert done.stdout.splitlines()[-1].startswith("GOOD,")
    if status == 1:
        assert done.stderr.startswith("error [io]") and "MISSING.csv" in done.stderr
    if status == 2:
        assert done.stdout == "" and "--no-such-flag" in done.stderr


def test_analyze_json_summary(tmp_path, capsys):
    csv = make_csv(tmp_path)
    code, out, _ = invoke(
        capsys,
        "analyze", "--input", str(csv), "--seed", "2", "--window", "5",
        "--threshold", "0.7", "--format", "json", "--output", str(tmp_path / "r"),
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload[0]) == ["ticker", "var", "cvar", "tvard"]


# --- robustness: flags before I/O, isolated tickers, colliding names ---


def test_undecodable_file_keeps_other_tickers(tmp_path, capsys):
    good = make_csv(tmp_path, "GOOD")
    bad = tmp_path / "BAD.csv"
    bad.write_bytes(b"date,close\n2024-01-02,100.0\xff\n")
    code, out, err = invoke(capsys, "var", "--input", str(good), str(bad))
    assert code == 1
    assert "error [ingest]" in err and "BAD.csv" in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["GOOD"]


def test_unexpected_ticker_error_is_isolated(tmp_path, capsys, monkeypatch):
    good = make_csv(tmp_path, "GOOD")
    bad = make_csv(tmp_path, "BAD", seed=62)
    load = cli.load_price_csv

    def flaky_load(path):
        if path.stem == "BAD":
            raise RecursionError("maximum recursion depth exceeded")
        return load(path)

    monkeypatch.setattr(cli, "load_price_csv", flaky_load)
    code, out, err = invoke(capsys, "var", "--input", str(bad), str(good))
    assert code == 1
    assert "error [internal]" in err and "BAD.csv" in err and "RecursionError" in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["GOOD"]


def test_nonfinite_threshold_rejected_before_io(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    for value in ("nan", "NaN", "inf", "-inf", "Infinity"):
        for command in (("var",), ("diagram",), ("analyze", "--seed", "1")):
            code, _, err = invoke(
                capsys, *command, "--input", str(missing), "--threshold", value
            )
            assert code == 2, (command, value)
            assert "threshold" in err and "[io]" not in err, (command, value)


def test_defaults_are_the_library_defaults(capsys):
    parser = cli.build_parser()
    args = parser.parse_args(["analyze", "--input", "X.csv", "--seed", "1"])
    assert cli._config(args, seed=args.seed, alpha=args.alpha) == AnalysisConfig(seed=1)
    assert parser.parse_args(["var", "--input", "X.csv"]).alpha == AnalysisConfig.alpha
    cfg = AnalysisConfig
    topology = (
        f"window length, default {cfg.window}",
        f"stride, default {cfg.stride}",
        f"(0, 1 or 2), default {cfg.max_dim}",
        f"stress sample, default {cfg.fraction}",
    )
    alpha = (f"(0, 1), default {cfg.alpha}",)
    for command, numbers in (
        ("var", alpha), ("diagram", topology), ("analyze", topology + alpha)
    ):
        code, out, _ = invoke(capsys, command, "--help")
        assert code == 0
        # argparse wraps help text at any space
        text = " ".join(out.split())
        for number in numbers:
            assert number in text, (command, number)


def test_diagram_stress_without_seed_rejected_before_io(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, err = invoke(capsys, "diagram", "--input", str(missing), "--stress")
    assert code == 2
    assert "--seed" in err and "[io]" not in err


def test_colliding_tickers_rejected(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        make_csv(tmp_path / sub, "X")
    out_dir = tmp_path / "reports"
    code, out, err = invoke(
        capsys,
        "analyze", "--input", str(tmp_path / "a" / "X.csv"), str(tmp_path / "b" / "X.csv"),
        "--seed", "1", "--window", "5", "--threshold", "0.7", "--output", str(out_dir),
    )
    assert code == 2
    assert "'X'" in err and out == ""
    assert not out_dir.exists()

    # rejected before any read: missing inputs give no [io] error
    code, _, err = invoke(
        capsys,
        "analyze", "--input", str(tmp_path / "a" / "Y.csv"), str(tmp_path / "b" / "Y.csv"),
        "--seed", "1",
    )
    assert code == 2
    assert "'Y'" in err and "[io]" not in err

    # var would print two rows named X
    code, out, err = invoke(
        capsys, "var", "--input", str(tmp_path / "a" / "X.csv"), str(tmp_path / "b" / "X.csv")
    )
    assert code == 2
    assert "'X'" in err and out == ""


def test_atomic_write_temp_name_unique_per_write(tmp_path, monkeypatch):
    temps = []
    replace = os.replace

    def recording_replace(src, dst):
        temps.append(Path(src).name)
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording_replace)
    target = tmp_path / "X.json"
    cli._atomic_write(target, "one")
    cli._atomic_write(target, "two")
    assert len(set(temps)) == 2
    assert target.read_text() == "two"
    assert not list(tmp_path.glob(".*tmp*"))


@pytest.mark.parametrize("command", [
    ("var",),
    ("diagram", "--window", "5", "--threshold", "0.7"),
])
def test_unwritable_output_is_one_io_error_line(tmp_path, capsys, command):
    csv = make_csv(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    taken = tmp_path / "taken.csv"
    taken.write_text("not a directory\n")
    # os.replace onto a directory, and mkdir through a file
    for target in (out_dir, taken / "x.csv"):
        code, out, err = invoke(
            capsys, command[0], "--input", str(csv), *command[1:], "--output", str(target)
        )
        assert code == 1, target
        assert out == ""
        assert err.startswith(f"error [io] {target}: ") and err.count("\n") == 1, err
    assert taken.read_text() == "not a directory\n"
    assert not list(out_dir.iterdir())
    assert not list(tmp_path.glob(".*tmp*"))


def test_var_and_analyze_label_preprocess_failure_alike(tmp_path, capsys):
    flat = write_price_csv(tmp_path / "FLAT.csv", [100.0] * 40)
    for command in (("var",), ("analyze", "--seed", "1", "--output", str(tmp_path / "r"))):
        code, _, err = invoke(capsys, *command, "--input", str(flat))
        assert code == 1, command
        assert f"error [preprocess] {flat}" in err, command


def test_diagram_unexpected_error_is_isolated(tmp_path, capsys, monkeypatch):
    csv = make_csv(tmp_path, "BAD")

    def flaky_load(path):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "load_price_csv", flaky_load)
    code, out, err = invoke(capsys, "diagram", "--input", str(csv), "--window", "5")
    assert code == 1
    assert out == ""
    assert "Traceback" in err
    assert f"error [internal] {csv}: RecursionError" in err


def _diagram_csv_lines(rows: list[dict]) -> list[str]:
    def fmt(x):
        return x if x == "inf" else format(x, ".12g")

    return ["dim,birth,death"] + [f"{r['dim']},{fmt(r['birth'])},{fmt(r['death'])}" for r in rows]


def test_diagram_matches_analyze_report(tmp_path, capsys):
    csv = make_csv(tmp_path)
    flags = ("--window", "5", "--threshold", "0.7", "--stress-fraction", "0.6")
    code, _, _ = invoke(
        capsys, "analyze", "--input", str(csv), "--seed", "17", *flags,
        "--output", str(tmp_path / "r"),
    )
    assert code == 0
    report = json.loads((tmp_path / "r" / "TICK.json").read_text())
    for key, extra in (("baseline_diagrams", ()), ("stress_diagrams", ("--stress", "--seed", "17"))):
        assert report[key]
        code, out, _ = invoke(capsys, "diagram", "--input", str(csv), *flags, *extra,
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == report[key], key
        code, out, _ = invoke(capsys, "diagram", "--input", str(csv), *flags, *extra)
        assert code == 0
        assert out.splitlines() == _diagram_csv_lines(report[key]), key
    assert report["baseline_diagrams"] != report["stress_diagrams"]


def test_range_rules_rejected_before_io_on_every_command(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    cases = (
        ("--alpha", "0", "alpha"),
        ("--alpha", "nan", "alpha"),
        ("--window", "0", "window"),
        ("--stride", "-1", "stride"),
        ("--max-dim", "3", "max-dim"),
        ("--threshold", "-1", "threshold"),
        ("--threshold", "abc", "threshold"),
        ("--stress-fraction", "0", "fraction"),
        ("--stress-fraction", "1.5", "fraction"),
        ("--jobs", "0", "jobs"),
        ("--jobs", "x", "jobs"),
        ("--seed", "-1", "seed"),
        ("--seed", str(1 << 64), "seed"),
    )
    for command in (("var",), ("diagram",), ("analyze", "--seed", "1")):
        for flag, value, name in cases:
            code, out, err = invoke(capsys, *command, "--input", str(missing), flag, value)
            assert code == 2, (command, flag, value)
            assert name in err.replace("_", "-"), (command, flag, value, err)
            assert "[io]" not in err and out == "", (command, flag, value)
