"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests -q``.

They sit outside ``tests/`` so the tier-1 suite never collects them.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import report_digests  # noqa: E402


def _fixture_module():
    spec = importlib.util.spec_from_file_location("toporisk_test_fixtures", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_reproduces_fixture_bit_for_bit(tmp_path):
    fixtures = _fixture_module()
    assert gen.desk_prices(0, workloads.JITTER).tobytes() == fixtures.synthetic_prices().tobytes()
    written = fixtures.write_price_csv(tmp_path / "SYN.csv", fixtures.synthetic_prices())
    assert gen.price_csv_text(gen.desk_prices(0, workloads.JITTER)).encode() == written.read_bytes()


@pytest.mark.parametrize("jitter", [workloads.JITTER, workloads.DESK_JITTER])
def test_seed_changes_every_close_but_not_the_length(jitter):
    base, other = gen.desk_prices(0, jitter), gen.desk_prices(7, jitter)
    assert base.shape == other.shape
    assert not np.any(base[1:] == other[1:])
    assert np.array_equal(other, gen.desk_prices(7, jitter))


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span("cli.main", None, 0.0, 10.0),
        spans.Span("cli.ticker", 0, 1.0, 4.0),
        spans.Span("cli.ticker", 0, 3.0, 6.0),   # overlaps its sibling
        spans.Span("tda.x", 1, 2.0, 3.0),
        spans.Span("tda.y", 2, 5.0, 7.0),        # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0])


def test_pass_metrics_on_hand_built_tree():
    tree = [
        spans.Span("cli.main", None, 0.0, 4.0),
        spans.Span("cli.ticker", 0, 0.0, 4.0, cpu=1.0, ticker="A"),
        spans.Span("tvard.diagrams", 1, 0.5, 3.5, ticker="A", attrs={"stage": "baseline"}),
        spans.Span("tda.build_rips_filtration", 2, 0.5, 1.5, ticker="A",
                   attrs={"simplices": [5, 7, 3, 1]}),
        spans.Span("tda.compute_persistence", 2, 1.5, 3.5, ticker="A",
                   attrs={"pairs": [5, 2, 1]}),
    ]
    m = spans.pass_metrics(tree, wall=4.0, jobs=2)
    assert m["tda.rips_build_s"] == 1.0 and m["tda.persistence_s"] == 2.0
    assert (m["tda.edges"], m["tda.triangles"], m["tda.tetrahedra"]) == (7, 3, 1)
    assert (m["tda.pairs_h0"], m["tda.pairs_h1"], m["tda.pairs_h2"]) == (5, 2, 1)
    assert m["cli.busy_s"] == 1.0 and m["cli.parallel_eff"] == 1.0 / 8.0
    assert m["tda.self_s"] == 3.0 and m["tvard.self_s"] == 0.0
    assert m["cli.self_s"] == pytest.approx(1.0)


def _small_analyze(tmp_path: Path) -> tuple[workloads.Prepared, Path]:
    """A fast analyze run (max_dim 1, 5% scale) written by the real CLI."""
    from toporisk import cli

    closes = gen.desk_prices(0, workloads.JITTER)
    threshold = gen.quantile_scale(gen.distances(gen.points(closes)), 0.05)
    csv = tmp_path / "SYN.csv"
    gen.write_csv(csv, closes)
    out = tmp_path / "pass0"
    argv = ["analyze", "--input", str(csv), "--seed", "0", "--max-dim", "1",
            "--threshold", repr(threshold), "--output", str(out)]
    assert cli.main(argv) == 0
    prep = workloads.Prepared("analyze", argv, 1, ["SYN"], {"SYN": closes}, {}, threshold)
    return prep, out


def _pass(command: str, out: Path) -> dict:
    return {"digests": report_digests(command, out), "dir": str(out), "exit": 0, "stderr": ""}


@pytest.mark.parametrize("where", ["whitespace", "digit", "brace"])
def test_one_altered_byte_fails_the_check(tmp_path, capsys, where):
    prep, out = _small_analyze(tmp_path)
    good = _pass("analyze", out)
    pins = dict(good["digests"])
    assert run.check_passes(prep, [good], pins)["failed"] == 0

    altered = tmp_path / "pass1"
    shutil.copytree(out, altered)
    report = altered / "SYN.json"
    data = bytearray(report.read_bytes())
    if where == "whitespace":
        data[data.index(b"\n")] = ord(" ")
    elif where == "brace":
        data[0] = ord("[")
    else:
        pos = data.index(b'"var": -') + len(b'"var": -') + 3
        data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    report.write_bytes(bytes(data))
    bad = _pass("analyze", altered)

    against_pins = run.check_passes(prep, [bad], pins)
    against_first = run.check_passes(prep, [good, bad], None)
    assert against_pins["failed"] == 1 and against_first["failed"] == 1
    if where == "digit":
        found = against_pins["problems"][0]["problems"]
        assert any("oracle" in p for p in found)


def test_missing_pin_fails_the_report(tmp_path, capsys):
    prep, out = _small_analyze(tmp_path)
    verdict = run.check_passes(prep, [_pass("analyze", out)], {})
    assert verdict["failed"] == 1
    assert verdict["problems"][0]["problems"] == ["no pinned digest"]


def test_every_pinned_seed_pins_every_report():
    import checks

    for name in workloads.NAMES:
        reports = set(checks.load_pins(name, 0))
        assert reports
        for seed in checks.PINNED_SEEDS:
            assert set(checks.load_pins(name, seed)) == reports, (name, seed)
    assert checks.load_pins("desk", max(checks.PINNED_SEEDS) + 1) is None


def test_one_altered_byte_in_var_table_fails_the_check(tmp_path, capsys):
    from toporisk import cli

    closes = {f"V{i}": gen.batch_prices(0, 2, i, 300, workloads.JITTER) for i in range(3)}
    paths = []
    for ticker, c in closes.items():
        paths.append(str(tmp_path / f"{ticker}.csv"))
        gen.write_csv(Path(paths[-1]), c)
    out = tmp_path / "pass0"
    out.mkdir()
    assert cli.main(["var", "--input", *paths, "--format", "json",
                     "--output", str(out / "var.json")]) == 0
    prep = workloads.Prepared("var", [], 1, list(closes), closes, {})
    good = _pass("var", out)
    assert run.check_passes(prep, [good], None)["failed"] == 0

    altered = tmp_path / "pass1"
    shutil.copytree(out, altered)
    table = altered / "var.json"
    text = table.read_text()
    table.write_text(text.replace("\n", " ", 1))
    assert json.loads(table.read_text()) == json.loads(text)
    assert run.check_passes(prep, [good, _pass("var", altered)], None)["failed"] == 1


def test_mst_oracle_matches_on_a_square():
    # unit square: three unit edges join it, the diagonals are never used
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    assert gen.distances(pts).tolist() == dist.tolist()
    from checks import kruskal_deaths

    assert kruskal_deaths(dist, 1.5) == ([1.0, 1.0, 1.0], 1)
    assert kruskal_deaths(dist, 0.5) == ([], 4)


def test_cut_desk_series_keeps_the_prefix_and_moves_the_minimum_last():
    full, cut = gen.desk_prices(0, 0.0), gen.desk_prices(0, 0.0, workloads.DESK_CLOSES)
    assert cut.shape == (workloads.DESK_CLOSES,)
    assert np.array_equal(cut[:-1], full[: workloads.DESK_CLOSES - 1])
    assert cut[-1] < cut[:-1].min()


def test_roadmap_desk_counts_at_the_full_scales(tmp_path):
    """The timed desk workload is cut down; the generator still gives
    ROADMAP W2's simplex counts at the 10% scale and W3's 241 x 116 H0 pairs."""
    from toporisk import ingest, tda, tvard

    closes = gen.desk_prices(0, workloads.JITTER)
    gen.write_csv(tmp_path / "SYN.csv", closes)
    returns = ingest.compute_returns(ingest.normalize(ingest.load_price_csv(tmp_path / "SYN.csv")))
    dist = tda.distance_matrix(tda.delay_embed(returns))
    scale = gen.quantile_scale(gen.distances(gen.points(closes)), 0.10)
    sizes = np.bincount([len(s.vertices) for s in tda.build_rips_filtration(dist, 2, scale).simplices])
    assert sizes[1:].tolist() == [241, 2892, 26104, 160368]

    scale = gen.quantile_scale(gen.distances(gen.points(closes)), 0.05)
    cfg = tvard.AnalysisConfig(seed=workloads.STRESS_SEED, max_dim=2, threshold=scale)
    report = tvard.run_analysis(ingest.load_price_csv(tmp_path / "SYN.csv"), cfg)
    assert len(report.baseline_diagrams.diagrams[0]) == 241
    assert len(report.stress_diagrams.diagrams[0]) == 116
