"""Run one pass of a workload through ``toporisk.cli.main`` and time it.

run.py starts one fresh interpreter per pass, as a user's shell does
for each CLI call: a later pass in the same process ran up to 13%
slower (17.4, 18.3 and 19.7 s for three 10%-scale desk passes), and the
process's peak resident set is then that of one pass. Usage:

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the source directory, the command line (``{out}`` marks the
output path), the output directory, the job count and whether to
trace. RESULT gets the pass's wall and CPU seconds, exit code, report
digests and peak RSS, and the per-layer metrics when traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def report_digests(command: str, out: Path) -> dict[str, str]:
    """sha256 per report: each analyze JSON file, or each row of var's table.

    A var row is hashed as its canonical JSON; the table file itself is
    hashed under the name ``var.json`` so formatting changes show too.
    """
    if command == "analyze":
        return {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.json"))}
    table = out / "var.json"
    if not table.is_file():
        return {}
    data = table.read_bytes()
    digests = {"var.json": hashlib.sha256(data).hexdigest()}
    try:
        rows = json.loads(data)
        for row in rows:
            canon = json.dumps(row, sort_keys=True).encode()
            digests[row["ticker"]] = hashlib.sha256(canon).hexdigest()
    except (ValueError, KeyError, TypeError):
        pass  # rows that cannot be read stay missing and fail the check
    return digests


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from toporisk import cli, tvard

    import spans

    out = Path(spec["out"])
    out.mkdir(parents=True)
    argv = [a.replace("{out}", str(out)) for a in spec["argv"]]
    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder()
        recorder.install(cli, tvard)
        recorder.root = recorder.open("cli.main")

    stdout, stderr = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception fails the pass's missing reports
            traceback.print_exc()
            code = "exception"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code,
        "stderr": stderr.getvalue()[-2000:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digests": report_digests(spec["command"], out),
        "traced": recorder is not None,
    }
    if recorder is not None:
        recorder.close(recorder.root)
        recorder.restore()
        result["layer"] = spans.pass_metrics(recorder.spans, wall, spec["jobs"])
        result["spans"] = spans.span_table(recorder.spans)
        result["counts"] = spans.count_records(recorder.spans)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
