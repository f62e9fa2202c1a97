#!/usr/bin/env python3
"""The repo's perf record and its gate: one benchmark run judged against
``BENCH_history.jsonl``.

    python3 benchmarks/perf_gate.py [--append LABEL]

Runs ``benchmarks/e2e/run.py --json`` once at the benchmark's own run length,
fails if any workload is incorrect or lost operations, and hands the newest
``WINDOW`` comparable history rows and this run to ``run.py compare``.  What
"slower" means and by how much (the bounds in ``BENCHMARK.json``) is decided
there and only there; this file owns the history file and the window.

A history row is one ``run.py --json`` run record per line (``header``,
``seed``, ``seconds``, ``trace``, ``workloads``) without the per-segment
``samples``, plus a ``label``.  ``--append LABEL`` adds this run as a row once
it has passed, unless its header is marked ``noisy``.  The full run record and
the compare input stay in ``.perf_gate/`` (git-ignored) for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
HISTORY = ROOT / "BENCH_history.jsonl"

#: ``compare`` takes the median of *all* base runs, so after a step change
#: (PR 18: -55 %) an unwindowed history would hide a later +25 %.
WINDOW = 8


def gate(run_path: Path, history: Path, label: str | None = None) -> int:
    """Exit status for the run in ``run_path`` against ``history``; appends
    it under ``label``."""
    run = json.loads(run_path.read_text())["runs"][0]
    broken = [name for name, result in run["workloads"].items()
              if not result["correct"] or result["failed"]]
    if broken:
        print(f"perf_gate: FAIL: incorrect or failed operations: {', '.join(broken)}")
        return 1
    lines = history.read_text().splitlines() if history.exists() else []
    rows = [json.loads(line) for line in lines]
    base = [row for row in rows
            if row["trace"] == 0 and row["seconds"] == run["seconds"]][-WINDOW:]
    if base:
        base_path = run_path.with_name("base.json")
        base_path.write_text(json.dumps({"runs": base}))
        status = subprocess.run([*RUN, "compare", str(base_path), str(run_path)]).returncode
    else:
        print(f"perf_gate: no comparable row in {history.name}: nothing to judge, pass")
        status = 0
    if status == 0 and label is not None:
        if run["header"]["noisy"]:
            print("perf_gate: FAIL: not appended, the run's header is marked noisy")
            return 1
        row = {"label": label, **run, "workloads": {
            name: {key: value for key, value in result.items() if key != "samples"}
            for name, result in run["workloads"].items()}}
        with history.open("a") as fh:
            fh.write(json.dumps(row) + "\n")
        print(f"perf_gate: appended {label!r} to {history.name} ({len(rows) + 1} rows)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--append", metavar="LABEL",
                        help="record this run in the history once it has passed")
    args = parser.parse_args()
    run_path = ROOT / ".perf_gate" / "run.json"
    run_path.parent.mkdir(exist_ok=True)
    run_path.unlink(missing_ok=True)  # --json appends to an existing file
    subprocess.run([*RUN, "--json", str(run_path)])
    if not run_path.exists():
        sys.exit("perf_gate: FAIL: the benchmark wrote no run record")
    return gate(run_path, HISTORY, args.append)


if __name__ == "__main__":
    sys.exit(main())
