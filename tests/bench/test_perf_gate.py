"""The perf-history gate on canned rows: no benchmark run, only
``perf_gate.gate`` and the ``run.py compare`` it delegates the verdict to."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def record(level=100.0, seconds=10, trace=0, noisy=False):
    """A run record shaped like ``run.py --json`` writes it."""
    metrics = {"setup_s": 0.4, "host_us_per_op": level, "cpu_us_per_op": level,
               "peak_rss_mb": 76.0}
    return {
        "header": {"noisy": noisy, "sim.ring_events_per_s": 1.2e6},
        "seed": 1, "seconds": seconds, "trace": trace,
        "workloads": {
            name: {"correct": True, "attempted": 1000, "failed": 0,
                   "metrics": dict(metrics), "samples": {"host_us_per_op": [level] * 3}}
            for name in ("sim_echo_fit", "proc_echo_large")
        },
    }


def gate(tmp_path, rows, run, label=None):
    """Run the gate on ``run`` against a history of ``rows`` (None: no file)."""
    history = tmp_path / "history.jsonl"
    if rows is not None:
        history.write_text("".join(json.dumps({"label": "old", **row}) + "\n" for row in rows))
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps({"runs": [run]}))
    return perf_gate.gate(run_path, history, label), history


def test_equal_run_passes(tmp_path, capfd):
    status, _ = gate(tmp_path, [record()] * 5, record())
    out = capfd.readouterr().out
    assert status == 0
    assert "(5 runs)" in out and "worse" not in out


def test_slower_metric_fails_and_is_named(tmp_path, capfd):
    run = record()
    run["workloads"]["proc_echo_large"]["metrics"]["cpu_us_per_op"] *= 1.5
    status, _ = gate(tmp_path, [record()] * 5, run)
    flagged = [line.split() for line in capfd.readouterr().out.splitlines() if "worse" in line]
    assert status != 0
    assert [(row[0], row[1]) for row in flagged] == [("proc_echo_large", "cpu_us_per_op")]


@pytest.mark.parametrize("damage", [{"correct": False}, {"failed": 3}],
                         ids=["incorrect", "failed"])
def test_incorrect_or_failed_workload_fails_before_compare(tmp_path, capfd, damage):
    run = record()
    run["workloads"]["sim_echo_fit"].update(damage)
    status, _ = gate(tmp_path, [record()] * 5, run)
    out = capfd.readouterr().out
    assert status != 0
    assert "sim_echo_fit" in out and "verdict" not in out


def test_only_the_newest_window_is_the_base(tmp_path, capfd):
    """After a step down, a run 30 % above the new level is flagged; the
    median of the whole history would call it better."""
    rows = [record(200.0)] * 12 + [record(100.0)] * perf_gate.WINDOW
    status, _ = gate(tmp_path, rows, record(130.0))
    out = capfd.readouterr().out
    assert status != 0
    assert f"({perf_gate.WINDOW} runs)" in out and "worse" in out


def test_rows_of_another_run_length_or_traced_are_ignored(tmp_path, capfd):
    rows = [record()] * 5 + [record(10.0, seconds=1.5)] * 8 + [record(10.0, trace=1)] * 8
    status, _ = gate(tmp_path, rows, record())
    assert status == 0
    assert "(5 runs)" in capfd.readouterr().out


def test_append_writes_one_row_without_samples(tmp_path):
    status, history = gate(tmp_path, [record()] * 5, record(), label="new")
    lines = history.read_text().splitlines()
    assert status == 0 and len(lines) == 6
    row = json.loads(lines[-1])
    assert row["label"] == "new" and row["seconds"] == 10 and row["trace"] == 0
    assert row["header"]["sim.ring_events_per_s"] == 1.2e6
    for result in row["workloads"].values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_append_refuses_a_noisy_run(tmp_path, capfd):
    status, history = gate(tmp_path, [record()] * 5, record(noisy=True), label="new")
    assert status != 0
    assert "noisy" in capfd.readouterr().out
    assert len(history.read_text().splitlines()) == 5


@pytest.mark.parametrize("rows", [None, []], ids=["missing", "empty"])
def test_missing_or_empty_history_passes_and_says_so(tmp_path, capfd, rows):
    status, _ = gate(tmp_path, rows, record())
    assert status == 0
    assert "nothing to judge" in capfd.readouterr().out


def test_committed_history_loads_and_gates(tmp_path, capfd):
    """``BENCH_history.jsonl`` as committed: rows in the documented shape,
    and its newest row passes against the window it closes."""
    rows = [json.loads(line) for line in perf_gate.HISTORY.read_text().splitlines()]
    assert rows
    for row in rows:
        assert row["label"] and "sim.ring_events_per_s" in row["header"]
        assert all("samples" not in result for result in row["workloads"].values())
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps({"runs": [rows[-1]]}))
    assert perf_gate.gate(run_path, perf_gate.HISTORY) == 0
    assert "verdict" in capfd.readouterr().out
