"""``--smoke`` runs of all six workloads through the real command line.

Slow for a unit test (about three minutes: every sim workload runs once in
full, and once more under the profiler), which is why this directory is
not in the tier-1 ``testpaths``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--workload", workload,
         "--seed", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


def check_result(result: dict, declared: list) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_this_directory():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert len(WORKLOADS) == 6
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _stderr = smoke(workload, trace=0)
    values = check_result(result, SPEC["end_to_end"])
    assert all(value > 0 for value in values.values())  # never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, stderr = smoke(workload, trace=1)
    values = check_result(result, SPEC["per_layer"])
    assert "NOTE" not in stderr  # e.g. layer self-times not summing to the wall
    assert values["trace.overhead_x"] > 0
    assert values["sim.ring_events_per_s"] > 0
    if workload.startswith("sim_"):
        shares = [values[f"{layer}.self_share"] for layer in
                  ("sim", "rdma", "memsys", "core", "baselines", "txn", "bench", "other")]
        assert sum(shares) == pytest.approx(1.0)
        assert values["sim.identical"] == 1
        assert values["sim.events_per_op"] > values["sim.resumes_per_op"] > 0
        assert (values["txn.self_share"] > 0) == (workload == "sim_txn_smallbank")
        assert values["rpc_kops"] == 0  # a layer the workload never enters reads 0
    else:
        assert values["rpc_kops"] > 0 and values["rtt_p50_us"] > 0
        assert values["net.rtt_n"] >= 20
        for stage in ("req_path", "decode", "handler", "resp_path", "complete"):
            assert values[f"net.stage.{stage}_us"] > 0
        for call in ("post", "flush", "wait"):
            assert values[f"net.client.{call}_us"] > 0
        assert values["core.message.encode_request_us"] > 0
        assert values["sim.events_per_op"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_echo_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
