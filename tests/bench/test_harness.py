"""Tests for the RPC experiment harness."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench import RpcExperiment, run_rpc_experiment
from repro.txn import SmallBankConfig, TxnClusterConfig, run_smallbank

GOLDEN = Path(__file__).resolve().parents[2] / "benchmarks/e2e/golden_seed1.json"


class TestExperimentValidation:
    def test_unknown_system(self):
        with pytest.raises(ValueError):
            RpcExperiment(system="tcp")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            RpcExperiment(n_clients=0)
        with pytest.raises(ValueError):
            RpcExperiment(batch_size=0)
        with pytest.raises(ValueError):
            RpcExperiment(n_client_machines=0)


class TestSmallRuns:
    def _run(self, **kwargs):
        defaults = dict(
            n_clients=8,
            n_client_machines=2,
            warmup_ns=200_000,
            measure_ns=400_000,
            group_size=8,
            time_slice_ns=50_000,
        )
        defaults.update(kwargs)
        return run_rpc_experiment(RpcExperiment(**defaults))

    @pytest.mark.parametrize("system", ["scalerpc", "rawwrite", "herd", "fasst"])
    def test_each_system_produces_throughput(self, system):
        result = self._run(system=system)
        assert result.throughput_mops > 0.1
        assert result.completed_ops > 0
        assert result.latency.median_ns > 0

    def test_deterministic_given_seed(self):
        a = self._run(system="scalerpc", seed=7)
        b = self._run(system="scalerpc", seed=7)
        assert a.throughput_mops == b.throughput_mops
        assert a.latency.median_ns == b.latency.median_ns

    def test_batching_increases_throughput_under_light_load(self):
        small = self._run(system="rawwrite", batch_size=1)
        large = self._run(system="rawwrite", batch_size=8)
        assert large.throughput_mops > small.throughput_mops

    def test_think_time_reduces_throughput(self):
        busy = self._run(system="rawwrite")
        idle = self._run(
            system="rawwrite",
            think_time_fn=lambda _cid, _rng: 50_000,
        )
        assert idle.throughput_mops < 0.7 * busy.throughput_mops

    def test_handler_cost_reduces_throughput(self):
        cheap = self._run(system="rawwrite", n_clients=16)
        costly = self._run(system="rawwrite", n_clients=16, handler_cost_ns=20_000)
        assert costly.throughput_mops < cheap.throughput_mops

    def test_counters_are_collected(self):
        result = self._run(system="rawwrite")
        assert result.counters.window_ns > 0
        # Every request write is at least one ItoM/RFO at the server.
        assert (
            result.counters.itom_per_s + result.counters.rfo_per_s > 0
        )

    def test_adaptive_window_reports_actual_span(self):
        result = self._run(system="scalerpc")
        assert result.window_ns >= 400_000


class TestDrainPhase:
    @pytest.mark.no_sanitize  # manages its own sanitizer via sanitized_run
    def test_experiment_ends_with_zero_inflight_completions(self):
        """The drain phase closes CQ accounting exactly: the sanitizer's
        old ~n_clients in-flight slack is gone."""
        from repro.analysis.sanitize import sanitized_run

        experiment = RpcExperiment(
            system="scalerpc",
            n_clients=6,
            n_client_machines=2,
            group_size=6,
            warmup_ns=100_000,
            measure_ns=300_000,
            seed=5,
        )
        result, report = sanitized_run(lambda: run_rpc_experiment(experiment))
        assert result.completed_ops > 0
        assert report.ok, report.render()
        assert "cq_inflight_at_finish" not in report.stats

    def test_drain_does_not_change_measured_results(self):
        """Two identical runs agree (the drain phase is post-measurement
        and deterministic, so this also guards against drain-time state
        leaking into the recorded window)."""
        experiment = RpcExperiment(
            system="herd",
            n_clients=4,
            n_client_machines=2,
            warmup_ns=100_000,
            measure_ns=300_000,
            seed=9,
        )
        first = run_rpc_experiment(experiment)
        second = run_rpc_experiment(experiment)
        assert first.throughput_mops == second.throughput_mops
        assert first.latency == second.latency
        assert first.completed_ops == second.completed_ops


class TestFig8Point:
    @pytest.mark.parametrize("obs_enabled", [False, True])
    def test_simulated_block_equals_golden(self, obs_enabled):
        """The fixed-seed Fig-8 point (the benchmark's ``sim_echo_fit``)
        yields the committed golden block with observers off and on: obs
        only reads state, and under ``REPRO_SANITIZE=1`` the autouse
        sanitizer fixture also holds this point to zero findings."""
        result = run_rpc_experiment(RpcExperiment(
            system="scalerpc", n_clients=40, seed=1, obs_enabled=obs_enabled,
        ))
        block = {
            "throughput_mops": result.throughput_mops,
            "latency": asdict(result.latency),
            "counters": asdict(result.counters),
            "completed_ops": result.completed_ops,
            "window_ns": result.window_ns,
        }
        golden = json.loads(GOLDEN.read_text())["sim_echo_fit"]
        assert json.loads(json.dumps(block)) == golden


class TestOtherBenchmarkPoints:
    """The two simulated benchmark workloads ``TestFig8Point`` does not
    cover, so a schedule change on the RawWrite or the one-sided path fails
    here and not only in ``benchmarks/e2e``."""

    def test_rawwrite_thrash_block_equals_golden(self):
        result = run_rpc_experiment(RpcExperiment(
            system="rawwrite", n_clients=240, measure_ns=10_000_000, seed=1,
        ))
        block = {
            "throughput_mops": result.throughput_mops,
            "latency": asdict(result.latency),
            "counters": asdict(result.counters),
            "completed_ops": result.completed_ops,
            "window_ns": result.window_ns,
        }
        golden = json.loads(GOLDEN.read_text())["sim_echo_thrash"]
        assert json.loads(json.dumps(block)) == golden

    def test_smallbank_block_equals_golden(self):
        result = run_smallbank(SmallBankConfig(cluster=TxnClusterConfig(
            seed=1, system="scaletx", n_coordinators=80,
        )))
        golden = json.loads(GOLDEN.read_text())["sim_txn_smallbank"]
        assert json.loads(json.dumps(asdict(result))) == golden
