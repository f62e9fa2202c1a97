"""End-to-end observability tests: hooks, determinism, zero-cost-off,
and the fatal-overrun sweep."""

import json

import pytest

from repro.bench import RpcExperiment, run_rpc_experiment
from repro.obs import Observer, current
from repro.obs.critical import STAGE_ORDER
from repro.rdma.fabric import Fabric
from repro.sim import Simulator


def _small(system="scalerpc", **kwargs):
    defaults = dict(
        system=system,
        n_clients=8,
        n_client_machines=2,
        warmup_ns=100_000,
        measure_ns=300_000,
        group_size=8,
        time_slice_ns=50_000,
    )
    defaults.update(kwargs)
    return run_rpc_experiment(RpcExperiment(**defaults))


class TestInstall:
    def test_install_uninstall(self):
        fabric = Fabric(Simulator())
        obs = Observer().install(fabric)
        assert fabric.obs is obs and current() is obs
        obs.uninstall()
        assert fabric.obs is None and current() is None

    def test_double_install_rejected(self):
        fabric = Fabric(Simulator())
        Observer().install(fabric)
        try:
            with pytest.raises(RuntimeError):
                Observer().install(fabric)
        finally:
            fabric.obs.uninstall()


class TestLifecycle:
    @pytest.mark.parametrize("system", ["scalerpc", "rawwrite", "herd", "fasst"])
    def test_observation_does_not_change_results(self, system):
        plain = _small(system)
        observed = _small(system, obs_enabled=True)
        assert observed.throughput_mops == plain.throughput_mops
        assert observed.completed_ops == plain.completed_ops
        assert observed.latency.mean_ns == plain.latency.mean_ns
        assert plain.obs is None and observed.obs is not None

    def test_artifact_byte_identical_across_same_seed_runs(self):
        first = _small(obs_enabled=True).obs
        second = _small(obs_enabled=True).obs
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_rpc_timelines_follow_lifecycle_order(self):
        artifact = _small(obs_enabled=True).obs
        order = {name: i for i, name in enumerate(STAGE_ORDER)}
        completed = 0
        for rpc in artifact["rpcs"]:
            stages = rpc["stages"]
            assert stages[0][0] == "post"
            times = [entry[1] for entry in stages]
            assert times == sorted(times), "stage timestamps must be monotonic"
            names = {entry[0] for entry in stages}
            assert names <= set(order), f"unknown stages: {names - set(order)}"
            if "complete" in names:
                completed += 1
                assert "exec" in names and "done" in names
        assert completed > 0

    def test_epoch_series_present_and_aligned(self):
        artifact = _small(obs_enabled=True).obs
        series = {s["name"]: s for s in artifact["series"]}
        assert "rpc.completed_per_s" in series
        assert "nic.server.conn_hit_rate" in series
        assert "llc.server.ddio_resident_lines" in series
        for record in series.values():
            assert record["epoch_ns"] == 50_000
            for ts, _value in record["points"]:
                assert ts % 50_000 == 0
        rates = [v for _t, v in series["rpc.completed_per_s"]["points"]]
        assert max(rate for rate in rates if rate is not None) > 0

    def test_spans_cover_the_message_path(self):
        artifact = _small(obs_enabled=True).obs
        tracks = sorted({span["track"] for span in artifact["spans"]})
        assert any(t.startswith("nic.server.rx") for t in tracks)
        assert any(t.startswith("nic.m") for t in tracks)  # client machines
        assert any(t.startswith("server.server.worker") for t in tracks)


class TestFatalOverrunSweep:
    @pytest.mark.no_sanitize  # stopped clients leak CQ entries by design
    def test_herd_clients_die_and_throughput_halves(self):
        result = _small(
            "herd",
            n_clients=8,
            obs_enabled=True,
            cq_overrun_fatal=True,
            stop_polling_after_ns=300_000,
        )
        artifact = result.obs
        stops = [i for i in artifact["instants"] if i["name"] == "stop_polling"]
        assert len(stops) == 4
        series = {s["name"]: s["points"] for s in artifact["series"]}
        # Unpolled completions pile up in the stopped clients' recv CQs.
        assert max(v for _t, v in series["cq.clients.depth"]) > 0
        rate = series["rpc.completed_per_s"]
        before = max(v for t, v in rate if t <= 300_000)
        after = [v for t, v in rate if 500_000 < t <= 900_000]
        assert after, "window must extend past the stop event"
        assert max(after) < before, "survivors cannot exceed the full fleet"

    @pytest.mark.no_sanitize
    def test_scalerpc_survivors_keep_completing(self):
        result = _small(
            obs_enabled=True,
            cq_overrun_fatal=True,
            stop_polling_after_ns=300_000,
        )
        rate = next(
            s["points"] for s in result.obs["series"]
            if s["name"] == "rpc.completed_per_s"
        )
        after = [v for t, v in rate if 500_000 < t <= 900_000]
        assert sum(after) > 0, "the surviving half must still complete RPCs"


class TestObsCli:
    def test_summarize_and_export(self, tmp_path, capsys):
        from repro.obs import write_jsonl
        from repro.obs.__main__ import main

        artifact = _small(obs_enabled=True).obs
        path = tmp_path / "run.obs.jsonl"
        write_jsonl(artifact, path)
        chrome = tmp_path / "run.trace.json"
        assert main([str(path), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "wrote Chrome trace (valid)" in out
        assert chrome.exists()
