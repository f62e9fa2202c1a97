"""The replicated sim deployment end-to-end: primary fail-stop with
bounded client failover, exactly-once visibility, partition and rack
fault plans, and byte-identical determinism (obs on or off)."""

import json

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.replica import ReplicaSimConfig, run_replica_sim

US = 1_000


def _config(**overrides):
    base = dict(
        n_clients=2,
        ops_per_client=24,
        fail_primary_after_op=40,
        horizon_ns=1_500 * US,
    )
    base.update(overrides)
    return ReplicaSimConfig(**base)


class TestPrimaryFailStop:
    @pytest.fixture(scope="class")
    def result(self):
        return run_replica_sim(_config())

    def test_every_op_completes_exactly_once(self, result):
        assert result["completed"] == result["total_ops"]
        assert result["duplicate_executions"] == 0

    def test_the_view_changed_once_and_promoted_the_backup(self, result):
        assert result["view"] == {"epoch": 2, "primary": "r1", "changes": 1}
        assert result["group"]["promotions"] == 1

    def test_clients_failed_over_via_the_watchdog_or_the_push(self, result):
        per_client = result["per_client"].values()
        assert all(c["failovers"] >= 1 for c in per_client)
        assert sum(c["timeouts"] for c in per_client) >= 1

    def test_recovery_is_bounded(self, result):
        assert 0 < result["unavailable_ns"] < 800 * US

    def test_surviving_replicas_agree(self, result):
        assert result["replica_digests_agree"]


class TestHealthyBaseline:
    def test_no_fault_no_view_change(self):
        result = run_replica_sim(_config(fail_primary_after_op=None))
        assert result["completed"] == result["total_ops"]
        assert result["view"]["changes"] == 0
        assert result["unavailable_ns"] == 0
        assert result["per_client"][1]["failovers"] == 0


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        a = run_replica_sim(_config())
        b = run_replica_sim(_config())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_obs_does_not_perturb_the_run(self):
        bare = run_replica_sim(_config())
        observed = run_replica_sim(_config(obs_enabled=True))
        assert json.dumps(bare, sort_keys=True) == \
            json.dumps(observed, sort_keys=True)

    def test_the_seed_lands_in_the_summary(self):
        """The summary names its seed so a regression is replayable."""
        result = run_replica_sim(_config(seed=2))
        assert result["seed"] == 2
        assert result["completed"] == result["total_ops"]


class TestDeclarativePlans:
    def test_asymmetric_partition_forces_failover(self):
        """Cutting r0 -> r1 (ships) and r0 -> gfd (heartbeat answers)
        deposes a healthy r0: the ack gate keeps it from committing
        alone and the GFD promotes r1."""
        plan = FaultPlan.of([
            FaultSpec("partition", at_ns=100 * US, src="r0", dst="r1"),
            FaultSpec("partition", at_ns=100 * US, src="r0", dst="gfd"),
        ])
        result = run_replica_sim(
            _config(fail_primary_after_op=None, horizon_ns=2_500 * US),
            plan=plan,
        )
        assert result["completed"] == result["total_ops"]
        assert result["duplicate_executions"] == 0
        assert result["view"]["primary"] == "r1"
        assert result["group"]["aborted_appends"] >= 1  # the gate held
        assert result["replica_digests_agree"]

    def test_rack_failure_promotes_the_survivor(self):
        plan = FaultPlan.of([
            FaultSpec("rack_failure", at_ns=100 * US,
                      group_targets=("r0", "r1")),
        ])
        result = run_replica_sim(
            _config(n_replicas=3, fail_primary_after_op=None,
                    horizon_ns=2_500 * US),
            plan=plan,
        )
        assert result["completed"] == result["total_ops"]
        assert result["view"]["primary"] == "r2"
        assert result["duplicate_executions"] == 0

    def test_fault_schedule_is_reported(self):
        # The workload fires fail_primary_after_op itself; a time-based
        # fault goes through the injector, which reports its schedule.
        result = run_replica_sim(_config(fail_primary_after_op=None),
                                 plan=FaultPlan.fail_stop(100 * US, "r0"))
        kinds = [record["kind"] for record in result["fault_schedule"]]
        assert "server_fail_stop" in kinds
