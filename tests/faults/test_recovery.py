"""The recovery path end-to-end: a client crashes mid-measurement and
every system restores its liveness within a bounded window.

ScaleRPC additionally must *reclaim* the dead client's resources — the
lease reaper evicts it from its group (slice + msgpool slot freed,
remaining members renumbered densely) and readmits it on reconnect.
"""

import pytest

from repro.analysis.mc.scenarios import build_world
from repro.bench.harness import RpcExperiment, run_rpc_experiment
from repro.faults import FaultPlan, FaultSpec

US = 1_000
MS = 1_000_000


def _crash_run(system):
    experiment = RpcExperiment(
        system=system,
        n_clients=8,
        n_client_machines=2,
        group_size=8,
        n_server_threads=2,
        warmup_ns=100 * US,
        measure_ns=600 * US,
        time_slice_ns=50 * US,
        seed=3,
        fault_plan=FaultPlan.single_crash(
            at_ns=200 * US, down_ns=150 * US, target=0
        ),
        rpc_timeout_ns=50 * US,
        lease_ns=100 * US,
    )
    return run_rpc_experiment(experiment)


@pytest.mark.parametrize("system", ["scalerpc", "rawwrite", "herd", "fasst"])
def test_single_crash_recovers_bounded(system):
    result = _crash_run(system)
    faults = result.faults
    assert faults["injected"] == 1
    assert faults["recovered"] == 1
    (recovery_ns,) = faults["recovery_ns"]
    assert 0 < recovery_ns < 2 * MS
    assert faults["client_reconnects"] >= 1
    # The run kept making progress through the fault.
    assert result.completed_ops > 0


@pytest.mark.parametrize("system", ["scalerpc", "rawwrite", "herd", "fasst"])
def test_crash_during_recovery_repost_is_survived(system):
    """A second crash lands inside the first recovery's repost loop: the
    restart at 400 us pays the 30 us QPC setup, and the crash arrives
    50 ns into the CPU cost of the first repost.  The repost must die
    with the process (recovery resumes on the next restart), not raise
    ``VerbError`` out of the run."""
    plan = FaultPlan.of([
        FaultSpec("client_crash", at_ns=300 * US, duration_ns=100 * US, target=0),
        FaultSpec("client_crash", at_ns=430 * US + 50, duration_ns=100 * US,
                  target=0),
    ])
    result = run_rpc_experiment(RpcExperiment(
        system=system, n_clients=8, batch_size=8,
        warmup_ns=200 * US, measure_ns=600 * US,
        fault_plan=plan, rpc_timeout_ns=50 * US,
    ))
    assert result.faults["injected"] == 2
    assert result.faults["recovered"] >= 1
    assert result.completed_ops > 0


def test_scalerpc_reclaims_and_readmits():
    result = _crash_run("scalerpc")
    health = result.faults["scalerpc"]
    # The lease reaper evicted the dead client (slice + slot reclaimed)...
    assert health["lease_evictions"] >= 1
    # ...and readmitted it after reconnect: full membership at the end,
    # with every group's slots densely renumbered.
    assert health["readmissions"] >= 1
    assert health["clients_registered"] == 8
    assert health["slots_consistent"]


class TestLeaseSemantics:
    """Unit-level lease behavior on a small direct world (no harness)."""

    def test_dead_client_is_evicted(self):
        world = build_world(
            n_clients=2, group_size=4, warmup=False,
            requests_per_client=1, crash_ns=5 * US, recover_ns=0,
            lease_ns=30 * US, time_slice_ns=30 * US,
        )
        world.sim.run(until=200 * US)
        crashed = world.clients[0]
        assert crashed.client_id not in world.server.groups.clients
        assert world.server.stats.lease_evictions == 1
        # The dead client's group slice shrank to the survivor alone.
        members = [
            ctx.client_id
            for group in world.server.groups.groups
            for ctx in group.members
        ]
        assert members == [world.clients[1].client_id]

    def test_idle_but_alive_client_survives_the_lease(self):
        """Expiry is a liveness probe: an idle client whose connection is
        healthy gets renewed, never evicted."""
        world = build_world(
            n_clients=2, group_size=4, warmup=False,
            requests_per_client=1, lease_ns=20 * US, time_slice_ns=30 * US,
        )
        # Run far past many lease periods with the clients long idle.
        world.sim.run(until=400 * US)
        assert world.server.stats.lease_evictions == 0
        assert len(world.server.groups.clients) == 2

    def test_restarted_client_is_readmitted(self):
        world = build_world(
            n_clients=2, group_size=4, warmup=False,
            requests_per_client=1, crash_ns=5 * US, recover_ns=60 * US,
            lease_ns=30 * US, time_slice_ns=30 * US,
        )
        world.sim.run(until=600 * US)
        assert world.server.stats.lease_evictions == 1
        assert world.server.stats.readmissions == 1
        assert len(world.server.groups.clients) == 2
        # Liveness: every accepted request completed despite the crash
        # (the explorer's crash-recover-2c scenario perturbs the timing
        # so the crash also lands mid-request; see tests/analysis).
        assert world.handles
        assert all(handle.completed_ns is not None for handle in world.handles)
