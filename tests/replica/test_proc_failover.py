"""The replicated real-process deployment: primary fail-stop over real
sockets, with client reconnect + failover retargeting the promoted
backup's endpoint.  Timings are compressed to keep the test around a
second of wall clock; the full-size run is ``fig_failover --backend
proc``."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.replica import ReplicaProcConfig, run_replica_proc
from repro.replica.procrunner import _ProcWorld


@pytest.fixture(scope="module")
def result():
    return run_replica_proc(ReplicaProcConfig(
        n_clients=2,
        ops_per_client=12,
        op_gap_ns=5_000_000,
        hb_period_ns=40_000_000,
        hb_timeout_ns=20_000_000,
        reconnect_backoff_s=0.02,
        fail_primary_at_ns=60_000_000,
        timeout_s=20.0,
    ))


def test_every_op_completes_exactly_once(result):
    assert result["completed"] == result["total_ops"]
    assert result["duplicate_executions"] == 0


def test_the_backup_was_promoted(result):
    assert result["view"]["primary"] == "r1"
    assert result["view"]["epoch"] == 2
    assert result["group"]["promotions"] == 1


def test_clients_rode_the_real_reconnect_path(result):
    per_client = result["per_client"].values()
    assert all(c["failovers"] >= 1 for c in per_client)
    assert all(c["reconnects"] >= 1 for c in per_client)


def test_recovery_is_bounded(result):
    # Generous bound: CI wall clocks are noisy, but recovery must beat
    # the run's own timeout by a wide margin.
    assert 0 < result["unavailable_ns"] < 5_000_000_000


def test_surviving_replicas_agree(result):
    assert result["replica_digests_agree"]


def test_healthy_baseline_never_changes_view():
    result = run_replica_proc(ReplicaProcConfig(
        n_clients=1,
        ops_per_client=6,
        op_gap_ns=2_000_000,
        fail_primary_at_ns=None,
        timeout_s=20.0,
    ))
    assert result["completed"] == result["total_ops"]
    assert result["view"]["changes"] == 0
    assert result["unavailable_ns"] == 0


def test_a_probe_wait_does_not_swallow_a_cancel_that_races_its_answer():
    """Shutdown cancels the failure detectors.  A cancel landing in the loop
    turn a heartbeat answer lands in must still cancel the LFD; on Python
    3.11, ``asyncio.wait_for`` returned the answer instead, and the LFD
    kept probing while the run waited for it forever."""
    async def scenario():
        world = _ProcWorld(ReplicaProcConfig())
        handle = SimpleNamespace(event=asyncio.get_running_loop().create_future())
        waiting = asyncio.ensure_future(world.wait(handle, 10**9))
        await asyncio.sleep(0)
        handle.event.set_result("ack")
        waiting.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiting

    asyncio.run(scenario())
