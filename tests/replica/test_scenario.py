"""The replica fault point, written once in :mod:`repro.replica.scenario`:
which op points a config accepts, and how the summary splits a run at
its fault."""

import pytest

from repro.replica import ReplicaProcConfig, ReplicaSimConfig
from repro.replica.scenario import ReplicaWorld, summarize

SHAPE = dict(n_replicas=2, n_clients=2, ops_per_client=12)


@pytest.mark.parametrize("config", [ReplicaSimConfig, ReplicaProcConfig])
def test_a_fault_point_must_leave_an_op_before_and_after_it(config):
    for fault_op in (0, 24, 25):
        with pytest.raises(ValueError, match="fail_primary_after_op"):
            config(**SHAPE, fail_primary_after_op=fault_op)
    for fault_op in (1, 23, None):
        config(**SHAPE, fail_primary_after_op=fault_op)


class _StillWorld(ReplicaWorld):
    def now(self) -> int:
        return 0


def test_the_summary_splits_at_the_fault_op_not_at_its_instant():
    """Op 3 completes in the instant the fault fires and counts before it:
    the window runs from op 3 to the first op the promoted backup served.
    A split by timestamp puts op 3 after the fault and reads 205 ns, the
    gap between ops 2 and 3."""
    world = _StillWorld(ReplicaSimConfig(**SHAPE, fail_primary_after_op=3))
    try:
        world.completions = [
            (59_107, 2, 1), (59_312, 1, 1), (59_517, 2, 2),
            (333_219, 1, 2), (333_424, 2, 3), (333_629, 1, 3),
        ]
        summary = summarize(world)
    finally:
        world.close()
    assert summary["unavailable_ns"] == 333_219 - 59_517
    assert summary["goodput_ratio"] == 1.0
