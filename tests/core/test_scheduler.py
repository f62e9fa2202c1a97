"""Unit tests for the priority-based scheduler."""


from repro.core import ScaleRpcConfig
from repro.core.grouping import ClientContext, GroupManager
from repro.core.scheduler import (
    PRIORITY_SLICE_MAX_RATIO,
    PRIORITY_SLICE_MIN_RATIO,
    PriorityScheduler,
)


def ctx(client_id, priority=0.0):
    c = ClientContext(
        client_id=client_id,
        qp=None,
        response_base=0,
        response_bytes=1024,
        staging_base=0,
    )
    c.priority = priority
    return c


def build(n, group_size=4, dynamic=True, **kwargs):
    config = ScaleRpcConfig(
        group_size=group_size, dynamic_scheduling=dynamic, **kwargs
    )
    manager = GroupManager(config)
    for i in range(n):
        manager.add_client(ctx(i, priority=float(i)))
    return config, manager, PriorityScheduler(config, manager)


class TestRebalanceTriggers:
    def test_no_rebalance_when_fresh(self):
        _, _, sched = build(8)
        assert not sched.should_rebalance()

    def test_rebalance_after_enough_slices(self):
        config, manager, sched = build(8, rebalance_every_slices=3)
        group = manager.current_group()
        for _ in range(3):
            sched.close_slice(group.members)
        assert sched.should_rebalance()

    def test_static_mode_ignores_slice_counter(self):
        config, manager, sched = build(8, dynamic=False, rebalance_every_slices=1)
        sched.close_slice(manager.current_group().members)
        assert not sched.should_rebalance()

    def test_out_of_bounds_triggers_even_static(self):
        config, manager, sched = build(5, dynamic=False)  # groups 4 + 1
        assert sched.should_rebalance()

    def test_single_group_never_time_triggers(self):
        config, manager, sched = build(3, rebalance_every_slices=1)
        sched.close_slice(manager.current_group().members)
        assert not sched.should_rebalance()


class TestPartition:
    def test_dynamic_priority_group_is_smaller_with_longer_slice(self):
        config, manager, sched = build(12, group_size=4)
        sched.rebalance()
        groups = manager.groups
        assert len(groups[0]) == 3  # 0.75 * 4
        # Slices scale with aggregate priority: busiest first, clamped.
        slices = [g.time_slice_ns for g in groups]
        assert slices[0] > slices[-1]
        assert slices[0] <= int(config.time_slice_ns * PRIORITY_SLICE_MAX_RATIO)
        assert slices[-1] >= int(config.time_slice_ns * PRIORITY_SLICE_MIN_RATIO)

    def test_dynamic_orders_by_priority(self):
        config, manager, sched = build(8, group_size=4)
        sched.rebalance()
        top = manager.groups[0].members
        # Highest priorities (ids 7, 6, 5) first.
        assert sorted(m.client_id for m in top) == [5, 6, 7]

    def test_static_orders_by_client_id(self):
        config, manager, sched = build(8, group_size=4, dynamic=False)
        sched.rebalance()
        assert [m.client_id for m in manager.groups[0].members] == [0, 1, 2, 3]
        assert all(len(g) == 4 for g in manager.groups)

    def test_undersized_tail_merges(self):
        # 9 clients, dynamic: 3 (priority) + 4 + 2; tail 2 >= min 2 -> kept.
        config, manager, sched = build(9, group_size=4)
        sched.rebalance()
        assert [len(g) for g in manager.groups] == [3, 4, 2]
        # 8 clients: 3 + 4 + 1; tail 1 < 2 merges into predecessor.
        config, manager, sched = build(8, group_size=4)
        sched.rebalance()
        assert [len(g) for g in manager.groups] == [3, 5]

    def test_partition_covers_every_client_exactly_once(self):
        config, manager, sched = build(23, group_size=4)
        sched.rebalance()
        seen = [m.client_id for g in manager.groups for m in g.members]
        assert sorted(seen) == list(range(23))

    def test_fewer_than_group_size_yields_single_group(self):
        config, manager, sched = build(3, group_size=4)
        sched.rebalance()
        assert len(manager.groups) == 1
        assert manager.groups[0].time_slice_ns == config.time_slice_ns

    def test_groups_respect_pool_capacity(self):
        config, manager, sched = build(30, group_size=4)
        sched.rebalance()
        assert all(len(g) <= config.pool_slots for g in manager.groups)

    def test_maybe_rebalance_counts(self):
        config, manager, sched = build(8, rebalance_every_slices=1)
        sched.close_slice(manager.current_group().members)
        assert sched.maybe_rebalance()
        assert sched.rebalances == 1
        assert not sched.maybe_rebalance()
