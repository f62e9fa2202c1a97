"""Regression tests for scheduling bugs found during development."""


from repro.core import ScaleRpcConfig
from repro.core.grouping import ClientContext, GroupManager

from .conftest import closed_loop, make_cluster, run_until_done


def ctx(client_id):
    return ClientContext(
        client_id=client_id, qp=None, response_base=0, response_bytes=1024,
        staging_base=0,
    )


class TestRotationFairnessAcrossRebuilds:
    """Rebuilding groups must not starve any group of warmup turns.

    The original implementation reset the rotation cursor to zero on every
    rebuild; with rebuilds every k slices and more than k groups, some
    group indices were never selected and their clients hung forever.
    """

    def test_every_index_selected_under_frequent_rebuilds(self):
        manager = GroupManager(ScaleRpcConfig(group_size=4))
        members = [ctx(i) for i in range(12)]  # 3 groups
        for c in members:
            manager.add_client(c)
        selected = set()
        for _round in range(12):
            # Simulate: serve one slice, then rebuild (worst case).
            nxt = manager.advance()
            selected.add(tuple(sorted(m.client_id for m in nxt.members)))
            partition = [members[0:4], members[4:8], members[8:12]]
            manager.rebuild(partition, [100, 100, 100])
        assert len(selected) == 3, "every group must get warmup turns"

    def test_rebuild_rotation_changes_between_rebuilds(self):
        manager = GroupManager(ScaleRpcConfig(group_size=4))
        members = [ctx(i) for i in range(12)]
        for c in members:
            manager.add_client(c)
        partition = [members[0:4], members[4:8], members[8:12]]
        starts = []
        for _ in range(6):
            manager.rebuild(partition, [100, 100, 100])
            starts.append(manager.current_group().gid)
        assert len(set(starts)) > 1

    def test_aggressive_rebalance_no_client_starves(self):
        """End-to-end: the original starvation scenario completes."""
        config = ScaleRpcConfig(
            group_size=4, time_slice_ns=20_000, block_size=256,
            blocks_per_client=8, n_server_threads=2,
            dynamic_scheduling=True, rebalance_every_slices=2,
        )
        cluster = make_cluster(12, config=config)
        out = []
        drivers = [
            closed_loop(cluster, c, batch=2, n_batches=8, out=out)
            for c in cluster.clients
        ]
        run_until_done(cluster, drivers, 300_000_000)
        assert all(d.triggered for d in drivers)
        assert len(out) == 12 * 2 * 8


class TestDrainAdmission:
    """During the drain, new endpoint entries must not be admitted (the
    original code fetched them back into the processing pool, re-feeding
    the drain forever — a livelock)."""

    def test_entries_during_drain_stay_pending(self, small_config):
        cluster = make_cluster(8, config=small_config)
        server = cluster.server
        server.start if False else None
        # Force the draining state and inject an entry for a serving client.
        from repro.core.message import EndpointEntry
        from repro.rdma.node import InboundWrite

        ctx0 = next(iter(server.groups.clients.values()))
        server._serving_ids = {ctx0.client_id}
        server._serve_slots = {ctx0.client_id: 0}
        server._draining = True
        entry = EndpointEntry(
            client_id=ctx0.client_id, req_addr=ctx0.staging_base,
            batch_size=1, total_bytes=40, message_sizes=(40,),
        )
        server._on_entry_write(InboundWrite(
            addr=server.endpoint_addr(ctx0.client_id), size=16,
            payload=entry, imm_data=None, src_qp_num=0, time_ns=0,
        ))
        # Pending, but no fetch was spawned (no new work admitted).
        assert ctx0.pending_entry is entry
        assert all(len(s) == 0 for s in server._worker_stores)


class TestStragglerGrace:
    """Requests racing the pool swap are served from the swapped-out pool
    within the grace window instead of being dropped."""

    def test_straggler_served_within_grace(self, small_config):
        cluster = make_cluster(8, config=small_config)
        server = cluster.server
        from repro.core.message import RpcRequest
        from repro.rdma.node import InboundWrite

        ctx0 = next(iter(server.groups.clients.values()))
        # Simulate the post-swap state: ctx0 was serving, now isn't.
        server._prev_serving_ids = {ctx0.client_id}
        server._prev_serve_slots = {ctx0.client_id: 0}
        server._swap_time_ns = cluster.sim.now
        server._serving_ids = set()
        request = RpcRequest(ctx0.client_id, "echo", payload=1)
        warmup_pool = server.pools.warmup
        server._on_pool_write(InboundWrite(
            addr=warmup_pool.slot_base(0), size=40, payload=request,
            imm_data=None, src_qp_num=0, time_ns=cluster.sim.now,
        ))
        assert sum(len(s) for s in server._worker_stores) == 1
        assert server.stats.stale_drops == 0

    def test_straggler_dropped_after_grace(self, small_config):
        cluster = make_cluster(8, config=small_config)
        server = cluster.server
        from repro.core.message import RpcRequest
        from repro.rdma.node import InboundWrite

        ctx0 = next(iter(server.groups.clients.values()))
        server._prev_serving_ids = {ctx0.client_id}
        server._prev_serve_slots = {ctx0.client_id: 0}
        server._swap_time_ns = -1_000_000  # long ago
        server._serving_ids = set()
        request = RpcRequest(ctx0.client_id, "echo", payload=1)
        server._on_pool_write(InboundWrite(
            addr=server.pools.warmup.slot_base(0), size=40, payload=request,
            imm_data=None, src_qp_num=0, time_ns=cluster.sim.now,
        ))
        assert server.stats.stale_drops == 1


class TestDedupWindow:
    """The dedup window holds a client's newest 1,024 completed ids.

    Eviction once used ``set.pop()``, which drops an arbitrary id: with
    request ids drawn from one global counter each client's ids are sparse,
    and the window kept old ids while a retry of an evicted recent one
    would have run its handler a second time.
    """

    def test_window_is_the_newest_ids_of_an_interleaved_client(self, small_config):
        server = make_cluster(1, config=small_config, start=False).server
        client = ctx(0)
        # 40 interleaved clients: this client's ids step by 40.
        ids = [40 * n + 7 for n in range(3000)]
        for req_id in ids:
            server._remember(client, req_id)
        assert set(client.recent_completed) == set(ids[-1024:])
        assert ids[-1025] not in client.recent_completed
        # Oldest first, so the next completion evicts ids[-1024].
        assert list(client.recent_completed) == ids[-1024:]
