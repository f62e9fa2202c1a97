"""Fine-grained unit tests of the ScaleRPC client state machine."""

import pytest

from repro.core.client import ClientState
from repro.core.message import (
    ActivationNotice,
    ContextSwitchNotice,
    EndpointEntry,
    PoolBinding,
    RpcResponse,
)
from repro.rdma.node import InboundWrite

from .conftest import make_cluster


@pytest.fixture
def quiet_client(small_config):
    """One client on a stopped server: no scheduler interference."""
    cluster = make_cluster(1, config=small_config, start=False)
    return cluster, cluster.clients[0]


def inbound(client, payload):
    return InboundWrite(
        addr=client.responses.range.base,
        size=40,
        payload=payload,
        imm_data=None,
        src_qp_num=0,
        time_ns=client.sim.now,
    )


def binding_for(cluster, slot=0):
    server = cluster.server
    return PoolBinding(
        pool_base=server.pools.processing.base,
        slot_base=server.pools.processing.slot_base(slot),
        slot_bytes=server.config.slot_bytes,
        epoch=1,
    )


class TestStateTransitions:
    def test_starts_idle(self, quiet_client):
        cluster, client = quiet_client
        assert client.state is ClientState.IDLE

    def test_flush_announces_and_enters_warmup(self, quiet_client):
        cluster, client = quiet_client
        sim = cluster.sim

        def driver(sim):
            yield from client.async_call("op", payload=1)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        assert client.state is ClientState.WARMUP
        assert client.announcements == 1
        # The staged batch sits at the staging address for warmup reads.
        staged = client.machine.load(client.staging.range.base)
        assert [r.payload for r in staged] == [1]

    def test_response_with_binding_enters_process(self, quiet_client):
        cluster, client = quiet_client
        sim = cluster.sim
        handles = []

        def driver(sim):
            handle = yield from client.async_call("op", payload=1)
            handles.append(handle)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        response = RpcResponse(
            req_id=handles[0].request.req_id,
            client_id=client.client_id,
            payload="done",
            binding=binding_for(cluster),
        )
        client._on_response(inbound(client, response))
        assert client.state is ClientState.PROCESS
        assert handles[0].response.payload == "done"
        assert client.outstanding == 0

    def test_activation_notice_reposts_outstanding(self, quiet_client):
        cluster, client = quiet_client
        sim = cluster.sim

        def driver(sim):
            yield from client.async_call("op", payload=1)
            yield from client.async_call("op", payload=2)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        before = client.qp.sends_posted
        client._on_response(inbound(client, ActivationNotice(
            binding=binding_for(cluster), epoch=1)))
        assert client.state is ClientState.PROCESS
        sim.run(until=sim.now + 100_000)
        # Both outstanding requests were reposted directly.
        assert client.qp.sends_posted >= before + 2

    def test_context_switch_notice_idles_and_reannounces(self, quiet_client):
        cluster, client = quiet_client
        sim = cluster.sim

        def driver(sim):
            yield from client.async_call("op", payload=1)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        announcements = client.announcements
        client._on_response(inbound(client, ContextSwitchNotice(epoch=2)))
        assert client.state is ClientState.IDLE
        sim.run(until=sim.now + 100_000)
        # Outstanding work means a re-announcement (after the debounce).
        assert client.announcements == announcements + 1
        assert client.state is ClientState.WARMUP

    def test_switch_notice_without_outstanding_stays_idle(self, quiet_client):
        cluster, client = quiet_client
        client._on_response(inbound(client, ContextSwitchNotice(epoch=2)))
        cluster.sim.run(until=100_000)
        assert client.state is ClientState.IDLE
        assert client.announcements == 0

    def test_failed_response_triggers_retry(self, quiet_client):
        cluster, client = quiet_client
        sim = cluster.sim
        handles = []

        def driver(sim):
            handle = yield from client.async_call("op", payload=1)
            handles.append(handle)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        failed = RpcResponse(
            req_id=handles[0].request.req_id,
            client_id=client.client_id,
            failed=True,
        )
        announcements = client.announcements
        client._on_response(inbound(client, failed))
        sim.run(until=sim.now + 100_000)
        assert client.failed_retries == 1
        # Still outstanding (no success yet), re-announced for pickup.
        assert client.outstanding == 1
        assert client.announcements == announcements + 1

    def test_unknown_response_ignored(self, quiet_client):
        cluster, client = quiet_client
        stray = RpcResponse(req_id=424242, client_id=client.client_id, payload="?")
        client._on_response(inbound(client, stray))
        assert client.completed == 0

    def test_announce_includes_message_sizes(self, quiet_client):
        cluster, client = quiet_client
        sim, server = cluster.sim, cluster.server
        # The entry region is watched, so the server's watcher consumes the
        # write and ``load`` cannot read it back: capture it on the way in.
        seen = []
        server.node.watch_writes(server.entries.range, seen.append)

        def driver(sim):
            yield from client.async_call("op", payload=1, data_bytes=100)
            yield from client.async_call("op", payload=2, data_bytes=50)
            yield from client.flush()

        sim.process(driver(sim))
        sim.run(until=100_000)
        addr = server.endpoint_addr(client.client_id)
        entry = [write.payload for write in seen if write.addr == addr][-1]
        assert isinstance(entry, EndpointEntry)
        assert entry.batch_size == 2
        assert entry.message_sizes == (108, 58)  # +8-byte headers
