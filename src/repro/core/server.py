"""The ScaleRPC server (RPCServer).

Puts the paper's mechanisms together (Section 3.4):

- **Connection grouping** — clients are partitioned into groups; one group
  holds the time slice at a time, bounding the NIC cache's working set.
- **Virtualized mapping** — a single physical pool pair serves every
  group; slots are re-bound at each context switch, keeping the CPU-cache
  footprint constant regardless of client count.
- **Requests warmup** — while group G is being served, the scheduler
  RDMA-reads the announced batches of group G+1 into the warmup pool, so
  working threads never idle across a switch.
- **Priority scheduling** — per-slice performance counters feed the
  :class:`~repro.core.scheduler.PriorityScheduler`.
- **Legacy mode** — an RPC whose handler exceeds the slice budget fails its
  first attempt; retries of that call type run on a dedicated legacy
  thread (Section 3.5).

The context switch sequence at the end of each slice: drain suspended
requests (responses piggyback ``context_switch``), explicitly notify
silent group members, fold counters into priorities, optionally rebalance,
swap the pool roles, promote the warmed group, and begin warming the next.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..rdma.mr import Access
from ..rdma.node import InboundWrite, Node, create_qp_pair
from ..rdma.types import Transport
from ..rdma.verbs import post_read, post_write
from ..sim.resources import Store
from .api import RpcServerApi, ServerWorker
from .client import ScaleRpcClient
from .config import ScaleRpcConfig
from .grouping import ClientContext, ConnectionGroup, GroupManager
from .interface import NO_RESPONSE
from .message import (
    ActivationNotice,
    ContextSwitchNotice,
    EndpointEntry,
    PoolBinding,
    RpcRequest,
    RpcResponse,
)
from .msgpool import PoolPair, SlotCursor
from .scheduler import PriorityScheduler

__all__ = ["ScaleRpcServer", "ServerStats"]

#: request -> response payload; may be a plain function of the request.
Handler = Callable[[RpcRequest], Any]
#: request -> handler execution cost in ns (server CPU beyond the base).
CostFn = Callable[[RpcRequest], int]

MAX_CLIENTS = 4096
ENTRY_BYTES = 64
_DRAIN_POLL_NS = 200
_DRAIN_GRACE_NS = 2_000
_IDLE_WAIT_NS = 10_000
#: Begin piggybacking context_switch_event on responses this long before
#: the slice expires, so the group's clients quiesce by the switch point
#: and the drain stays short (paper: the event is piggybacked while the
#: remaining requests are processed).
_DRAIN_LEAD_NS = 8_000


def _close_pair(qp) -> None:
    """Tear down both endpoints of ``qp``'s connection."""
    if qp.peer is not None:
        qp.peer.close()
    qp.close()


@dataclass
class ServerStats:
    """Aggregate server-side accounting."""

    completed: int = 0
    failed_long_rpcs: int = 0
    legacy_completed: int = 0
    stale_drops: int = 0
    duplicate_requests: int = 0
    context_switches: int = 0
    explicit_notices: int = 0
    warmup_fetches: int = 0
    warmup_requests: int = 0
    # Fault-plane accounting (DESIGN.md section 10).
    lease_evictions: int = 0
    readmissions: int = 0
    reconnects: int = 0
    # Replica-plane accounting (DESIGN.md section 15).
    adoptions: int = 0
    suppressed_responses: int = 0


@dataclass(slots=True)
class _WorkItem:
    """One request routed to a working thread."""

    request: RpcRequest
    addr: int
    ctx: ClientContext
    slot: int
    epoch: int


class _Worker(ServerWorker):
    """A working thread executing the requests routed to its store."""

    __slots__ = ()

    def execute(self) -> None:
        server = self.server
        item = self.item
        if item.epoch != server.epoch:
            server.stats.stale_drops += 1
            self.store.take(self)
            return
        server._busy_workers += 1
        self.start = now = self.sim.now
        request = item.request
        obs = server.node.fabric.obs
        if obs is not None:
            obs.rpc_stage(request.req_id, "exec", now)
        # Poll/read the message out of the pool: mechanistic LLC cost.
        access = server.node.llc.cpu_access(item.addr, request.wire_bytes)
        base_cost = access.cost_ns + server.config.costs.server_request_ns
        if request.req_id in item.ctx.recent_completed:
            # Duplicate of an already-executed request (a retry that raced
            # its own response): respond again without re-executing.
            server.stats.duplicate_requests += 1
            self.after(base_cost, _Worker.respond_again)
            return
        handler_cost = server.handler_cost_fn(request)
        if request.rpc_type in server._legacy_types:
            self.after(base_cost, _Worker.to_legacy)
            return
        if handler_cost > server.config.long_rpc_threshold_ns:
            # First sighting of a long RPC: it would be half-executed when
            # the switch arrives.  Fail it; retries run in legacy mode.
            server._legacy_types.add(request.rpc_type)
            server.stats.failed_long_rpcs += 1
            self.after(base_cost, _Worker.fail_long)
            return
        self.after(base_cost + handler_cost, _Worker.run_handler)

    def respond_again(self) -> None:
        item = self.item
        self.after(self.server._respond(item.ctx, item.request, None), _Worker.finish)

    def to_legacy(self) -> None:
        self.server._legacy_store.put(self.item)
        self.finish()

    def fail_long(self) -> None:
        item = self.item
        self.after(self.server._respond(item.ctx, item.request, None, failed=True), _Worker.finish)

    def run_handler(self) -> None:
        server = self.server
        ctx, request = self.item.ctx, self.item.request
        result = server.handler(request)
        if result is NO_RESPONSE:
            # The handler chose silence (dead/fenced/non-primary replica):
            # no response frame, no dedup entry — the client's watchdog is
            # the failure detector.
            server.stats.suppressed_responses += 1
            self.finish()
            return
        server._remember(ctx, request.req_id)
        self.after(server._respond(ctx, request, result), _Worker.completed)

    def completed(self) -> None:
        self.server.stats.completed += 1
        self.finish()

    def finish(self) -> None:
        server = self.server
        server._busy_workers -= 1
        obs = server.node.fabric.obs
        if obs is not None:
            obs.span(f"server.{server.node.name}.worker{self.index}",
                     self.item.request.rpc_type, self.start, self.sim.now)
        self.take()


class ScaleRpcServer(RpcServerApi):
    """One RPCServer instance on ``node``."""

    def __init__(
        self,
        node: Node,
        handler: Handler,
        config: Optional[ScaleRpcConfig] = None,
        handler_cost_fn: Optional[CostFn] = None,
        response_bytes=32,
    ):
        self.node = node
        self.sim = node.sim
        self.config = config or ScaleRpcConfig()
        self.handler = handler
        self.handler_cost_fn = handler_cost_fn or (lambda _req: 0)
        # Fixed int, or callable(request, result) -> bytes for services
        # with variable-sized responses (e.g. ReadDir).
        self.response_bytes = response_bytes
        self.pools = PoolPair(node, self.config)
        self.groups = GroupManager(self.config)
        self.scheduler = PriorityScheduler(self.config, self.groups)
        self.stats = ServerStats()
        # Endpoint entries + a scratch ring the NIC DMA-reads responses from.
        self.entries = node.register_memory(
            MAX_CLIENTS * ENTRY_BYTES, access=Access.all_remote()
        )
        self._scratch = node.register_memory(self.config.slot_bytes)
        self._scratch_cursor = SlotCursor(
            self._scratch.range.base, self._scratch.range.size
        )
        self._worker_stores = [Store(self.sim) for _ in range(self.config.n_server_threads)]
        self._legacy_store = Store(self.sim)
        self._legacy_types: set[str] = set()
        self._busy_workers = 0
        self._responses_in_flight = 0
        self.epoch = 0
        self.current_serving: Optional[ConnectionGroup] = None
        self._serving_ids: set[int] = set()
        self._serve_slots: dict[int, int] = {}
        # Stragglers: requests posted just before a switch land after the
        # pool swap; within this grace they are still served (their bytes
        # sit in the now-warmup pool until overwritten).
        self._prev_serving_ids: set[int] = set()
        self._prev_serve_slots: dict[int, int] = {}
        self._swap_time_ns = 0
        self._warming_group: Optional[ConnectionGroup] = None
        self._warm_slots: dict[int, int] = {}
        self._warmed_items: list[_WorkItem] = []
        self._draining = False
        self._client_ids = itertools.count(1)
        self._started = False
        # Fail-stop flag (DESIGN.md section 15): a fail-stopped server
        # never restarts; reestablish/adopt refuse while it is down.
        self.alive = True
        # Optional GlobalSynchronizer aligning switches across servers.
        self.synchronizer = None
        node.watch_writes(self.pools.pools[0].region.range, self._on_pool_write)
        node.watch_writes(self.pools.pools[1].region.range, self._on_pool_write)
        node.watch_writes(self.entries.range, self._on_entry_write)

    # -- connection management ------------------------------------------------

    def connect(self, machine: Node) -> ScaleRpcClient:
        """Admit a client on ``machine``: create the RC QP pair, assign an
        id, and place it in a group."""
        client_id = next(self._client_ids)
        if client_id >= MAX_CLIENTS:
            raise RuntimeError("endpoint entry region exhausted")
        client_qp, server_qp = create_qp_pair(machine, self.node, Transport.RC)
        client = ScaleRpcClient(self, machine, client_id, client_qp)
        self._admit(client, server_qp)
        return client

    def _admit(self, client: ScaleRpcClient, server_qp) -> None:
        """Place a fresh context for ``client`` in a group: its response
        cursor, an empty dedup window, and a lease stamped now."""
        ctx = ClientContext(
            client_id=client.client_id,
            qp=server_qp,
            response_base=client.responses.range.base,
            response_bytes=client.responses.range.size,
            staging_base=client.staging.range.base,
        )
        ctx.response_cursor = SlotCursor(ctx.response_base, ctx.response_bytes)
        ctx.last_heard_ns = self.sim.now
        self.groups.add_client(ctx)

    def _rebind(self, client: ScaleRpcClient) -> bool:
        """Replace ``client``'s QP pair with a fresh RC pair to this node
        and point its context at it, re-admitting the client if it has
        none.  Returns True on a re-admission."""
        _close_pair(client.qp)
        client_qp, server_qp = create_qp_pair(client.machine, self.node, Transport.RC)
        client.qp = client_qp
        ctx = self.groups.clients.get(client.client_id)
        if ctx is None:
            self._admit(client, server_qp)
            return True
        ctx.qp = server_qp
        ctx.warmed_up = False  # any old binding died with the old QP
        ctx.pending_entry = None
        ctx.last_heard_ns = self.sim.now
        return False

    def disconnect(self, client_id: int) -> None:
        """Remove a departed client, tearing down both QP endpoints."""
        ctx = self.groups.remove_client(client_id)
        self._serving_ids.discard(client_id)
        _close_pair(ctx.qp)

    def endpoint_addr(self, client_id: int) -> int:
        """Address of a client's endpoint entry."""
        return self.entries.range.base + client_id * ENTRY_BYTES

    # -- fault recovery (DESIGN.md section 10) -----------------------------

    def fail_stop(self) -> None:
        """Fail-stop this server permanently (no restart).

        Every client connection breaks — both QP ends go to ERROR, so
        remote clients observe the failure exactly as they would a peer
        crash — and :meth:`reestablish`/:meth:`adopt` refuse from here
        on: the only way forward for a client is failover to a promoted
        backup (:mod:`repro.replica`).
        """
        if not self.alive:
            return
        self.alive = False
        for ctx in self.groups.clients.values():
            peer = ctx.qp.peer
            if peer is not None:
                peer.to_error()
            ctx.qp.to_error()
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.faults", "fail_stop", self.sim.now,
                        {"server": self.node.name})

    def adopt(self, client: ScaleRpcClient) -> bool:
        """Admit a client failing over from another (dead) server.

        The cross-server variant of :meth:`reestablish`: tears down the
        client's QP pair to its old server, builds a fresh RC pair to
        *this* node, and re-homes the client (``client.server`` flips
        here).  The client keeps its id — failover deployments give each
        server a disjoint id space so adoption can never collide with a
        locally-admitted client.  Returns False (and changes nothing) if
        this server is itself dead: the caller's watchdog keeps backing
        off until membership names a live target.
        """
        if not self.alive:
            return False
        self._rebind(client)
        client.server = self
        self.stats.adoptions += 1
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.faults", "adopt", self.sim.now,
                        {"client": client.client_id})
        return True

    def reestablish(self, client: ScaleRpcClient) -> None:
        """Control-plane reconnect for a client whose connection died.

        Tears down the dead RC QP pair and builds a fresh one (the caller
        has already paid the Swift-style ``QPC_SETUP_NS`` control-plane
        cost).  If the lease reaper evicted the client while it was down,
        it is re-admitted with fresh context metadata — and therefore a
        fresh activation numbering, which is why the RECONNECT protocol
        event resets the client's freshness floor.

        A fail-stopped server refuses silently: the client's QP stays
        dead, its recovery loop keeps backing off, and the watchdog
        escalates to failover once membership names a live target.
        """
        if not self.alive:
            return
        if self._rebind(client):
            self.stats.readmissions += 1
        self.stats.reconnects += 1
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.faults", "reconnect", self.sim.now,
                        {"client": client.client_id})

    def evict(self, client_id: int) -> None:
        """Lease expiry: reclaim everything the dead client held — its
        group membership (the scheduler slice shrinks or disappears), its
        msgpool slot (remaining members are renumbered densely), and the
        server-side QP."""
        ctx = self.groups.remove_client(client_id)
        self._serving_ids.discard(client_id)
        self._serve_slots.pop(client_id, None)
        self._prev_serving_ids.discard(client_id)
        self._prev_serve_slots.pop(client_id, None)
        self._warm_slots.pop(client_id, None)
        _close_pair(ctx.qp)
        self.stats.lease_evictions += 1
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.faults", "lease_evict", self.sim.now,
                        {"client": client_id})

    def _lease_reaper(self) -> Generator:
        """Evict dead clients whose lease expired.  Any inbound write
        (endpoint entry or pool request) renews the lease; when it still
        expires, the server probes the connection — a merely *idle*
        client answers (its QP is up) and is renewed, a crashed one's
        errored QP is evicted.  The reaper checks twice per lease."""
        lease = self.config.lease_ns
        period = max(lease // 2, 1)
        while True:
            yield self.sim.timeout(period)
            cutoff = self.sim.now - lease
            for client_id in sorted(self.groups.clients):
                ctx = self.groups.clients[client_id]
                if ctx.last_heard_ns > cutoff:
                    continue
                if ctx.qp.is_ready:
                    ctx.last_heard_ns = self.sim.now  # probe answered
                else:
                    self.evict(client_id)

    def start(self) -> None:
        """Spawn worker threads, the legacy thread, and the scheduler."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for i in range(self.config.n_server_threads):
            _Worker(self, i, self._worker_stores[i], f"rpcsrv.worker{i}")
        self.sim.process(self._legacy_worker(), name="rpcsrv.legacy")
        self.sim.process(self._scheduler_loop(), name="rpcsrv.sched")
        # Leases are opt-in: with lease_ns == 0 no reaper process exists
        # and a fault-free run stays byte-identical.
        if self.config.lease_ns > 0:
            self.sim.process(self._lease_reaper(), name="rpcsrv.lease")

    # -- inbound event routing ----------------------------------------------

    #: How long after a swap stragglers of the previous group are served.
    _STRAGGLER_GRACE_NS = 4_000

    def _on_pool_write(self, event: InboundWrite) -> None:
        request = event.payload
        if not isinstance(request, RpcRequest):
            return
        ctx = self.groups.clients.get(request.client_id)
        pool = self.pools.pool_of_addr(event.addr)
        if ctx is None:
            self.stats.stale_drops += 1
            return
        ctx.last_heard_ns = self.sim.now  # lease renewal
        if (
            pool is self.pools.processing
            and request.client_id in self._serving_ids
        ):
            slot = self._serve_slots[request.client_id]
            self._route(_WorkItem(request, event.addr, ctx, slot, self.epoch))
            return
        if (
            pool is self.pools.warmup
            and request.client_id in self._prev_serving_ids
            and self.sim.now - self._swap_time_ns <= self._STRAGGLER_GRACE_NS
        ):
            # A request that raced the context switch: its data landed in
            # the swapped-out pool, which is still intact.  Serve it.
            slot = self._prev_serve_slots[request.client_id]
            self._route(_WorkItem(request, event.addr, ctx, slot, self.epoch))
            return
        self.stats.stale_drops += 1

    def _on_entry_write(self, event: InboundWrite) -> None:
        entry = event.payload
        if not isinstance(entry, EndpointEntry):
            return
        ctx = self.groups.clients.get(entry.client_id)
        if ctx is None:
            return
        ctx.last_heard_ns = self.sim.now  # lease renewal
        ctx.pending_entry = entry
        if self._draining:
            # The slice is closing: no new work is admitted; the entry
            # stays pending until the client's group next warms up.
            return
        if not self.config.warmup_enabled:
            # No server-side fetching in the no-warmup baseline: a serving
            # client that announces mid-slice is activated to repost
            # directly; others wait for their group's slice.  An
            # announcement that raced the slice-start activation must not
            # trigger a second one (``warmed_up`` flips on the first):
            # duplicate activations reset the client's block cursor and
            # make concurrent reposts overwrite still-unread requests.
            if entry.client_id in self._serving_ids:
                ctx.pending_entry = None
                if not ctx.warmed_up:
                    self._send_activation(ctx, self._serve_slots[entry.client_id])
            return
        if entry.client_id in self._serving_ids:
            # Late announcement from a member of the group on the slice:
            # fetch straight into the processing pool.
            slot = self._serve_slots[entry.client_id]
            self.sim.process(
                self._fetch(ctx, self.pools.processing, slot, self.current_serving),
                name=f"rpcsrv.fetch{entry.client_id}",
            )
        elif (
            self._warming_group is not None
            and entry.client_id in self._warm_slots
        ):
            slot = self._warm_slots[entry.client_id]
            self.sim.process(
                self._fetch(ctx, self.pools.warmup, slot, self._warming_group),
                name=f"rpcsrv.fetch{entry.client_id}",
            )
        # Otherwise the entry waits until the client's group warms up.

    def _route(self, item: _WorkItem) -> None:
        obs = self.node.fabric.obs
        if obs is not None:
            # req_rx coincides with dispatch here: the simulated server
            # has no decode step, so frame arrival and routing are the
            # same instant (the proc backend separates them).
            obs.rpc_stage(item.request.req_id, "req_rx", self.sim.now)
            obs.rpc_stage(item.request.req_id, "dispatch", self.sim.now)
        self._worker_stores[item.slot % len(self._worker_stores)].put(item)

    # -- warmup ---------------------------------------------------------------

    def _start_warmup(self, group: Optional[ConnectionGroup]) -> None:
        """Begin fetching announced batches of ``group`` into the warmup
        pool (paper Figure 6, steps 3-4)."""
        self._warming_group = group
        self._warm_slots = {}
        self._warmed_items = []
        if group is None or not self.config.warmup_enabled:
            return
        for slot, ctx in enumerate(group.members):
            self._warm_slots[ctx.client_id] = slot
            # Pre-load the group's QP state into the NIC cache so the
            # slice starts without connection-refetch stalls.
            if self.config.conn_prefetch_enabled:
                self.node.nic.prefetch_connection(ctx.qp.qp_num)
            if ctx.pending_entry is not None:
                self.sim.process(
                    self._fetch(ctx, self.pools.warmup, slot, group),
                    name=f"rpcsrv.warm{ctx.client_id}",
                )

    def _fetch(
        self,
        ctx: ClientContext,
        pool,
        slot: int,
        target_group: Optional[ConnectionGroup],
    ) -> Generator:
        """RDMA-read one client's announced batch into ``pool``."""
        entry = ctx.pending_entry
        if entry is None:
            return
        if not ctx.qp.is_ready:
            # The connection died (crash or eviction raced this fetch);
            # keep the entry pending — it is fetched after reconnect.
            return
        ctx.pending_entry = None
        size = min(entry.total_bytes, self.config.slot_bytes)
        # Scatter each fetched message into its own block tail, exactly
        # where a direct write from this slot would land, so warmed and
        # direct traffic share the same hot lines.
        cursor = pool.cursor(slot)
        addrs = [cursor.next(wire) for wire in entry.message_sizes]
        scatter = list(zip(addrs, entry.message_sizes))
        # Unsignaled: the fetch loop consumes wr.completion directly, so a
        # CQE would sit in the per-client send CQ forever (nobody polls it).
        wr = post_read(
            ctx.qp,
            local_addr=addrs[0] if addrs else pool.slot_base(slot),
            remote_addr=entry.req_addr,
            size=size,
            signaled=False,
            scatter=scatter,
        )
        completion = yield wr.completion
        batch = completion.payload
        if not isinstance(batch, list):
            return
        self.stats.warmup_fetches += 1
        self.stats.warmup_requests += len(batch)
        for index, request in enumerate(batch):
            addr = addrs[index] if index < len(addrs) else addrs[-1]
            item = _WorkItem(request, addr, ctx, slot, self.epoch)
            if target_group is self.current_serving and pool is self.pools.processing:
                item.epoch = self.epoch
                self._route(item)
            elif target_group is self._warming_group and pool is self.pools.warmup:
                self._warmed_items.append(item)
            else:
                # The switch overtook this fetch; the client re-announces
                # after its notice, so simply drop the stale copies.
                self.stats.stale_drops += 1

    # -- the scheduler loop ----------------------------------------------------

    def _scheduler_loop(self) -> Generator:
        while not self.groups.groups:
            yield self.sim.timeout(_IDLE_WAIT_NS)
        # Bootstrap: warm the first group, then enter the steady rotation.
        self._start_warmup(self.groups.current_group())
        while True:
            if (
                self.current_serving is not None
                and self._warming_group is self.current_serving
            ):
                # Single group: keep serving without swapping pools or
                # bumping the epoch, just re-admit new members.
                self._begin_slice(self.current_serving, [], continuation=True)
            else:
                self.epoch = self.pools.swap()
                self._begin_slice(self._warming_group, self._warmed_items)
            serving = self.current_serving
            self.scheduler.maybe_rebalance()
            if len(self.groups.groups) > 1:
                next_group = self.groups.advance()
            else:
                next_group = self.groups.current_group()
            if next_group is serving:
                # No one else to warm; the same group continues.
                self._warming_group = serving
                self._warmed_items = []
            else:
                self._start_warmup(next_group)
            slice_ns = max(serving.time_slice_ns if serving else self.config.time_slice_ns, 1)
            switching = serving is not None and self._warming_group is not serving
            lead = min(_DRAIN_LEAD_NS, slice_ns // 3) if switching else 0
            if self.synchronizer is not None:
                yield from self.synchronizer.sleep_slice(self, slice_ns)
                if switching:
                    self._draining = True
            elif lead:
                yield self.sim.timeout(slice_ns - lead)
                # Start piggybacking the switch event early so the group
                # quiesces by the time the slice expires.
                self._draining = True
                yield self.sim.timeout(lead)
            else:
                yield self.sim.timeout(slice_ns)
            if serving is not None:
                if switching:
                    yield from self._drain()
                    self._notify_unresponded(serving)
                    self.stats.context_switches += 1
                self.scheduler.close_slice(serving.members)

    def _begin_slice(
        self,
        group: Optional[ConnectionGroup],
        warmed: list[_WorkItem],
        continuation: bool = False,
    ) -> None:
        self.current_serving = group
        self._draining = False
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.sched", "slice_begin", self.sim.now, {
                "epoch": self.epoch,
                "group_size": len(group.members) if group is not None else 0,
                "continuation": continuation,
            })
        if not continuation:
            self._prev_serving_ids = self._serving_ids
            self._prev_serve_slots = self._serve_slots
            self._swap_time_ns = self.sim.now
        self._serving_ids = set()
        self._serve_slots = {}
        if group is None:
            return
        for slot, ctx in enumerate(group.members):
            self._serving_ids.add(ctx.client_id)
            self._serve_slots[ctx.client_id] = slot
            ctx.responded_this_drain = False
            if not continuation:
                ctx.warmed_up = False
                # Fresh slice grant: bump the activation sequence number
                # once here (not per send) so re-sends of the same grant
                # carry the same seq and the client can drop duplicates.
                ctx.activation_seq += 1
            if not self.config.warmup_enabled:
                # Faithful no-warmup baseline: no server-side fetching at
                # all.  Activate the client explicitly; it reposts its
                # outstanding requests directly — the slice-start gap the
                # warmup mechanism exists to hide.
                if not continuation:
                    ctx.pending_entry = None
                    self._send_activation(ctx, slot)
                elif not ctx.warmed_up and ctx.pending_entry is not None:
                    # A member admitted mid-slice announced before it was
                    # serving; this continuation re-admission is its
                    # activation point (a fresh grant, so a fresh seq).
                    # Without this the entry would pend forever: a single
                    # group never context-switches, and the client only
                    # re-announces after a switch notice.
                    ctx.pending_entry = None
                    ctx.activation_seq += 1
                    self._send_activation(ctx, slot)
                continue
            # Late announcements from the warmup phase that were never
            # fetched: pull them into the processing pool now.
            if ctx.pending_entry is not None:
                self.sim.process(
                    self._fetch(ctx, self.pools.processing, slot, group),
                    name=f"rpcsrv.catchup{ctx.client_id}",
                )
        for item in warmed:
            item.epoch = self.epoch
            self._route(item)

    def _send_activation(self, ctx: ClientContext, slot: int) -> None:
        if not ctx.qp.is_ready:
            # Connection down; the client re-announces after reconnect and
            # gets a fresh grant then.
            return
        notice = ActivationNotice(
            binding=PoolBinding(
                pool_base=self.pools.processing.base,
                slot_base=self.pools.processing.slot_base(slot),
                slot_bytes=self.config.slot_bytes,
                epoch=self.epoch,
                seq=ctx.activation_seq,
            ),
            epoch=self.epoch,
        )
        ctx.warmed_up = True  # binding delivered; responses need not repeat it
        size = notice.wire_bytes
        post_write(
            ctx.qp,
            local_addr=self._scratch_cursor.next(size),
            remote_addr=ctx.response_cursor.next(size),
            size=size,
            payload=notice,
            signaled=False,
        )

    def _drain(self) -> Generator:
        """Process-and-clear suspended requests before switching.

        Quiescence covers the NIC pipeline as well as the worker threads:
        under batched load the send queue holds tens of microseconds of
        responses, and switching before they (and the in-flight requests
        they will trigger) have drained would strand clients posting into
        a swapped pool.  A deadline bounds the drain at two time slices —
        past that, stragglers are cut off and recover via re-announce.
        """
        self._draining = True
        obs = self.node.fabric.obs
        if obs is not None:
            obs.instant("server.sched", "drain_begin", self.sim.now,
                        {"epoch": self.epoch})
        deadline = self.sim.now + 2 * self.config.time_slice_ns
        while self.sim.now < deadline:
            while self._pending_work() and self.sim.now < deadline:
                yield self.sim.timeout(_DRAIN_POLL_NS)
            yield self.sim.timeout(_DRAIN_GRACE_NS)
            if not self._pending_work():
                return

    def _pending_work(self) -> bool:
        """Work that must land before the switch: queued/executing
        requests and responses still in flight to their clients.

        (Stray control traffic — endpoint-entry writes from re-announcing
        clients — does not block the switch; a request racing the swap is
        dropped and re-announced, which the drain lead makes rare.)
        """
        return (
            self._busy_workers > 0
            or any(len(s) for s in self._worker_stores)
            or self._responses_in_flight > 0
        )

    def _notify_unresponded(self, group: ConnectionGroup) -> None:
        """Explicit context_switch_event writes to silent members."""
        notice = ContextSwitchNotice(epoch=self.epoch)
        size = notice.wire_bytes
        for ctx in group.members:
            if ctx.responded_this_drain:
                continue
            if ctx.client_id not in self.groups.clients:
                continue  # disconnected mid-slice
            if not ctx.qp.is_ready:
                continue  # connection down (crash/eviction mid-slice)
            cursor = ctx.response_cursor
            post_write(
                ctx.qp,
                local_addr=self._scratch_cursor.next(size),
                remote_addr=cursor.next(size),
                size=size,
                payload=notice,
                signaled=False,
            )
            self.stats.explicit_notices += 1

    # -- request execution ------------------------------------------------------

    def _legacy_worker(self) -> Generator:
        """Dedicated thread executing long RPCs outside the slice regime."""
        while True:
            item: _WorkItem = yield self._legacy_store.get()
            request = item.request
            obs = self.node.fabric.obs
            if obs is not None:
                obs.rpc_stage(request.req_id, "exec", self.sim.now)
            if request.req_id in item.ctx.recent_completed:
                self.stats.duplicate_requests += 1
                yield self.sim.timeout(self._respond(item.ctx, request, None))
                continue
            cost = self.handler_cost_fn(request) + self.config.costs.server_request_ns
            yield self.sim.timeout(cost)
            result = self.handler(request)
            if result is NO_RESPONSE:
                self.stats.suppressed_responses += 1
                continue
            self._remember(item.ctx, request.req_id)
            yield self.sim.timeout(self._respond(item.ctx, request, result))
            self.stats.legacy_completed += 1
            self.stats.completed += 1

    def _remember(self, ctx: ClientContext, req_id: int) -> None:
        recent = ctx.recent_completed
        recent[req_id] = None
        if len(recent) > 1024:
            del recent[next(iter(recent))]

    def _respond(
        self,
        ctx: ClientContext,
        request: RpcRequest,
        result: Any,
        failed: bool = False,
    ) -> int:
        """Write the response back; returns the CPU ns to charge."""
        if not ctx.qp.is_ready:
            # The connection tore down (disconnect or CQ-overrun fatal
            # error) while this request was in service; drop the response.
            return 0
        binding = None
        serving = ctx.client_id in self._serving_ids
        if serving and not ctx.warmed_up and not failed:
            slot = self._serve_slots[ctx.client_id]
            binding = PoolBinding(
                pool_base=self.pools.processing.base,
                slot_base=self.pools.processing.slot_base(slot),
                slot_bytes=self.config.slot_bytes,
                epoch=self.epoch,
                seq=ctx.activation_seq,
            )
            ctx.warmed_up = True
        data_bytes = (
            self.response_bytes(request, result)
            if callable(self.response_bytes)
            else self.response_bytes
        )
        response = RpcResponse(
            req_id=request.req_id,
            client_id=ctx.client_id,
            payload=result,
            data_bytes=data_bytes,
            failed=failed,
            context_switch=self._draining and serving,
            binding=binding,
        )
        if self._draining and serving:
            ctx.responded_this_drain = True
        if serving:
            ctx.record_request(request.data_bytes)
        size = response.wire_bytes
        scratch = self._scratch_cursor.next(size)
        write_cost = self.node.llc.cpu_access(scratch, size, write=True).cost_ns
        wr = post_write(
            ctx.qp,
            local_addr=scratch,
            remote_addr=ctx.response_cursor.next(size),
            size=size,
            payload=response,
            signaled=False,
        )
        self._responses_in_flight += 1
        wr.completion.add_callback(self._response_landed)
        obs = self.node.fabric.obs
        if obs is not None:
            obs.rpc_stage(request.req_id, "done", self.sim.now)
        return write_cost

    def _response_landed(self, _event) -> None:
        self._responses_in_flight -= 1
