"""The replicated deployment's scenario, written once for both backends.

The workload, the per-replica local failure detector (LFD), the view
callback, the exactly-once witness and the run summary.  Scenario
generators never call into a backend: they *yield* each client-API call
or world primitive as a step and get its result back.  :func:`drive_sim`
runs a step with ``yield from`` (a sim step is a generator, so the kernel
sees exactly the events it yields); :func:`drive_async` awaits it (a
coroutine) and throws its exception back into the scenario.

A backend subclasses :class:`ReplicaWorld` with the primitives: ``now()``,
the steps ``sleep(ns)``, ``wait(handle, timeout_ns)`` (answered in
time?) and ``fail_stop(name)``, ``migrate(primary)`` and its clients'
``failover_fn``.  Times are integer nanoseconds.  The fault is a workload
point on both backends: :func:`workload` fail-stops the primary right
after op ``fail_primary_after_op`` completes, counted over all clients.
"""

from __future__ import annotations

from .group import HEARTBEAT_RPC, OP_RPC, ReplicaGroup
from .membership import MembershipService
from .protocol import ReplicaRole
from .statemachine import ReplicatedStateMachine

__all__ = ["ID_STRIDE", "ReplicaWorld", "check_fault_point", "drive_async",
           "drive_sim", "lfd", "replica_names", "summarize", "workload"]

#: Client-id stride between replicas: failover re-homes a client without
#: renumbering it, so each server hands out ids from a disjoint block.
ID_STRIDE = 1000


def replica_names(config) -> tuple:
    return tuple(f"r{i}" for i in range(config.n_replicas))


def check_fault_point(config) -> None:
    """Reject a ``fail_primary_after_op`` with no op before or after it."""
    k, total = config.fail_primary_after_op, config.n_clients * config.ops_per_client
    if k is not None and not 1 <= k < total:
        raise ValueError(f"fail_primary_after_op must be in [1, {total}); got {k}")


class ReplicaWorld:
    """The replica group, its membership service and the run state the
    scenario steps share, plus the view callback.

    Subscribes to the membership service on construction; callers pair
    that with :meth:`close` in a ``finally``.
    """

    #: Per-client counters reported in the summary.
    client_stats = ("completed", "reconnects", "failovers")

    def __init__(self, config, obs=None):
        names = replica_names(config)
        self.config = config
        self.obs = obs
        self.group = ReplicaGroup(
            names, ReplicatedStateMachine, obs=obs, clock=self.now
        )
        self.membership = MembershipService(names, config.suspect_after, obs=obs)
        self.servers: dict = {}
        self.clients: list = []
        #: One probe client per replica (the LFD's transport endpoint).
        self.probes: list = []
        self.handles: list = []
        #: (ts_ns, client_id, req_id) per completed workload op, in
        #: completion order.
        self.completions: list = []
        #: Primary commits per (client_id, req_id): exactly-once witness.
        self.commit_counts: dict = {}
        self.group.commit_watchers.append(self._on_commit)
        self.view_sub = self.membership.subscribe(self.on_view)

    def _on_commit(self, _name, _epoch, client_id, req_id) -> None:
        key = (client_id, req_id)
        self.commit_counts[key] = self.commit_counts.get(key, 0) + 1

    def on_view(self, view) -> None:
        """Promote (or epoch-advance) the group when a view lands, then
        tell the backend about the primary."""
        rep = self.group.replicas.get(view.primary)
        if rep is None or not rep.alive:
            # The elected replica died before the view landed (backup
            # dies during promotion): wait for the next view to supersede
            # this one — promotion from a later epoch stays legal.
            return
        if rep.role is ReplicaRole.BACKUP:
            self.group.promote(view.primary, view.epoch)
        else:
            self.group.advance_epoch(view.primary, view.epoch)
        self.migrate(view.primary)

    def migrate(self, primary: str) -> None:
        """Primary-change hook.  By default clients migrate pull-style,
        through ``failover_fn`` when their connection breaks."""

    def close(self) -> None:
        """Release the view subscription (typestate: every subscribe is
        matched by an unsubscribe, even on error paths)."""
        if self.view_sub is not None:
            self.view_sub.unsubscribe()
            self.view_sub = None


def workload(world: ReplicaWorld, client, ops: int):
    """Closed-loop client: one replicated KV/MDS op at a time."""
    for n in range(ops):
        if n % 5 == 4:
            payload = {"verb": "mknod", "path": f"/c{client.client_id}/f{n}"}
        else:
            payload = {"verb": "put", "key": f"c{client.client_id}.k{n % 4}",
                       "value": n}
        handle = yield client.async_call(OP_RPC, payload=payload)
        world.handles.append(handle)
        yield client.flush()
        yield client.poll_completions([handle])
        world.completions.append(
            (world.now(), client.client_id, handle.request.req_id)
        )
        if len(world.completions) == world.config.fail_primary_after_op:
            yield world.fail_stop(world.membership.view.primary)
        if world.config.op_gap_ns:
            yield world.sleep(world.config.op_gap_ns)


def lfd(world: ReplicaWorld, name: str, probe):
    """Local failure detector for replica ``name``.

    Probes over the same RPC stack the workload uses: post a heartbeat,
    flush, wait ``hb_timeout_ns`` for the answer, and report hit/miss to
    the membership service.
    """
    config = world.config
    obs = world.obs
    while True:
        yield world.sleep(config.hb_period_ns)
        if not world.membership.view.is_alive(name):
            return  # declared dead; this LFD retires
        try:
            handle = yield probe.async_call(
                HEARTBEAT_RPC, payload={"origin": "gfd"}
            )
            if obs is not None:
                obs.rpc_stage(handle.request.req_id, "hb_probe", world.now())
            yield probe.flush()
            alive = yield world.wait(handle, config.hb_timeout_ns)
            if not alive:
                # Withdraw the missed probe: heartbeats are
                # fire-and-forget, and leaving it outstanding would wake
                # the probe client's own recovery machinery.
                probe._outstanding.pop(handle.request.req_id, None)
            elif obs is not None:
                obs.rpc_stage(handle.request.req_id, "hb_ack", world.now())
        except ConnectionError:
            alive = False  # a closed listener is a miss, like silence
        world.membership.report(name, alive, now=world.now())


def drive_sim(scenario):
    """Run ``scenario`` as a sim process body."""
    value = None
    while True:
        try:
            step = scenario.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield from step


async def drive_async(scenario):
    """Run ``scenario`` as a coroutine."""
    value, error = None, None
    while True:
        try:
            step = scenario.send(value) if error is None else scenario.throw(error)
        except StopIteration as stop:
            return stop.value
        try:
            value, error = await step, None
        except Exception as exc:
            value, error = None, exc


def summarize(world: ReplicaWorld, **extra) -> dict:
    """The JSON-native run summary.  ``fail_primary_after_op`` (None = no
    workload fault) splits the completions for the unavailability window
    and goodput: op k counts as before the fault, fired in its instant."""
    completions = world.completions
    fault_op = world.config.fail_primary_after_op
    unavailable_ns = 0
    goodput_ratio = 1.0
    if fault_op is not None and len(completions) > fault_op:
        before = [c[0] for c in completions[:fault_op]]
        after = [c[0] for c in completions[fault_op:]]
        unavailable_ns = after[0] - before[-1]
        goodput_ratio = _goodput_ratio(before, after)
    view = world.membership.view
    alive_digests = {
        rep.machine.digest()
        for rep in world.group.replicas.values()
        if rep.role is not ReplicaRole.DEAD
    }
    return {
        "completed": len(completions),
        "total_ops": world.config.n_clients * world.config.ops_per_client,
        "per_client": {
            client.client_id: {
                stat: getattr(client, stat) for stat in world.client_stats
            }
            for client in world.clients
        },
        "group": world.group.stats.as_dict(),
        "snapshot": {
            name: list(entry)
            for name, entry in world.group.snapshot().items()
        },
        "view": {"epoch": view.epoch, "primary": view.primary,
                 "changes": world.membership.view_changes},
        "duplicate_executions": sum(
            1 for n in world.commit_counts.values() if n > 1
        ),
        "unavailable_ns": unavailable_ns,
        "goodput_ratio": goodput_ratio,
        "replica_digests_agree": len(alive_digests) <= 1,
        **extra,
    }


def _goodput_ratio(before: list, after: list) -> float:
    """Post-recovery completion rate relative to pre-fault, from the K
    completion gaps closest to the fault on each side (robust to the
    workload draining near the end of the run)."""
    k = min(8, len(before) - 1, len(after) - 1)
    if k < 1:
        return 1.0
    pre_gap = (before[-1] - before[-1 - k]) / k
    post_gap = (after[k] - after[0]) / k
    if post_gap <= 0:
        return 1.0
    if pre_gap <= 0:
        return 0.0 if post_gap > 0 else 1.0
    return pre_gap / post_gap
