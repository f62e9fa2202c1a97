"""The replicated deployment on the simulation backend.

Builds the DESIGN.md section-15 stack on the ordinary sim topology: one
ScaleRPC server per replica, each wrapping the shared
:class:`~repro.replica.group.ReplicaGroup` through ``handler_for``; one
probe client per replica for the :mod:`~repro.replica.scenario` LFDs
(``replica.hb`` heartbeats travel announce → fetch → respond like any
call); and clients whose rpc-timeout watchdog escalates to failover
(``failover_fn``) while view changes *push* migration.  The workload
fires ``fail_primary_after_op``; a :class:`~repro.faults.FaultPlan` adds
time-based faults through the injector.  A run lasts ``horizon_ns``.

Deterministic: same seed → byte-identical run, obs on or off.  The model
checker (:mod:`repro.analysis.mc.replica`) builds these same worlds at
smaller time constants, so the interleavings it explores are the ones
this runner executes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..faults import FaultInjector, FaultPlan
from ..transport import Topology
from .scenario import (ID_STRIDE, ReplicaWorld, check_fault_point, drive_sim, lfd,
                       replica_names, summarize, workload)

__all__ = ["ReplicaSimConfig", "ReplicaSimWorld", "build_replica_world",
           "run_replica_sim"]


@dataclass(frozen=True)
class ReplicaSimConfig:
    """Shape of one replicated sim deployment."""

    transport: str = "scalerpc"
    n_replicas: int = 2
    n_clients: int = 3
    ops_per_client: int = 60
    op_gap_ns: int = 2_000
    seed: int = 1
    obs_enabled: bool = False
    # Failure detection.
    hb_period_ns: int = 60_000
    hb_timeout_ns: int = 30_000
    suspect_after: int = 2
    # Client recovery.
    rpc_timeout_ns: int = 120_000
    # Server shape: one big group per server keeps the slice rotation out
    # of the failover timing (no context switches to wait through).
    group_size: int = 64
    time_slice_ns: int = 50_000
    # The fault: fail-stop the primary right after this many ops complete
    # (None = no fault; the healthy baseline).  Early enough that most of
    # the workload still runs on the promoted backup.
    fail_primary_after_op: Optional[int] = 60
    horizon_ns: int = 2_000_000

    def __post_init__(self):
        check_fault_point(self)


class ReplicaSimWorld(ReplicaWorld):
    """One built replicated sim deployment (also the MC world object)."""

    client_stats = ("completed", "timeouts", "reconnects", "failovers")

    def __init__(self, name: str, config: ReplicaSimConfig, topo: Topology,
                 observer):
        self.name = name
        self.topo = topo
        self.sim = topo.sim
        self.observer = observer
        super().__init__(config, obs=topo.fabric.obs)
        self.horizon_ns = config.horizon_ns
        self.drivers: list = []
        self.injector: Optional[FaultInjector] = None

    def now(self) -> int:
        return self.sim.now

    def sleep(self, ns: int):
        yield self.sim.timeout(ns)

    def wait(self, handle, timeout_ns: int):
        yield self.sim.timeout(timeout_ns)
        return handle.event.triggered

    def fail_stop(self, name: str):
        """Fail-stop replica ``name`` now, as a ``server_fail_stop`` fault does."""
        self.servers[name].fail_stop()
        self.group.fail_stop(name)
        return iter(())  # a step that takes no sim time and adds no event

    def failover_fn(self, _client):
        """Watchdog escalation target: the current view's primary, if live."""
        target = self.servers[self.membership.view.primary]
        return target if target.alive else None

    def migrate(self, primary: str) -> None:
        """Push the primary-change notice: migrate every client that is
        not already homed on the new primary (timeout-free failover)."""
        target = self.servers[primary]
        for client in self.clients:
            if client.server is not target:
                self.sim.process(
                    client.failover_to(target),
                    name=f"c{client.client_id}.failover",
                )

    def snapshot(self) -> tuple:
        """Abstract protocol state (MC branch pruning; determinism tests)."""
        return (
            self.sim.now,
            tuple(
                (name, rep.role.value, rep.epoch, len(rep.log.entries),
                 rep.log.durable, rep.applied)
                for name, rep in sorted(self.group.replicas.items())
            ),
            self.membership.view.epoch,
            self.membership.view.primary,
            tuple(
                (client.state.name, client._bound_seq,
                 len(client._outstanding), client._crashed)
                for client in self.clients
            ),
            tuple(driver.triggered for driver in self.drivers),
        )


def build_replica_world(
    config: ReplicaSimConfig,
    plan: Optional[FaultPlan] = None,
    name: str = "replica-sim",
) -> ReplicaSimWorld:
    """Build (but do not run) one replicated sim deployment.

    The workload fires ``config.fail_primary_after_op`` itself; ``plan``
    adds time-based faults through the injector (partition, rack and
    model-checker scenarios).
    """
    names = replica_names(config)
    topo = Topology.build(
        server_names=names,
        n_client_machines=2,
        seed=config.seed,
    )
    sim = topo.sim
    observer = None
    if config.obs_enabled:
        from ..obs import Observer

        observer = Observer(meta={
            "experiment": "replica",
            "transport": config.transport,
            "n_replicas": config.n_replicas,
            "n_clients": config.n_clients,
            "seed": config.seed,
        }).install(topo.fabric)
    world = ReplicaSimWorld(name, config, topo, observer)
    for index, (replica_name, node) in enumerate(zip(names, topo.server_nodes)):
        server = topo.build_server(
            config.transport,
            world.group.handler_for(replica_name),
            node=node,
            group_size=config.group_size,
            time_slice_ns=config.time_slice_ns,
            rpc_timeout_ns=config.rpc_timeout_ns,
        )
        # Disjoint id blocks so adoption never collides (see ID_STRIDE).
        server._client_ids = itertools.count(1 + index * ID_STRIDE)
        world.servers[replica_name] = server
    # Workload clients all start on the initial primary.
    primary = world.servers[names[0]]
    for _ in range(config.n_clients):
        client = primary.connect(topo.next_machine())
        client.failover_fn = world.failover_fn
        world.clients.append(client)
    for server in world.servers.values():
        world.probes.append(server.connect(topo.next_machine()))
    for server in world.servers.values():
        server.start()
    for client in world.clients:
        world.drivers.append(sim.process(
            drive_sim(workload(world, client, config.ops_per_client)),
            name=f"drv{client.client_id}",
        ))
    for replica_name, probe in zip(names, world.probes):
        sim.process(drive_sim(lfd(world, replica_name, probe)),
                    name=f"lfd.{replica_name}")
    if plan is not None and not plan.empty:
        world.injector = FaultInjector(
            sim,
            topo.fabric,
            primary,
            world.clients,
            plan,
            topo.rng,
            servers=world.servers,
            replica_group=world.group,
        )
        world.injector.start()
    return world


def run_replica_sim(config: ReplicaSimConfig,
                    plan: Optional[FaultPlan] = None) -> dict:
    """Build, run to the horizon, and summarize one replicated run.

    The summary is JSON-native and deterministic (same seed, obs on or
    off → identical dict), which is what the determinism acceptance
    check compares.
    """
    world = build_replica_world(config, plan=plan)
    try:
        world.sim.run(until=config.horizon_ns)
    finally:
        world.close()
        if world.observer is not None:
            world.observer.uninstall()
    return summarize(
        world,
        backend="sim",
        transport=config.transport,
        seed=config.seed,
        fault_schedule=(
            world.injector.schedule() if world.injector is not None else []
        ),
    )
