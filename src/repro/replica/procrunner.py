"""The replicated deployment on the real-process backend.

The :mod:`repro.replica.scenario` the sim runs, driven by
:func:`~repro.replica.scenario.drive_async` over real sockets: one
:class:`~repro.net.procserver.ProcRpcServer` listener per replica on
loopback, one probe client per replica for the failure detectors, and
clients whose ``failover_fn`` hook re-homes a broken connection to the
promoted backup's endpoint, reposting in-flight requests under their
original req_ids.

Fail-stop here is real: right after op ``fail_primary_after_op`` the
victim's listener closes and every client connection breaks, so recovery
rides the proc transport's actual reconnect machinery (EOF → bounded
reconnect → failover retarget), not a simulation of it.  The run ends
when the workload is done, or as soon as any of its tasks fails.
Everything runs in one event loop, which keeps the replica group shared
in memory exactly as the sim backend does — the wire is real for the
client/server path, which is the path under test.  Config times are
nanoseconds, like the sim's; they become seconds only where they reach
asyncio.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from ..net.clock import Clock
from ..net.procserver import ProcRpcClient, ProcRpcServer
from ..transport.topology import Endpoint
from .scenario import (ReplicaWorld, check_fault_point, drive_async, lfd, replica_names,
                       summarize, workload)

__all__ = ["ReplicaProcConfig", "run_replica_proc"]

#: Client recovery: one reconnect cycle spans roughly the detection
#: window, so the second cycle sees the promoted backup.
RECONNECT_ATTEMPTS = 4


@dataclass(frozen=True)
class ReplicaProcConfig:
    """Shape of one replicated real-process deployment."""

    n_replicas: int = 2
    n_clients: int = 2
    ops_per_client: int = 30
    #: Closed-loop gap between ops: spreads the workload over several
    #: heartbeat periods instead of a microsecond-scale burst.
    op_gap_ns: int = 10_000_000
    host: str = "127.0.0.1"
    # Failure detection (wall clock: this backend is reality).
    hb_period_ns: int = 80_000_000
    hb_timeout_ns: int = 40_000_000
    suspect_after: int = 2
    reconnect_backoff_s: float = 0.03
    #: Fail-stop the primary right after this many ops complete (None =
    #: no fault; the healthy baseline).
    fail_primary_after_op: Optional[int] = 40
    timeout_s: float = 30.0

    def __post_init__(self):
        check_fault_point(self)


class _ProcWorld(ReplicaWorld):
    """The scenario's world over one event loop and one wall clock."""

    def __init__(self, config: ReplicaProcConfig):
        self.clock = Clock()
        self.now = self.clock.now
        super().__init__(config)
        self.endpoints: dict[str, Endpoint] = {}

    def sleep(self, ns: int):
        return asyncio.sleep(ns / 1e9)

    async def wait(self, handle, timeout_ns: int) -> bool:
        # Not wait_for: on Python 3.11 it drops a cancel that lands with the
        # answer, and an LFD that keeps probing hangs the run's shutdown.
        done, _ = await asyncio.wait((handle.event,), timeout=timeout_ns / 1e9)
        if done:
            handle.event.result()  # a failed probe raises, as a miss
        return bool(done)

    async def fail_stop(self, name: str) -> None:
        """Fail-stop replica ``name``: mark it dead in the group (silence
        from now on), then close its listener so live connections break."""
        self.group.fail_stop(name)
        await self.servers[name].stop()

    def failover_fn(self, _client) -> Optional[Endpoint]:
        """Re-home target for a broken client connection: the current
        view's primary, unless it is known dead in the group."""
        primary = self.membership.view.primary
        return self.endpoints[primary] if self.group.replicas[primary].alive else None


async def _run(config: ReplicaProcConfig) -> dict:
    world = _ProcWorld(config)
    names = replica_names(config)
    tasks: list[asyncio.Future] = []
    try:
        for name in names:
            server = ProcRpcServer(
                Endpoint(config.host, 0),
                world.group.handler_for(name),
                clock=world.clock,
            )
            world.endpoints[name] = await server.start()
            world.servers[name] = server
        for i in range(config.n_clients):
            client = ProcRpcClient(
                world.endpoints[names[0]],
                client_id=i + 1,
                clock=world.clock,
                max_attempts=RECONNECT_ATTEMPTS,
                backoff_s=config.reconnect_backoff_s,
            )
            client.failover_fn = world.failover_fn
            await client.connect()
            world.clients.append(client)
        for name in names:
            probe = ProcRpcClient(
                world.endpoints[name],
                client_id=900 + len(world.probes),
                clock=world.clock,
                max_attempts=2,
                backoff_s=config.reconnect_backoff_s,
            )
            await probe.connect()
            world.probes.append(probe)
            tasks.append(asyncio.ensure_future(drive_async(lfd(world, name, probe))))
        work = asyncio.gather(*(drive_async(workload(world, client, config.ops_per_client))
                                for client in world.clients))
        # The workload's end cancels the failure detectors, so this wait
        # returns when the workload is done or as soon as any task fails.
        work.add_done_callback(lambda _: [task.cancel() for task in tasks])
        tasks.append(work)
        await asyncio.wait(tasks, return_when=asyncio.FIRST_EXCEPTION)
    finally:
        for task in tasks:
            task.cancel()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        world.close()
        for client in world.clients + world.probes:
            await client.close()
        for server in world.servers.values():
            await server.stop()
        # A failure detector's error (say a promotion's ProtocolError) is
        # the run's failure, not the workload error or timeout it caused.
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
    return summarize(world, backend="proc")


def run_replica_proc(config: ReplicaProcConfig) -> dict:
    """Build, run, and summarize one replicated real-process run."""

    async def bounded() -> dict:
        return await asyncio.wait_for(_run(config), timeout=config.timeout_s)

    return asyncio.run(bounded())
