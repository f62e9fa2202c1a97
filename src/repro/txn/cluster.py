"""ScaleTX cluster assembly.

Three participants (as in the paper), each running a KV shard behind a
chosen RPC layer, plus coordinator clients spread over the remaining
machines.  The five compared systems (paper Section 4.2.1):

- ``scaletx``   — ScaleRPC + one-sided validation/commit (the full design),
- ``scaletx-o`` — ScaleRPC with the one-sided optimization disabled,
- ``rawwrite`` / ``herd`` / ``fasst`` — the protocol entirely over the
  corresponding RPC (no one-sided verbs).

ScaleRPC participants are aligned by the NTP-like
:class:`~repro.core.sync.GlobalSynchronizer` with static scheduling, so a
coordinator is in PROCESS state on all shards at once (Section 4.2).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Hashable, Optional

from ..core import GlobalSynchronizer
from ..rdma import Node, Transport
from ..sim import RngRegistry, Simulator
from ..transport import Topology, get as get_transport
from .coordinator import TxnCoordinator
from .participant import Participant

__all__ = ["TXN_SYSTEMS", "TxnClusterConfig", "TxnCluster", "build_txn_cluster", "shard_of_factory"]

TXN_SYSTEMS = ("scaletx", "scaletx-o", "rawwrite", "herd", "fasst")

#: Participant servers, each holding one shard (the paper's three).
N_PARTICIPANTS = 3


def shard_of_factory(n_shards: int):
    """Deterministic key -> shard map; tuple keys shard by their last
    element so an account's tables co-locate (SmallBank)."""

    def shard_of(key: Hashable) -> int:
        anchor = key[-1] if isinstance(key, tuple) else key
        return zlib.crc32(repr(anchor).encode()) % n_shards

    return shard_of


@dataclass
class TxnClusterConfig:
    """One transactional deployment."""

    system: str = "scaletx"
    n_coordinators: int = 80
    # 12-node cluster minus 3 participants: 9 client machines (paper).
    n_client_machines: int = 9
    items_per_shard: int = 1 << 16
    group_size: int = 40
    time_slice_ns: int = 100_000
    recv_buf_bytes: int = 1024  # txn messages are larger than 256 B
    seed: int = 1

    def __post_init__(self):
        if self.system not in TXN_SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; pick from {TXN_SYSTEMS}")
        if self.n_coordinators < 1:
            raise ValueError("need at least one coordinator")


@dataclass
class TxnCluster:
    """A built deployment, ready for a workload driver."""

    config: TxnClusterConfig
    sim: Simulator
    rng: RngRegistry
    participants: list[Participant]
    servers: list
    coordinators: list[TxnCoordinator]
    machines: list[Node]
    shard_of: object
    synchronizer: Optional[GlobalSynchronizer] = None

    @property
    def committed(self) -> int:
        return sum(c.stats.committed for c in self.coordinators)

    @property
    def aborted(self) -> int:
        return sum(
            c.stats.aborted_locks + c.stats.aborted_validation
            for c in self.coordinators
        )


def rpc_transport_name(system: str) -> str:
    """The registry name of the RPC layer under a TXN system.

    Both ScaleTX variants run on ScaleRPC with static scheduling (group
    membership must stay identical across the synchronized participants);
    the baseline systems run the protocol over the same-named transport.
    """
    return "scalerpc-static" if system.startswith("scaletx") else system


def build_txn_cluster(config: TxnClusterConfig) -> TxnCluster:
    """Assemble the simulation: participants, RPC servers, coordinators."""
    topo = Topology.build(
        server_names=tuple(f"p{i}" for i in range(N_PARTICIPANTS)),
        n_client_machines=config.n_client_machines,
        seed=config.seed,
    )
    sim, rng, machines = topo.sim, topo.rng, topo.machines
    shard_of = shard_of_factory(N_PARTICIPANTS)

    spec = get_transport(rpc_transport_name(config.system))
    participants: list[Participant] = []
    servers = []
    uses_scalerpc = config.system.startswith("scaletx")
    for node in topo.server_nodes:
        participant = Participant(node, capacity_items=config.items_per_shard)
        participants.append(participant)
        servers.append(spec.build_server(
            node,
            participant.handler,
            handler_cost_fn=participant.handler_cost_fn,
            response_bytes=participant.response_bytes_fn,
            group_size=config.group_size,
            time_slice_ns=config.time_slice_ns,
            recv_buf_bytes=config.recv_buf_bytes,
        ))

    use_one_sided = config.system == "scaletx"
    coordinators: list[TxnCoordinator] = []
    for _index in range(config.n_coordinators):
        machine = topo.next_machine()
        rpcs = [server.connect(machine) for server in servers]
        for rpc in rpcs:
            rpc.poll_cost_scale = N_PARTICIPANTS
        qps = None
        if use_one_sided:
            qps = []
            for participant in participants:
                coordinator_qp = machine.create_qp(Transport.RC)
                participant_qp = participant.node.create_qp(Transport.RC)
                coordinator_qp.connect(participant_qp)
                qps.append(coordinator_qp)
        coordinators.append(
            TxnCoordinator(
                machine,
                rpcs,
                shard_of,
                one_sided_qps=qps,
                use_one_sided=use_one_sided,
            )
        )

    synchronizer = None
    if uses_scalerpc and len(servers) > 1:
        synchronizer = GlobalSynchronizer(servers)
        synchronizer.start()
    for server in servers:
        server.start()
    return TxnCluster(
        config=config,
        sim=sim,
        rng=rng,
        participants=participants,
        servers=servers,
        coordinators=coordinators,
        machines=machines,
        shard_of=shard_of,
        synchronizer=synchronizer,
    )
