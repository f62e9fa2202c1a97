"""Replicated servers, membership, and client failover (DESIGN.md §15).

The subsystem the fault plane (PR 5) stops short of: what survives when
a server does *not* come back.  Three layers, all running on both
backends through the :mod:`repro.core.interface` seam:

- **replication** (:mod:`.group`, :mod:`.log`, :mod:`.statemachine`) —
  primary-backup state-machine replication of the MDS namespace and TXN
  KV shard, log-shipped updates, commits gated on backup durability,
  deterministic replay asserted on promotion;
- **membership** (:mod:`.membership`, :mod:`.protocol`) — per-node LFD
  heartbeats over the real RPC stacks aggregated by a GFD into
  epoch-numbered views, with client subscriptions pushing primary-change
  notices;
- **failover** (runners + ``ScaleRpcClient.failover_to`` /
  ``ProcRpcClient``) — on a primary-death notice or rpc-timeout
  watchdog escalation, clients re-home to the promoted backup and
  repost in-flight requests; the replica log dedups on
  ``(client_id, req_id)`` for exactly-once visible semantics.

The deployment itself — workload, LFDs, view callback, exactly-once
witness, run summary — is written once in :mod:`.scenario` as
generators over the client API; :mod:`.simrunner` runs it as sim
processes and :mod:`.procrunner` as asyncio tasks over real sockets.
"""

from .group import GroupStats, HEARTBEAT_RPC, OP_RPC, Replica, ReplicaGroup
from .log import LogEntry, MISSING, PendingAppend, ReplicaLog, ReplicaLogError
from .membership import MembershipService, View, ViewSubscription
from .protocol import (
    REPLICA_TRANSITIONS,
    ReplicaEvent,
    ReplicaRole,
    fence_admits,
    fresh_view,
    is_legal_replica_transition,
    replica_transition,
)
from .statemachine import (
    KvStateMachine,
    MdsStateMachine,
    ReplicatedStateMachine,
    StateMachineError,
)
from .simrunner import (
    ReplicaSimConfig,
    ReplicaSimWorld,
    build_replica_world,
    run_replica_sim,
)
from .procrunner import ReplicaProcConfig, run_replica_proc

__all__ = [
    "GroupStats",
    "HEARTBEAT_RPC",
    "OP_RPC",
    "Replica",
    "ReplicaGroup",
    "LogEntry",
    "MISSING",
    "PendingAppend",
    "ReplicaLog",
    "ReplicaLogError",
    "MembershipService",
    "View",
    "ViewSubscription",
    "REPLICA_TRANSITIONS",
    "ReplicaEvent",
    "ReplicaRole",
    "fence_admits",
    "fresh_view",
    "is_legal_replica_transition",
    "replica_transition",
    "KvStateMachine",
    "MdsStateMachine",
    "ReplicatedStateMachine",
    "StateMachineError",
    "ReplicaSimConfig",
    "ReplicaSimWorld",
    "build_replica_world",
    "run_replica_sim",
    "ReplicaProcConfig",
    "run_replica_proc",
]
