"""Transaction participant: a storage server with one KV shard.

Handles the RPC phases of the ScaleTX protocol (paper Section 4.2):
execution (read + server-side locking), logging, RPC-mode validation and
commit (for the ScaleTX-O comparison), and abort.  One-sided validation
reads and commit writes bypass this module entirely — that is the point
of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.message import RpcRequest
from ..rdma.node import Node
from .kv import KvStore
from .protocol import (
    OP_ABORT,
    OP_COMMIT,
    OP_EXECUTE,
    OP_LOG,
    OP_VALIDATE,
    AbortRequest,
    CommitRequest,
    ExecuteReply,
    ExecuteRequest,
    ItemView,
    LogReply,
    LogRequest,
    ValidateReply,
    ValidateRequest,
    reply_bytes,
)

__all__ = ["ParticipantCosts", "Participant"]


@dataclass
class ParticipantCosts:
    """Server CPU per phase (handler ns beyond the RPC base)."""

    execute_base_ns: int = 300
    execute_per_key_ns: int = 120
    validate_base_ns: int = 150
    validate_per_key_ns: int = 60
    log_base_ns: int = 350
    log_per_write_ns: int = 80
    commit_base_ns: int = 250
    commit_per_write_ns: int = 120
    abort_base_ns: int = 150
    abort_per_key_ns: int = 60


class Participant:
    """One storage server; bind its ``handler``/``handler_cost_fn``/
    ``response_bytes_fn`` to any RPC server."""

    def __init__(self, node: Node, costs: ParticipantCosts | None = None, **kv_kwargs):
        self.node = node
        self.store = KvStore(node, **kv_kwargs)
        self.costs = costs or ParticipantCosts()
        #: ScaleTX-O commits served over RPC (one-sided commits bypass this).
        self.rpc_commits = 0

    # -- phase handlers -----------------------------------------------------

    def handler(self, request: RpcRequest) -> Any:
        message = request.payload
        if request.rpc_type == OP_EXECUTE:
            return self._execute(message)
        if request.rpc_type == OP_VALIDATE:
            return self._validate(message)
        if request.rpc_type == OP_LOG:
            return self._log(message)
        if request.rpc_type == OP_COMMIT:
            return self._commit(message)
        if request.rpc_type == OP_ABORT:
            return self._abort(message)
        raise ValueError(f"unknown txn op {request.rpc_type!r}")

    def _execute(self, message: ExecuteRequest) -> ExecuteReply:
        """Read R and W; lock W.  All-or-nothing on the locks."""
        locked: list = []
        for key in message.write_keys:
            ref = self.store.lookup(key)
            if ref is None or not self.store.try_lock(ref, message.txn_id):
                for got in locked:
                    self.store.unlock(self.store.lookup(got), message.txn_id)
                return ExecuteReply(ok=False)
            locked.append(key)
        items = []
        for key in tuple(message.read_keys) + tuple(message.write_keys):
            ref = self.store.lookup(key)
            if ref is None:
                for got in locked:
                    self.store.unlock(self.store.lookup(got), message.txn_id)
                return ExecuteReply(ok=False)
            value, version = self.store.read(ref)
            items.append(
                ItemView(
                    key=key,
                    value=value,
                    version=version,
                    value_addr=ref.value_addr,
                    version_addr=ref.version_addr,
                )
            )
        return ExecuteReply(ok=True, items=tuple(items), locked=tuple(locked))

    def _validate(self, message: ValidateRequest) -> ValidateReply:
        versions = []
        for key in message.keys:
            ref = self.store.lookup(key)
            versions.append(self.store.version(ref) if ref else -1)
        return ValidateReply(versions=tuple(versions))

    def _log(self, message: LogRequest) -> LogReply:
        return LogReply(ok=True)

    def _commit(self, message: CommitRequest) -> LogReply:
        """ScaleTX-O: apply the writes and release the locks via RPC."""
        for key, value, version in message.writes:
            ref = self.store.lookup(key)
            if ref is not None:
                self.store.apply_commit(ref, value, version)
        self.rpc_commits += 1
        return LogReply(ok=True)

    def _abort(self, message: AbortRequest) -> LogReply:
        for key in message.keys:
            ref = self.store.lookup(key)
            if ref is not None:
                self.store.unlock(ref, message.txn_id)
        return LogReply(ok=True)

    # -- RPC-layer cost/size hooks ----------------------------------------------

    def handler_cost_fn(self, request: RpcRequest) -> int:
        message = request.payload
        costs = self.costs
        if isinstance(message, ExecuteRequest):
            keys = len(message.read_keys) + len(message.write_keys)
            return costs.execute_base_ns + costs.execute_per_key_ns * keys
        if isinstance(message, ValidateRequest):
            return costs.validate_base_ns + costs.validate_per_key_ns * len(message.keys)
        if isinstance(message, LogRequest):
            return costs.log_base_ns + costs.log_per_write_ns * len(message.writes)
        if isinstance(message, CommitRequest):
            return costs.commit_base_ns + costs.commit_per_write_ns * len(message.writes)
        if isinstance(message, AbortRequest):
            return costs.abort_base_ns + costs.abort_per_key_ns * len(message.keys)
        return 0

    @staticmethod
    def response_bytes_fn(request: RpcRequest, result) -> int:
        return reply_bytes(result)
