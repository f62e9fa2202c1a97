"""The transaction coordinator (client side of ScaleTX).

Runs the paper's Figure-15 protocol: optimistic concurrency control with
two-phase commit, co-using ScaleRPC and one-sided verbs:

1. **Execution** — RPC to every involved participant: read the read- and
   write-set items; the participant locks the write set server-side and
   returns values, versions, and the items' *addresses*.
2. **Validation** — one-sided RDMA reads of the read-set versions (an RPC
   in the ScaleTX-O / baseline variants).  Any changed version aborts.
3. **Log** — RPC appending redo entries at each write primary.
4. **Commit** — a single one-sided RDMA write per item carrying the new
   value and version and zeroing the lock, posted without waiting for
   feedback (an RPC in the RPC-only variants).

Aborts release the execution-phase locks by RPC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Hashable, Optional

from ..core.api import RpcClientApi
from ..rdma.mr import Access
from ..rdma.node import Node
from ..rdma.qp import QueuePair
from ..rdma.verbs import post_read, post_write
from .kv import CommitRecord
from .protocol import (
    OP_ABORT,
    OP_COMMIT,
    OP_EXECUTE,
    OP_LOG,
    OP_VALIDATE,
    AbortRequest,
    CommitRequest,
    ExecuteRequest,
    ItemView,
    LogRequest,
    ValidateRequest,
    next_txn_id,
    request_bytes,
)

__all__ = ["CoordinatorStats", "TxnCoordinator"]

_COMMIT_WRITE_BYTES = 40  # value + version + lock, one contiguous write


@dataclass
class CoordinatorStats:
    """Per-coordinator accounting."""

    committed: int = 0
    aborted_locks: int = 0
    aborted_validation: int = 0

    @property
    def attempts(self) -> int:
        return self.committed + self.aborted_locks + self.aborted_validation

    @property
    def abort_rate(self) -> float:
        total = self.attempts
        return (total - self.committed) / total if total else 0.0


class TxnCoordinator:
    """One coordinator: RPC endpoints plus one-sided QPs to each shard."""

    def __init__(
        self,
        machine: Node,
        rpcs: list[RpcClientApi],
        shard_of: Callable[[Hashable], int],
        one_sided_qps: Optional[list[QueuePair]] = None,
        use_one_sided: bool = True,
    ):
        if use_one_sided and one_sided_qps is None:
            raise ValueError("one-sided mode needs QPs to every shard")
        self.machine = machine
        self.sim = machine.sim
        self.rpcs = rpcs
        self.shard_of = shard_of
        self.qps = one_sided_qps
        self.use_one_sided = use_one_sided
        self.stats = CoordinatorStats()
        # Scratch for one-sided landings/sources.
        self._scratch = machine.register_memory(4096, access=Access.all_remote())
        self._scratch_off = 0
        # Dense per-coordinator transaction index for obs span args: the
        # global txn_id comes from a process-wide counter and would differ
        # between two same-seed runs in one interpreter.
        self._txn_index = 0

    def _scratch_addr(self) -> int:
        addr = self._scratch.range.base + self._scratch_off
        self._scratch_off = (self._scratch_off + 64) % 4096
        return addr

    # -- the protocol -------------------------------------------------------

    def run(
        self,
        read_set: tuple,
        write_set: dict,
        compute: Optional[Callable[[dict], dict]] = None,
    ) -> Generator:
        """Run one transaction; returns True on commit (``yield from``).

        ``read_set`` lists keys only read; ``write_set`` maps keys to the
        new value — or, with ``compute``, values are derived from the
        execution-phase reads: ``compute(values_by_key) -> writes_by_key``.
        """
        txn_id = next_txn_id()
        # Lifecycle spans (repro.obs): one track per coordinator machine,
        # one span per protocol phase (lock -> validate -> log -> commit),
        # an instant per abort.  Zero-cost while no observer is installed.
        obs = self.machine.fabric.obs
        txn_index = self._txn_index
        self._txn_index += 1
        track = f"txn.{self.machine.name}"
        shards: dict[int, tuple[list, list]] = {}
        for key in read_set:
            shards.setdefault(self.shard_of(key), ([], []))[0].append(key)
        for key in write_set:
            shards.setdefault(self.shard_of(key), ([], []))[1].append(key)

        # -- Execution ---------------------------------------------------
        phase_start = self.sim.now
        handles = []
        for shard, (r_keys, w_keys) in shards.items():
            message = ExecuteRequest(txn_id, tuple(r_keys), tuple(w_keys))
            handle = yield from self.rpcs[shard].async_call(
                OP_EXECUTE, payload=message, data_bytes=request_bytes(message)
            )
            handles.append((shard, handle))
        for shard, _h in handles:
            yield from self.rpcs[shard].flush()
        replies = []
        for shard, handle in handles:
            (response,) = yield from self.rpcs[shard].poll_completions([handle])
            replies.append((shard, response.payload))
        locked = {shard: reply.locked for shard, reply in replies if reply.ok}
        if obs is not None:
            obs.span(track, "lock", phase_start, self.sim.now,
                     {"txn": txn_index, "shards": len(shards)})
        if not all(reply.ok for _shard, reply in replies):
            yield from self._abort(txn_id, locked)
            self.stats.aborted_locks += 1
            if obs is not None:
                obs.instant(track, "abort_locks", self.sim.now,
                            {"txn": txn_index})
            return False
        views: dict[Hashable, ItemView] = {}
        for _shard, reply in replies:
            for view in reply.items:
                views[view.key] = view

        # -- Validation ----------------------------------------------------
        if read_set:
            phase_start = self.sim.now
            ok = yield from self._validate(txn_id, read_set, views)
            if obs is not None:
                obs.span(track, "validate", phase_start, self.sim.now,
                         {"txn": txn_index, "reads": len(read_set)})
            if not ok:
                yield from self._abort(txn_id, locked)
                self.stats.aborted_validation += 1
                if obs is not None:
                    obs.instant(track, "abort_validation", self.sim.now,
                                {"txn": txn_index})
                return False

        # -- Log + Commit ---------------------------------------------------
        if write_set:
            values = {key: view.value for key, view in views.items()}
            writes = dict(write_set)
            if compute is not None:
                writes = compute(values)
            phase_start = self.sim.now
            yield from self._log(txn_id, writes)
            if obs is not None:
                obs.span(track, "log", phase_start, self.sim.now,
                         {"txn": txn_index, "writes": len(writes)})
            phase_start = self.sim.now
            yield from self._commit(txn_id, writes, views)
            if obs is not None:
                obs.span(track, "commit", phase_start, self.sim.now,
                         {"txn": txn_index, "writes": len(writes)})
        self.stats.committed += 1
        return True

    def run_with_retries(
        self,
        read_set: tuple,
        write_set: dict,
        compute: Optional[Callable[[dict], dict]] = None,
        max_attempts: int = 3,
        backoff_ns: int = 2_000,
    ) -> Generator:
        """Run a transaction, retrying aborts with linear backoff.

        Returns (committed, attempts); OCC applications typically wrap
        their transactions exactly like this.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        for attempt in range(1, max_attempts + 1):
            committed = yield from self.run(read_set, write_set, compute=compute)
            if committed:
                return True, attempt
            if attempt < max_attempts and backoff_ns > 0:
                yield self.sim.timeout(backoff_ns * attempt)
        return False, max_attempts

    # -- phases ------------------------------------------------------------

    def _validate(self, txn_id: int, read_set: tuple, views: dict) -> Generator:
        """Compare current read-set versions with execution-time ones."""
        if self.use_one_sided:
            completions = []
            for key in read_set:
                view = views[key]
                wr = post_read(
                    self.qps[self.shard_of(key)],
                    local_addr=self._scratch_addr(),
                    remote_addr=view.version_addr,
                    size=8,
                    signaled=False,
                )
                completions.append((key, wr))
            for key, wr in completions:
                completion = yield wr.completion
                if completion.payload != views[key].version:
                    return False
            return True
        by_shard: dict[int, list] = {}
        for key in read_set:
            by_shard.setdefault(self.shard_of(key), []).append(key)
        handles = []
        for shard, keys in by_shard.items():
            message = ValidateRequest(txn_id, tuple(keys))
            handle = yield from self.rpcs[shard].async_call(
                OP_VALIDATE, payload=message, data_bytes=request_bytes(message)
            )
            handles.append((shard, keys, handle))
        for shard, _k, _h in handles:
            yield from self.rpcs[shard].flush()
        for shard, keys, handle in handles:
            (response,) = yield from self.rpcs[shard].poll_completions([handle])
            for key, version in zip(keys, response.payload.versions):
                if version != views[key].version:
                    return False
        return True

    def _log(self, txn_id: int, writes: dict) -> Generator:
        by_shard: dict[int, list] = {}
        for key, value in writes.items():
            by_shard.setdefault(self.shard_of(key), []).append((key, value))
        handles = []
        for shard, entries in by_shard.items():
            message = LogRequest(txn_id, tuple(entries))
            handle = yield from self.rpcs[shard].async_call(
                OP_LOG, payload=message, data_bytes=request_bytes(message)
            )
            handles.append((shard, handle))
        for shard, _h in handles:
            yield from self.rpcs[shard].flush()
        for shard, handle in handles:
            yield from self.rpcs[shard].poll_completions([handle])
        return None

    def _commit(self, txn_id: int, writes: dict, views: dict) -> Generator:
        if self.use_one_sided:
            # One RDMA write per item: value + version, lock zeroed.  No
            # feedback needed (RC is reliable) — the paper's key saving
            # for write-intensive workloads.
            for key, value in writes.items():
                view = views[key]
                post_write(
                    self.qps[self.shard_of(key)],
                    local_addr=self._scratch_addr(),
                    remote_addr=view.value_addr,
                    size=_COMMIT_WRITE_BYTES,
                    payload=CommitRecord(value=value, version=view.version + 1),
                    signaled=False,
                )
            return None
        by_shard: dict[int, list] = {}
        for key, value in writes.items():
            view = views[key]
            by_shard.setdefault(self.shard_of(key), []).append(
                (key, value, view.version + 1)
            )
        handles = []
        for shard, entries in by_shard.items():
            message = CommitRequest(txn_id, tuple(entries))
            handle = yield from self.rpcs[shard].async_call(
                OP_COMMIT, payload=message, data_bytes=request_bytes(message)
            )
            handles.append((shard, handle))
        for shard, _h in handles:
            yield from self.rpcs[shard].flush()
        for shard, handle in handles:
            yield from self.rpcs[shard].poll_completions([handle])
        return None

    def _abort(self, txn_id: int, locked: dict[int, tuple]) -> Generator:
        handles = []
        for shard, keys in locked.items():
            if not keys:
                continue
            message = AbortRequest(txn_id, tuple(keys))
            handle = yield from self.rpcs[shard].async_call(
                OP_ABORT, payload=message, data_bytes=request_bytes(message)
            )
            handles.append((shard, handle))
        for shard, _h in handles:
            yield from self.rpcs[shard].flush()
        for shard, handle in handles:
            yield from self.rpcs[shard].poll_completions([handle])
        return None
