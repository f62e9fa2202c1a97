"""MICA-style in-memory key-value store shard.

Each participant owns one shard: a hash index over fixed-size item
slots carved from an RDMA-registered region.  Every item carries a
co-located *version* and *lock* word (paper Section 4.2), laid out so that
remote one-sided verbs can operate on them directly:

====  ==========  ==========================================
off   field       remote access
====  ==========  ==========================================
0     value       commit: RDMA write
8     version     validation: RDMA read
16    lock        commit: zeroed by the same RDMA write
====  ==========  ==========================================

Because value/version/lock are contiguous, ScaleTX commits an item with a
*single* RDMA write covering all three fields — the paper's "updates the
primary key-value items in W by directly using RDMA writes; meanwhile,
the lock field is released by zeroing".

The item state lives in the node's object memory (the same cells the
verbs read and write), so one-sided operations and local handler code see
one consistent store.  A loaded table is *reserved*: an item is built on
its first lookup, at the slot a per-key insert would give it, so a run
pays only for the items it touches (remote verbs address looked-up items).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, NamedTuple, Optional

from ..rdma.mr import Access, MemoryRegion
from ..rdma.node import InboundWrite, Node

__all__ = ["ItemRef", "CommitRecord", "KvStore", "KvError"]

ITEM_SLOT_BYTES = 64  # one cacheline per item, MICA-style
VALUE_OFF = 0
VERSION_OFF = 8
LOCK_OFF = 16


class KvError(Exception):
    """Shard-level error (full shard, unknown key, ...)."""


class ItemRef(NamedTuple):
    """Location of one item; everything a remote coordinator needs.

    A value built on each lookup: the shard's index holds only the base
    address (an int), so a loaded shard keeps no per-item object for the
    cyclic GC to track (a ``NamedTuple`` subclass is tracked for life).
    """

    key: Hashable
    base_addr: int

    @property
    def value_addr(self) -> int:
        return self.base_addr + VALUE_OFF

    @property
    def version_addr(self) -> int:
        return self.base_addr + VERSION_OFF

    @property
    def lock_addr(self) -> int:
        return self.base_addr + LOCK_OFF


@dataclass(frozen=True)
class CommitRecord:
    """Payload of a one-sided commit write: value + version, lock zeroed."""

    value: Any
    version: int


class KvStore:
    """One shard."""

    def __init__(self, node: Node, capacity_items: int = 1 << 16):
        if capacity_items < 1:
            raise KvError("capacity must be positive")
        self.node = node
        self.capacity_items = capacity_items
        self.region: MemoryRegion = node.register_memory(
            capacity_items * ITEM_SLOT_BYTES, access=Access.all_remote()
        )
        # Built items: key -> item base address.
        self._index: dict[Hashable, int] = {}
        self._n_items = 0
        # Reserved items (:meth:`reserve`): key -> slot, key -> first value.
        self._locate = self._initial = lambda key: None
        node.watch_writes(self.region.range, self._on_remote_write)
        # Stats.
        self.remote_commits = 0

    def __len__(self) -> int:
        return self._n_items

    # -- index ---------------------------------------------------------------

    def reserve(self, count: int, locate: Callable, initial: Callable) -> None:
        """Load slots ``[0, count)`` of an empty shard, ``locate`` mapping a
        reserved key to its slot (None for any other key); the first
        :meth:`lookup` builds an item: ``initial(key)``, version 1, unlocked."""
        if self._n_items:
            raise KvError("reserve needs an empty shard")
        if count > self.capacity_items:
            raise KvError(f"reserve needs {count} slots; the shard has {self.capacity_items}")
        self._n_items = count
        self._locate, self._initial = locate, initial

    def lookup(self, key: Hashable) -> Optional[ItemRef]:
        """Find a key's item reference (None when absent)."""
        base = self._index.get(key)
        if base is None:
            slot = self._locate(key)
            if slot is None:
                return None
            base = self._build(key, slot, self._initial(key))
        return ItemRef(key, base)

    def insert(self, key: Hashable, value: Any) -> ItemRef:
        """Insert a fresh key (version 1, unlocked)."""
        if key in self._index or self._locate(key) is not None:
            raise KvError(f"duplicate key {key!r}")
        n_items = self._n_items
        if n_items >= self.capacity_items:
            raise KvError("shard full")
        self._n_items = n_items + 1
        return ItemRef(key, self._build(key, n_items, value))

    def _build(self, key: Hashable, slot: int, value: Any) -> int:
        """Index an item and write its three cells; returns its base."""
        base = self.region.range.base + slot * ITEM_SLOT_BYTES
        self._index[key] = base
        store = self.node.store
        store(base + VALUE_OFF, value)
        store(base + VERSION_OFF, 1)
        store(base + LOCK_OFF, 0)
        return base

    # -- local (handler-side) accessors --------------------------------------

    def read(self, ref: ItemRef) -> tuple[Any, int]:
        """(value, version) of an item."""
        return self.node.load(ref.value_addr), self.node.load(ref.version_addr, 0)

    def version(self, ref: ItemRef) -> int:
        return self.node.load(ref.version_addr, 0)

    def lock_owner(self, ref: ItemRef) -> int:
        return self.node.load(ref.lock_addr, 0)

    def try_lock(self, ref: ItemRef, txn_id: int) -> bool:
        """Server-side lock acquisition during the execution phase."""
        if txn_id == 0:
            raise KvError("txn_id 0 is the unlocked sentinel")
        owner = self.node.load(ref.lock_addr, 0)
        if owner == txn_id:
            return True  # re-entrant within one transaction
        if owner != 0:
            return False
        self.node.store(ref.lock_addr, txn_id)
        return True

    def unlock(self, ref: ItemRef, txn_id: int) -> bool:
        """Release a lock held by ``txn_id``."""
        if self.node.load(ref.lock_addr, 0) != txn_id:
            return False
        self.node.store(ref.lock_addr, 0)
        return True

    def apply_commit(self, ref: ItemRef, value: Any, version: int) -> None:
        """Local commit application (the RPC-only ScaleTX-O path)."""
        self.node.store(ref.value_addr, value)
        self.node.store(ref.version_addr, version)
        self.node.store(ref.lock_addr, 0)

    # -- one-sided commit delivery ---------------------------------------------

    def _on_remote_write(self, event: InboundWrite) -> None:
        """Scatter a one-sided :class:`CommitRecord` into the item fields.

        This is memory semantics, not CPU work: the NIC's DMA write covers
        value, version, and lock in one go; no handler runs.
        """
        record = event.payload
        if not isinstance(record, CommitRecord):
            return
        base = event.addr - VALUE_OFF
        self.node.store(base + VALUE_OFF, record.value)
        self.node.store(base + VERSION_OFF, record.version)
        self.node.store(base + LOCK_OFF, 0)
        self.remote_commits += 1
