"""Exact LRU cache model.

The NIC's connection-state and WQE caches (``rdma/nic.py``): an exact (not
statistical) least-recently-used cache over hashable keys, with
hit/miss/eviction accounting.  Exactness matters — the paper's scalability
cliffs are produced by real eviction dynamics, and the PCM-style counters we
reproduce in Figures 3 and 10 are derived directly from these hit/miss
events.  The CPU last-level cache keeps its own per-set LRU (``llc.py``).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Hashable, Iterator, Optional

from ..sim.rng import RngRegistry

__all__ = ["LruCache"]


class LruCache:
    """An exact cache of ``capacity`` entries keyed by hashable keys.

    ``access(key)`` models a use of the entry: a hit refreshes recency, a
    miss inserts the key (evicting a victim when full).  Values are
    optional; the model usually only cares about presence.

    ``policy`` selects the victim: ``"lru"`` (default) evicts the
    least-recently-used entry; ``"random"`` evicts a uniformly random one.
    Random replacement matters for the NIC connection cache: hardware
    lookup tables are not strict LRU, and under the closed-loop cyclic
    access pattern of N clients strict LRU would flip from 0% to 100%
    misses at N = capacity, whereas random replacement yields the gradual
    ``1 - capacity/N`` miss curve the paper measures in Figure 1(b).
    """

    def __init__(
        self,
        capacity: int,
        name: str = "",
        policy: str = "lru",
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.capacity = capacity
        self.name = name
        self.policy = policy
        # Victim-selection stream for the random policy.  Callers embedded
        # in a simulation pass their RngRegistry substream; standalone use
        # derives one from (seed, name) so equal configurations still get
        # equal eviction sequences.
        self._rng = rng if rng is not None else RngRegistry(seed).stream(f"lru.{name}")
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        # Random policy keeps an index for O(1) victim selection.
        self._keys: list[Hashable] = []
        self._key_pos: dict[Hashable, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def accesses(self) -> int:
        """Total number of ``access`` calls."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def access(self, key: Hashable, value: object = None) -> bool:
        """Touch ``key``; return True on hit, False on miss (inserting it)."""
        if key in self._entries:
            if self.policy == "lru":
                self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._insert(key, value)
        return False

    def probe(self, key: Hashable) -> bool:
        """Check presence without touching recency or counters."""
        return key in self._entries

    def pop_lru(self) -> Optional[Hashable]:
        """Evict and return the policy's victim key (None if empty)."""
        if not self._entries:
            return None
        if self.policy == "random":
            index = self._rng.randrange(len(self._keys))
            key = self._keys[index]
            self._index_remove(key)
            del self._entries[key]
        else:
            key, _ = self._entries.popitem(last=False)
        self.evictions += 1
        return key

    def _index_remove(self, key: Hashable) -> None:
        index = self._key_pos.pop(key)
        last = self._keys.pop()
        if last is not key:
            self._keys[index] = last
            self._key_pos[last] = index

    def _insert(self, key: Hashable, value: object) -> None:
        if len(self._entries) >= self.capacity:
            self.pop_lru()
        self._entries[key] = value
        if self.policy == "random":
            self._key_pos[key] = len(self._keys)
            self._keys.append(key)

    def insert(self, key: Hashable, value: object = None) -> None:
        """Insert ``key`` as most-recently-used without counting an access."""
        if key in self._entries:
            if self.policy == "lru":
                self._entries.move_to_end(key)
            self._entries[key] = value
        else:
            self._insert(key, value)

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if present; return whether it was present."""
        if key in self._entries:
            del self._entries[key]
            if self.policy == "random":
                self._index_remove(key)
            return True
        return False

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()
        self._keys.clear()
        self._key_pos.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def keys(self) -> Iterator[Hashable]:
        """Iterate keys from least to most recently used."""
        return iter(self._entries)
