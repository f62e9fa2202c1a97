"""Memory-region registration (``ibv_reg_mr`` equivalent).

A registered region grants the NIC DMA access to a memory range and remote
peers access according to its flags.  The verb layer validates every remote
address against the target node's region table, so protection bugs surface
as :class:`ProtectionError` rather than silent corruption.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..memsys.memory import MemoryRange, RangeIndex

__all__ = ["Access", "MemoryRegion", "MrTable", "ProtectionError"]


class ProtectionError(PermissionError):
    """A verb touched memory outside any suitably-permissioned region."""


class Access(enum.Flag):
    """Region access flags (subset of ibv_access_flags)."""

    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()

    @classmethod
    def all_remote(cls) -> "Access":
        return cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE | cls.REMOTE_ATOMIC


_key_counter = itertools.count(1)


@dataclass(frozen=True)
class MemoryRegion:
    """One registered region with its local and remote keys."""

    range: MemoryRange
    access: Access
    lkey: int = field(default_factory=lambda: next(_key_counter))
    rkey: int = field(default_factory=lambda: next(_key_counter))

    def allows(self, access: Access) -> bool:
        # ``access in self.access`` on the bits: Flag.__contains__ is slow.
        return not access._value_ & ~self.access._value_


class MrTable:
    """Per-node table of registered memory regions."""

    def __init__(self):
        self._by_addr = RangeIndex()
        self._by_rkey: dict[int, MemoryRegion] = {}

    def __len__(self) -> int:
        return len(self._by_rkey)

    def register(self, memory_range: MemoryRange, access: Access) -> MemoryRegion:
        """Register a range; overlapping registrations are allowed (as in
        real verbs), each with distinct keys."""
        region = MemoryRegion(memory_range, access)
        self._by_addr.add(memory_range, region)
        self._by_rkey[region.rkey] = region
        return region

    def deregister(self, region: MemoryRegion) -> None:
        """Remove a region; later verbs on its range will fault."""
        if self._by_rkey.get(region.rkey) != region:
            raise ProtectionError("deregistering unknown region")
        del self._by_rkey[region.rkey]
        self._by_addr.remove(region.range, region)

    def by_rkey(self, rkey: int) -> MemoryRegion:
        region = self._by_rkey.get(rkey)
        if region is None:
            raise ProtectionError(f"unknown rkey {rkey}")
        return region

    def check(self, addr: int, size: int, access: Access) -> MemoryRegion:
        """Find the first-registered region covering ``[addr, addr+size)``
        with ``access``.

        Raises :class:`ProtectionError` when none qualifies.
        """
        for region in self._by_addr.covering(addr, size):
            if region.allows(access):
                return region
        raise ProtectionError(
            f"no region grants {access!r} over [{addr:#x}, {addr + size:#x})"
        )
