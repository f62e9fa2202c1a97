"""Memory-system substrate: LRU caches, LLC+DDIO, memory, PCIe counters."""

from .cache import LruCache
from .counters import CounterMonitor, CounterRates
from .llc import (
    CpuAccessResult,
    DmaWriteResult,
    LastLevelCache,
    LlcParams,
)
from .memory import (
    HUGE_PAGE_SIZE,
    MemoryRange,
    OutOfMemoryError,
    PhysicalMemory,
    RangeIndex,
)
from .pcie import PcieCounters, PcieSnapshot

__all__ = [
    "HUGE_PAGE_SIZE",
    "CounterMonitor",
    "CounterRates",
    "CpuAccessResult",
    "DmaWriteResult",
    "LastLevelCache",
    "LlcParams",
    "LruCache",
    "MemoryRange",
    "OutOfMemoryError",
    "PcieCounters",
    "PcieSnapshot",
    "PhysicalMemory",
    "RangeIndex",
]
