"""The NIC model.

The NIC is a single processing pipeline (a :class:`~repro.sim.Resource`)
plus an exact-LRU *connection-state cache* holding QP contexts and WQE
state for connected transports.  The model captures the two asymmetries the
paper measures:

- **Outbound verbs** on RC/UC must have the QP's state resident; a miss
  stalls the pipeline for a PCIe refetch (``conn_miss_penalty_ns``) and
  emits PCIeRdCur events — the Figure 3(a) read amplification.  Beyond
  ``conn_cache_entries`` concurrently-active connections the cache thrashes
  and outbound throughput collapses (Figure 1(b): 20 → 2 Mops).
- **Inbound verbs** only deposit payloads via DMA and "do not modify the
  cached states" (paper §2.3), so they never touch the connection cache;
  their cost instead depends on the DDIO behaviour of the target lines.

RC acknowledgement generation/processing is folded into the base service
times (hardware handles ACKs off the fast path); ACKs still contribute
wire latency to completion timing in the verb layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..memsys.cache import LruCache
from ..memsys.llc import LastLevelCache
from ..memsys.pcie import PcieCounters
from ..sim.engine import Simulator
from ..sim.resources import Resource
from ..sim.rng import RngRegistry
from .types import NicParams

__all__ = ["Nic", "NicStats"]


@dataclass
class NicStats:
    """Operation counts for one NIC."""

    tx_ops: int = 0
    rx_ops: int = 0
    conn_hits: int = 0  # QP-context cache
    conn_misses: int = 0
    wqe_hits: int = 0  # WQE/doorbell state cache
    wqe_misses: int = 0

    @property
    def conn_miss_rate(self) -> float:
        total = self.conn_hits + self.conn_misses
        return self.conn_misses / total if total else 0.0

    @property
    def wqe_miss_rate(self) -> float:
        total = self.wqe_hits + self.wqe_misses
        return self.wqe_misses / total if total else 0.0


class Nic:
    """One host channel adapter."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: Optional[NicParams] = None,
        llc: Optional[LastLevelCache] = None,
        counters: Optional[PcieCounters] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.name = name
        self.params = params or NicParams()
        self.counters = counters or PcieCounters()
        self.llc = llc or LastLevelCache(counters=self.counters)
        self.pipeline = Resource(sim, capacity=1, name=f"{name}.pipeline")
        # Replacement-victim streams come from the registry, keyed by NIC
        # name, so unrelated NICs draw independently and adding one never
        # perturbs another's eviction sequence.
        rng = rng or RngRegistry(0)
        self.conn_cache = LruCache(
            self.params.conn_cache_entries,
            name=f"{name}.qpc",
            policy=self.params.conn_cache_policy,
            rng=rng.stream(f"nic.{name}.qpc"),
        )
        self.wqe_cache = LruCache(
            self.params.wqe_cache_entries,
            name=f"{name}.wqe",
            policy=self.params.conn_cache_policy,
            rng=rng.stream(f"nic.{name}.wqe"),
        )
        self.stats = NicStats()

    # -- connection-state handling ---------------------------------------

    def _touch_connection(self, key: Hashable) -> int:
        """Access both connection-state caches; return extra service ns."""
        penalty = 0
        if self.conn_cache.access(key):
            self.stats.conn_hits += 1
        else:
            self.stats.conn_misses += 1
            self.counters.pcie_rd_cur += self.params.conn_miss_fetch_lines
            penalty += self.params.conn_miss_penalty_ns
        if self.wqe_cache.access(key):
            self.stats.wqe_hits += 1
        else:
            self.stats.wqe_misses += 1
            self.counters.pcie_rd_cur += self.params.wqe_miss_fetch_lines
            penalty += self.params.wqe_miss_penalty_ns
        return penalty

    def prefetch_connection(self, key: Hashable) -> None:
        """Load a connection's QP state into the cache off the fast path.

        Models a background state fetch the host schedules ahead of time
        (ScaleRPC's warmup phase touches the next group's QPs before their
        slice begins), so later verbs on the connection do not stall the
        pipeline for a refetch.  The PCIe reads still happen and are
        counted; only the pipeline occupancy is avoided.
        """
        if not self.conn_cache.probe(key):
            self.counters.pcie_rd_cur += self.params.conn_miss_fetch_lines
        self.conn_cache.insert(key)

    # -- pipeline stages -------------------------------------------------
    #
    # Each stage is a cost function: it touches the caches and accounts
    # the DMA and the stats when called, and returns the ``pipeline`` hold
    # in ns.  A verb flow holds the pipeline for it from its continuation;
    # a process does ``yield from nic.pipeline.use(hold)``.

    def tx(
        self,
        conn_key: Optional[Hashable],
        payload_addr: Optional[int],
        size: int,
    ) -> tuple[int, int]:
        """Transmit-side processing of one verb.

        ``conn_key`` is the QP identity for connected transports (None for
        UD, which keeps a single QP resident).  ``payload_addr`` triggers
        the DMA read of the outbound payload.

        Returns ``(service_ns, stall_ns)`` — total pipeline hold and the
        connection-cache-miss portion of it — so the verb layer can
        attribute the stall without re-deriving cache state.
        """
        service = self.params.tx_base_ns + int(size / self.params.link_bytes_per_ns)
        stall = 0
        if conn_key is not None:
            stall = self._touch_connection(conn_key)
            service += stall
        if payload_addr is not None and size > 0:
            self.llc.dma_read(payload_addr, size)
        self.stats.tx_ops += 1
        return service, stall

    def rx_write(self, addr: int, size: int) -> int:
        """Receive-side processing of an inbound payload (DMA write).

        Per the paper, this path does not consult the connection cache; its
        cost varies with DDIO write-allocate pressure.
        """
        result = self.llc.dma_write(addr, size)
        stalls = min(result.allocations, self.params.ddio_alloc_stall_cap)
        self.stats.rx_ops += 1
        return self.params.rx_base_ns + stalls * self.params.ddio_alloc_penalty_ns

    def rx_write_scatter(self, segments: list[tuple[int, int]]) -> int:
        """Receive-side processing of a scatter-gather DMA landing: one
        pipeline occupancy covering several (addr, size) segments (e.g. a
        warmup READ depositing each fetched message into its own block)."""
        service = self.params.rx_base_ns
        cap = self.params.ddio_alloc_stall_cap
        for addr, size in segments:
            result = self.llc.dma_write(addr, size)
            service += min(result.allocations, cap) * self.params.ddio_alloc_penalty_ns
        self.stats.rx_ops += 1
        return service

    def rx_control(self) -> int:
        """Receive-side processing of a payload-free packet (e.g. a READ
        request arriving at the target)."""
        self.stats.rx_ops += 1
        return self.params.rx_base_ns

    def serve_read(self, addr: int, size: int) -> int:
        """Target-side service of an RDMA READ: DMA-read the payload,
        occupy the pipeline for base + serialization time, all without
        involving the target CPU."""
        self.llc.dma_read(addr, size)
        self.stats.rx_ops += 1
        return self.params.rx_base_ns + int(size / self.params.link_bytes_per_ns)
