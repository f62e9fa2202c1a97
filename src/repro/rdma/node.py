"""A server node: CPU cores, memory, LLC, PCIe counters, and a NIC.

Nodes also carry the simulation's *object memory*: payloads travel as
Python objects at integer addresses, so message pools and key-value stores
are functionally real while the cache models account for the same bytes.
A watched range's DMA writes go to its watchers and its READ landings reach
the program through the completion, neither to object memory: ``load`` on a
watched range returns only what the program ``store``d there.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from ..memsys.llc import LastLevelCache, LlcParams
from ..memsys.memory import MemoryRange, PhysicalMemory, RangeIndex
from ..memsys.pcie import PcieCounters
from ..sim.engine import Simulator
from ..sim.resources import Resource
from ..sim.rng import RngRegistry
from .fabric import Fabric
from .mr import Access, MemoryRegion, MrTable
from .nic import Nic
from .qp import QueuePair
from .types import NicParams, Transport

__all__ = ["InboundWrite", "Node", "create_qp_pair"]


class InboundWrite(NamedTuple):
    """Notification passed to write watchers when a DMA write lands."""

    addr: int
    size: int
    payload: Any
    imm_data: Optional[int]
    src_qp_num: int
    time_ns: int


class Node:
    """One machine attached to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fabric: Fabric,
        cores: int = 24,
        nic_params: Optional[NicParams] = None,
        llc_params: Optional[LlcParams] = None,
        memory_bytes: int = 128 * 1024 * 1024 * 1024,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.name = name
        self.fabric = fabric
        self.cores = cores
        self.counters = PcieCounters()
        self.llc = LastLevelCache(llc_params, self.counters)
        self.nic = Nic(sim, f"{name}.nic", nic_params, self.llc, self.counters, rng=rng)
        self.memory = PhysicalMemory(memory_bytes)
        self.mr_table = MrTable()
        self.cpu = Resource(sim, capacity=cores, name=f"{name}.cpu")
        self.qps: list[QueuePair] = []
        #: Address -> stored object; public so a bulk loader can fill it.
        self.object_memory: dict[int, Any] = {}
        self._write_watchers: list[tuple[MemoryRange, Callable[[InboundWrite], None]]] = []
        #: Positions in ``_write_watchers`` by watched range; the list stays
        #: the source of truth so an entry can be swapped in place.
        self._watchers_by_addr = RangeIndex()
        fabric.attach(self)

    def __repr__(self) -> str:
        return f"<Node {self.name}>"

    # -- memory ------------------------------------------------------------

    def register_memory(
        self,
        size: int,
        access: Optional[Access] = None,
        huge_pages: bool = True,
    ) -> MemoryRegion:
        """Allocate and register a fresh region (mmap + ibv_reg_mr)."""
        if access is None:
            access = Access.all_remote()
        if huge_pages:
            memory_range = self.memory.allocate_huge_pages(size)
        else:
            memory_range = self.memory.allocate(size)
        return self.mr_table.register(memory_range, access)

    def store(self, addr: int, value: Any) -> None:
        """Write ``value`` into object memory at ``addr``."""
        self.object_memory[addr] = value

    def load(self, addr: int, default: Any = None) -> Any:
        """Read the object stored at ``addr`` (``default`` when unset)."""
        return self.object_memory.get(addr, default)

    # -- queue pairs ---------------------------------------------------------

    def create_qp(self, transport: Transport, **kwargs) -> QueuePair:
        """Create a queue pair on this node."""
        qp = QueuePair(self, transport, **kwargs)
        self.qps.append(qp)
        return qp

    # -- inbound write delivery ----------------------------------------------

    def watch_writes(
        self, memory_range: MemoryRange, callback: Callable[[InboundWrite], None]
    ) -> None:
        """Invoke ``callback`` whenever a DMA write lands in ``memory_range``.

        This is the simulation's stand-in for the application's polling loop
        discovering a new message; the *cost* of discovery (LLC access to
        the written lines) is still charged by the reader.  The write
        belongs to its watchers: ``load`` on a watched range returns only
        what the program ``store``d there.
        """
        self._watchers_by_addr.add(memory_range, len(self._write_watchers))
        self._write_watchers.append((memory_range, callback))

    def deliver_write(self, event: InboundWrite) -> None:
        """Hand the write to the watchers covering its address, or store the
        payload when none does (called by the verb layer)."""
        positions = self._watchers_by_addr.covering(event.addr)
        if positions:
            watchers = self._write_watchers
            for position in positions:
                watchers[position][1](event)
        elif event.payload is not None:
            self.object_memory[event.addr] = event.payload

    def land_read(self, addr: int, payload: Any) -> None:
        """Store a READ's payload at ``addr`` unless a watched range covers
        it; there the completion alone carries it (called by the verb layer)."""
        if not self._watchers_by_addr.covering(addr):
            self.object_memory[addr] = payload


def create_qp_pair(
    client_node: Node,
    server_node: Node,
    transport: Transport,
    *,
    client_first: bool = False,
    **server_kwargs,
) -> "tuple[QueuePair, QueuePair]":
    """Create and connect a ``(client_qp, server_qp)`` endpoint pair.

    Exception-safe: if the second QP creation or the connect fails, every
    QP created so far is closed before the exception propagates, so the
    NIC's QPC budget is never charged for a half-built pair
    (flowlint ``resource-leak [qp]`` enforces this shape at call sites).

    ``client_first`` picks which endpoint is created first: QP numbers
    come from a global counter, so call sites converted from open-coded
    setup keep their original allocation order (and therefore identical
    simulation traces).
    """
    if client_first:
        client_qp = client_node.create_qp(transport)
        try:
            server_qp = server_node.create_qp(transport, **server_kwargs)
            try:
                client_qp.connect(server_qp)
            except BaseException:
                server_qp.close()
                raise
        except BaseException:
            client_qp.close()
            raise
    else:
        server_qp = server_node.create_qp(transport, **server_kwargs)
        try:
            client_qp = client_node.create_qp(transport)
            try:
                client_qp.connect(server_qp)
            except BaseException:
                client_qp.close()
                raise
        except BaseException:
            server_qp.close()
            raise
    return client_qp, server_qp
