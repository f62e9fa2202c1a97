"""The data path of the Octopus-like DFS.

Octopus abstracts a *distributed shared persistent memory pool*: data
servers register large extents of (persistent) memory, and clients move
file data with one-sided RDMA reads and writes — no data-server CPU on
the I/O path.  The MDS owns the layout: it allocates extents to files and
hands clients ``(data server, remote address, length)`` tuples.

This module provides the :class:`DataServer` (the registered pool), the
MDS-side :class:`ExtentAllocator`, and the client-side :class:`DataPath`
that turns ``write_file``/``read_file`` into one-sided verbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..rdma import Access, Node, Transport, create_qp_pair
from ..rdma.verbs import post_read, post_write

__all__ = ["Extent", "DataServer", "ExtentAllocator", "DataPath", "DEFAULT_EXTENT_BYTES"]

DEFAULT_EXTENT_BYTES = 1 << 20  # 1 MB extents


@dataclass(frozen=True)
class Extent:
    """One allocated run of a file's data on one data server."""

    server_index: int
    addr: int
    length: int


class DataServer:
    """One data server: a registered slab of the shared memory pool."""

    def __init__(self, node: Node, pool_bytes: int = 256 << 20,
                 extent_bytes: int = DEFAULT_EXTENT_BYTES):
        if extent_bytes < 4096:
            raise ValueError("extents must be at least a page")
        self.node = node
        self.extent_bytes = extent_bytes
        self.region = node.register_memory(pool_bytes, access=Access.all_remote())
        self.capacity_extents = pool_bytes // extent_bytes
        self._next_extent = 0
        self._free_list: list[int] = []

    @property
    def free_extents(self) -> int:
        return self.capacity_extents - self._next_extent + len(self._free_list)

    def allocate_extent(self) -> int:
        """Reserve one extent; returns its base address."""
        if self._free_list:
            return self._free_list.pop()
        if self._next_extent >= self.capacity_extents:
            raise MemoryError(f"data server {self.node.name} pool exhausted")
        addr = self.region.range.base + self._next_extent * self.extent_bytes
        self._next_extent += 1
        return addr

    def free_extent(self, addr: int) -> None:
        """Return an extent to the pool (file removal)."""
        offset = addr - self.region.range.base
        if offset % self.extent_bytes or not 0 <= offset < self.capacity_extents * self.extent_bytes:
            raise ValueError(f"not an extent base: {addr:#x}")
        self._free_list.append(addr)


class ExtentAllocator:
    """MDS-side placement: round-robin extents across the data servers."""

    def __init__(self, data_servers: list[DataServer]):
        if not data_servers:
            raise ValueError("need at least one data server")
        self.data_servers = data_servers
        self._cursor = 0

    def free(self, extents) -> None:
        """Return a file's extents to their data servers."""
        for extent in extents:
            self.data_servers[extent.server_index].free_extent(extent.addr)

    def allocate(self, nbytes: int) -> list[Extent]:
        """Allocate extents covering ``nbytes``."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        extents: list[Extent] = []
        remaining = nbytes
        try:
            while remaining > 0:
                index = self._cursor % len(self.data_servers)
                self._cursor += 1
                server = self.data_servers[index]
                addr = server.allocate_extent()
                length = min(server.extent_bytes, remaining)
                extents.append(Extent(index, addr, length))
                remaining -= length
        except MemoryError:
            # A partial allocation must not strand the extents already
            # carved out (flowlint resource-leak [extent]).
            self.free(extents)
            raise
        return extents


class DataPath:
    """Client-side one-sided data I/O: RC QPs to every data server."""

    def __init__(self, machine: Node, data_servers: list[DataServer]):
        self.machine = machine
        self.data_servers = data_servers
        self.qps = []
        for server in data_servers:
            client_qp, _server_qp = create_qp_pair(
                machine, server.node, Transport.RC, client_first=True
            )
            self.qps.append(client_qp)
        self._staging = machine.register_memory(4 << 20)

    def write_extents(self, extents: list[Extent], data) -> Generator:
        """One RDMA write per extent; the data object is chunk-tagged.

        No data-server CPU is involved — the writes land directly in the
        shared pool (``yield from``).
        """
        completions = []
        for index, extent in enumerate(extents):
            wr = post_write(
                self.qps[extent.server_index],
                local_addr=self._staging.range.base,
                remote_addr=extent.addr,
                size=extent.length,
                payload=(data, index),
                signaled=False,
            )
            completions.append(wr)
        for wr in completions:
            yield wr.completion
        return None

    def read_extents(self, extents: list[Extent]) -> Generator:
        """One RDMA read per extent; returns the chunk payloads in order."""
        completions = []
        for extent in extents:
            wr = post_read(
                self.qps[extent.server_index],
                local_addr=self._staging.range.base,
                remote_addr=extent.addr,
                size=extent.length,
                signaled=False,
            )
            completions.append(wr)
        chunks = []
        for wr in completions:
            completion = yield wr.completion
            chunks.append(completion.payload)
        return chunks
