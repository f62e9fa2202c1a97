"""RDMA transport types, verb opcodes, and the Table-1 capability matrix.

The paper's Table 1 defines which verbs each transport supports and the
maximum transmission unit:

====  =========  ==========  ============  =====
mode  send/recv  write/imm   read/atomic   MTU
====  =========  ==========  ============  =====
RC    yes        yes         yes           2 GB
UC    yes        yes         no            2 GB
UD    yes        no          no            4 KB
====  =========  ==========  ============  =====

:class:`NicParams` collects the calibrated timing/capacity constants of the
NIC model (see DESIGN.md section 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Transport",
    "Opcode",
    "NicParams",
    "supports",
    "max_message_size",
    "CAPABILITIES",
]

KIB = 1024
GIB = 1024 * 1024 * 1024


class Transport(enum.Enum):
    """RDMA transport mode."""

    RC = "RC"  # Reliable Connection
    UC = "UC"  # Unreliable Connection
    UD = "UD"  # Unreliable Datagram

    __hash__ = object.__hash__  # Enum's hashes the name in Python: slow per verb

    @property
    def is_connected(self) -> bool:
        """RC and UC require a connection (one QP per peer)."""
        return self._value_ != "UD"  # not ``Transport.UD``: a slow class lookup

    @property
    def is_reliable(self) -> bool:
        return self._value_ == "RC"


class Opcode(enum.Enum):
    """Verb opcodes (the atomic opcode covers CAS and fetch-and-add)."""

    SEND = "send"
    RECV = "recv"
    WRITE = "write"
    WRITE_IMM = "write_imm"
    READ = "read"
    ATOMIC = "atomic"
    __hash__ = object.__hash__  # as Transport's: members compare by identity


# Table 1 of the paper: verb support per transport.
CAPABILITIES: dict[Transport, frozenset[Opcode]] = {
    Transport.RC: frozenset(
        {Opcode.SEND, Opcode.RECV, Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ, Opcode.ATOMIC}
    ),
    Transport.UC: frozenset(
        {Opcode.SEND, Opcode.RECV, Opcode.WRITE, Opcode.WRITE_IMM}
    ),
    Transport.UD: frozenset({Opcode.SEND, Opcode.RECV}),
}

# Table 1 of the paper: MTU per transport.
_MAX_MESSAGE: dict[Transport, int] = {
    Transport.RC: 2 * GIB,
    Transport.UC: 2 * GIB,
    Transport.UD: 4 * KIB,
}


def supports(transport: Transport, opcode: Opcode) -> bool:
    """True when ``transport`` supports ``opcode`` (paper Table 1)."""
    return opcode in CAPABILITIES[transport]


def max_message_size(transport: Transport) -> int:
    """Largest message the transport can carry in one verb (paper Table 1)."""
    return _MAX_MESSAGE[transport]


@dataclass
class NicParams:
    """Calibrated NIC model constants (DESIGN.md section 4).

    - ``tx_base_ns`` / ``rx_base_ns``: per-verb pipeline occupancy, setting
      the ~20 Mops outbound and ~40 Mops inbound ceilings of Figure 1(b).
    - ``conn_cache_entries``: how many connections' QP-context + WQE state
      fit in the NIC SRAM.  Beyond this, outbound verbs start missing.
    - ``conn_miss_penalty_ns``: extra pipeline occupancy to refetch evicted
      QP state over PCIe.
    - ``conn_miss_fetch_lines``: PCIeRdCur events per refetch (QP context +
      WQE descriptors) — the read amplification visible in Figure 3(a).
    - ``ddio_alloc_penalty_ns``: extra inbound occupancy per cacheline that
      had to take the DDIO Write Allocate path.
    - ``mmio_doorbell_ns``: CPU-side cost of ringing the doorbell.
    """

    tx_base_ns: int = 45
    rx_base_ns: int = 25
    # QP-context cache: larger, holds connection state.
    conn_cache_entries: int = 128
    conn_cache_policy: str = "random"  # hardware tables are not strict LRU
    conn_miss_penalty_ns: int = 500
    conn_miss_fetch_lines: int = 2
    # WQE/doorbell state cache: smaller; its pressure tracks the number of
    # connections with in-flight sends, so outbound degradation starts
    # just above ~48 concurrent connections (paper Figure 10: PCIeRdCur
    # rises dramatically beyond 40 clients).
    wqe_cache_entries: int = 48
    wqe_miss_penalty_ns: int = 160
    wqe_miss_fetch_lines: int = 2
    ddio_alloc_penalty_ns: int = 120
    # Write-allocate stalls pipeline-overlap within one WQE: at most this
    # many line allocations stall a single DMA landing (bulk transfers
    # stream; per-message pools with 1-line messages are unaffected).
    ddio_alloc_stall_cap: int = 4
    # Egress serialization: the NIC's link runs at 7 B/ns (56 Gbps); a
    # message occupies the pipeline for size/bandwidth on top of the base
    # processing time.  This is what bounds bulk-transfer throughput.
    link_bytes_per_ns: float = 7.0
    mmio_doorbell_ns: int = 100

    def __post_init__(self):
        for name in (
            "tx_base_ns",
            "rx_base_ns",
            "conn_cache_entries",
            "conn_miss_penalty_ns",
            "conn_miss_fetch_lines",
            "wqe_cache_entries",
            "wqe_miss_penalty_ns",
            "wqe_miss_fetch_lines",
            "ddio_alloc_penalty_ns",
            "mmio_doorbell_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.conn_cache_entries < 1 or self.wqe_cache_entries < 1:
            raise ValueError("cache entry counts must be >= 1")
        if self.link_bytes_per_ns <= 0:
            raise ValueError("link_bytes_per_ns must be positive")
        if self.ddio_alloc_stall_cap < 1:
            raise ValueError("ddio_alloc_stall_cap must be >= 1")
        if self.conn_cache_policy not in ("lru", "random"):
            raise ValueError(f"unknown conn_cache_policy {self.conn_cache_policy!r}")
