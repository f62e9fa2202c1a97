"""Configuration for ScaleRPC and the shared CPU cost model.

Defaults follow the paper's evaluation setup (Section 3.6.1): 100 us time
slice, group size 40, 4 KB message blocks, and coroutine-style clients that
post batches asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CpuCostModel", "ScaleRpcConfig"]

US = 1_000
MS = 1_000_000
#: Lazy split/merge bounds: [1/2, 3/2] of the default group size (paper
#: Section 3.2).
GROUP_MIN_RATIO = 0.5
GROUP_MAX_RATIO = 1.5


@dataclass
class CpuCostModel:
    """Calibrated per-operation CPU costs (DESIGN.md section 4).

    The RC/UD asymmetry on the client side reproduces the paper's Figure 8
    (right): an RC client just checks its local message pool, while a UD
    client must pre-post receives and poll the completion queue
    (``ibv_poll_cq``), which makes client CPU the bottleneck and forces
    UD-based RPCs onto >= 4 physical client machines before they saturate.
    """

    server_request_ns: int = 260
    client_post_ns: int = 200
    client_poll_ns: int = 150
    ud_client_post_ns: int = 500
    ud_client_poll_ns: int = 7500

    def client_cost(self, uses_cq_polling: bool) -> tuple[int, int]:
        """(post, poll) costs for an RC-style or UD-style client."""
        if uses_cq_polling:
            return self.ud_client_post_ns, self.ud_client_poll_ns
        return self.client_post_ns, self.client_poll_ns


@dataclass
class ScaleRpcConfig:
    """Tunables of the ScaleRPC server (paper defaults)."""

    group_size: int = 40
    time_slice_ns: int = 100 * US
    block_size: int = 4096
    blocks_per_client: int = 20
    n_server_threads: int = 10
    dynamic_scheduling: bool = True
    warmup_enabled: bool = True
    # Pre-load the next group's QP contexts into the NIC cache during
    # warmup (off only for ablation studies).
    conn_prefetch_enabled: bool = True
    rebalance_every_slices: int = 8
    # RPCs whose handler exceeds this run in legacy mode after one failure
    # (paper Section 3.5).
    long_rpc_threshold_ns: int = 80 * US
    # -- fault tolerance (DESIGN.md section 10; all off by default so a
    # fault-free run is byte-identical to the pre-faults model) -----------
    # Client-side watchdog: no completion progress for this long with
    # requests outstanding triggers recovery (core/api.py).  0 disables.
    rpc_timeout_ns: int = 0
    # Server-side lease: a client silent for this long is evicted from its
    # group, reclaiming the scheduler slice and msgpool slot.  0 disables.
    lease_ns: int = 0
    costs: CpuCostModel = field(default_factory=CpuCostModel)

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.time_slice_ns <= 0:
            raise ValueError("time_slice_ns must be positive")
        if self.block_size < 64:
            raise ValueError("block_size must be at least one cacheline")
        if self.blocks_per_client < 1:
            raise ValueError("blocks_per_client must be >= 1")
        if self.n_server_threads < 1:
            raise ValueError("n_server_threads must be >= 1")
        if self.rpc_timeout_ns < 0 or self.lease_ns < 0:
            raise ValueError("timeout/lease durations must be non-negative")

    @property
    def slot_bytes(self) -> int:
        """Bytes of pool backing one client slot."""
        return self.block_size * self.blocks_per_client

    @property
    def pool_slots(self) -> int:
        """Slots per physical pool: sized for the largest legal group, so
        lazy split/merge never outgrows the pool."""
        return max(1, int(self.group_size * GROUP_MAX_RATIO))

    @property
    def pool_bytes(self) -> int:
        """Bytes of one physical message pool (serves one group)."""
        return self.slot_bytes * self.pool_slots

    def group_bounds(self) -> tuple[int, int]:
        """Legal (min, max) group size before lazy split/merge kicks in."""
        return (
            max(1, int(self.group_size * GROUP_MIN_RATIO)),
            max(1, int(self.group_size * GROUP_MAX_RATIO)),
        )
