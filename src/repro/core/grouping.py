"""Connection grouping (paper Section 3.2).

Clients are organized into :class:`ConnectionGroup`\\ s served round-robin,
one group per time slice, bounding the number of concurrently-active
connections so the NIC cache never thrashes.  Each group member carries its
*context metadata* — slot assignment and performance counters — which the
scheduler saves and reloads at every context-switch point (Section 3.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from .config import ScaleRpcConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..rdma.qp import QueuePair

__all__ = ["ClientContext", "ConnectionGroup", "GroupManager"]

_group_ids = itertools.count(1)


@dataclass
class ClientContext:
    """Server-side per-client state (the virtualized pool's context
    metadata: identity, slot/offset, and performance counters)."""

    client_id: int
    qp: "QueuePair"  # server-side endpoint of the connection
    response_base: int  # client-side response region base
    response_bytes: int
    staging_base: int  # client-side request staging region base
    slot: int = 0
    group: Optional["ConnectionGroup"] = None
    # Performance counters for the current slice (reset at switch).
    slice_requests: int = 0
    slice_bytes: int = 0
    # Smoothed priority P_i = T_i / S_i (paper Section 3.2).
    priority: float = 0.0
    # Pending warmup entry, if the client announced a batch.
    pending_entry: Optional[object] = None
    warmed_up: bool = False
    # Activation sequence number stamped into every PoolBinding granted to
    # this client; bumped once per fresh (non-continuation) slice grant.
    activation_seq: int = 0
    responded_this_drain: bool = False
    # Server-held cursor over the client's response ring (set at connect).
    response_cursor: Optional[object] = None
    # Dedup window: the ids of the last 1,024 executed requests, oldest
    # first (a dict keeps insertion order; its values are unused).
    recent_completed: dict = field(default_factory=dict)
    # Last time the server heard from this client (entry/pool write or
    # connect); the lease reaper evicts contexts silent past the lease.
    last_heard_ns: int = 0

    def record_request(self, data_bytes: int) -> None:
        """Account one served request toward this slice's counters."""
        self.slice_requests += 1
        self.slice_bytes += data_bytes

    def close_slice(self, smoothing: float = 0.5) -> None:
        """Fold this slice's counters into the smoothed priority.

        Clients that post frequently with small payloads score highest:
        ``P_i = T_i / S_i`` where T_i is the request count of the slice and
        S_i the average request size.
        """
        if self.slice_requests:
            avg_size = self.slice_bytes / self.slice_requests
            instantaneous = self.slice_requests / max(avg_size, 1.0)
        else:
            instantaneous = 0.0
        self.priority = smoothing * instantaneous + (1 - smoothing) * self.priority
        self.slice_requests = 0
        self.slice_bytes = 0


@dataclass
class ConnectionGroup:
    """A set of clients served together during one time slice."""

    members: list[ClientContext] = field(default_factory=list)
    time_slice_ns: int = 0
    gid: int = field(default_factory=lambda: next(_group_ids))

    def __len__(self) -> int:
        return len(self.members)

    def assign_slots(self) -> None:
        """(Re)number members' slots to their index within the group."""
        for slot, ctx in enumerate(self.members):
            ctx.slot = slot
            ctx.group = self

    def add(self, ctx: ClientContext) -> None:
        self.members.append(ctx)
        ctx.slot = len(self.members) - 1
        ctx.group = self

    def remove(self, ctx: ClientContext) -> None:
        self.members.remove(ctx)
        ctx.group = None
        self.assign_slots()


class GroupManager:
    """Owns the group list and the round-robin rotation order."""

    def __init__(self, config: ScaleRpcConfig):
        self.config = config
        self.groups: list[ConnectionGroup] = []
        self.clients: dict[int, ClientContext] = {}
        self._rotation = 0
        self._rebuild_count = 0

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def add_client(self, ctx: ClientContext) -> None:
        """Place a newly-connected client into the last group with room,
        creating a new group when all are at the default size."""
        if ctx.client_id in self.clients:
            raise ValueError(f"client {ctx.client_id} already registered")
        self.clients[ctx.client_id] = ctx
        for group in self.groups:
            if len(group) < self.config.group_size:
                group.add(ctx)
                return
        group = ConnectionGroup(time_slice_ns=self.config.time_slice_ns)
        group.add(ctx)
        self.groups.append(group)

    def remove_client(self, client_id: int) -> ClientContext:
        """Drop a departing client (its group may become mergeable)."""
        ctx = self.clients.pop(client_id)
        if ctx.group is not None:
            group = ctx.group
            group.remove(ctx)
            if not group.members:
                index = self.groups.index(group)
                self.groups.remove(group)
                if index <= self._rotation and self._rotation > 0:
                    self._rotation -= 1
        return ctx

    def current_group(self) -> Optional[ConnectionGroup]:
        """The group at the rotation cursor (None when empty)."""
        if not self.groups:
            return None
        self._rotation %= len(self.groups)
        return self.groups[self._rotation]

    def advance(self) -> Optional[ConnectionGroup]:
        """Move the rotation to the next group and return it."""
        if not self.groups:
            return None
        self._rotation = (self._rotation + 1) % len(self.groups)
        return self.groups[self._rotation]

    def peek_next(self) -> Optional[ConnectionGroup]:
        """The group that will be served after the current one."""
        if not self.groups:
            return None
        return self.groups[(self._rotation + 1) % len(self.groups)]

    def out_of_bounds(self) -> bool:
        """True when any group's size left the legal [1/2, 3/2] window
        (and a rebuild could fix it)."""
        low, high = self.config.group_bounds()
        if len(self.groups) <= 1:
            # A single undersized group cannot be merged with anything;
            # only oversize matters.
            return any(len(g) > high for g in self.groups)
        return any(not low <= len(g) <= high for g in self.groups)

    def rebuild(self, ordered: list[list[ClientContext]], slices: list[int]) -> None:
        """Replace all groups with the given partition (scheduler output)."""
        if len(ordered) != len(slices):
            raise ValueError("one slice length per group required")
        pool_slots = self.config.pool_slots
        for members in ordered:
            if len(members) > pool_slots:
                raise ValueError(
                    f"group of {len(members)} exceeds pool capacity {pool_slots}"
                )
        self.groups = []
        for members, slice_ns in zip(ordered, slices):
            group = ConnectionGroup(members=list(members), time_slice_ns=slice_ns)
            group.assign_slots()
            self.groups.append(group)
        # Keep rotation fair across rebuilds: a fixed reset would starve
        # whichever index never follows the reset point when rebuilds are
        # frequent relative to the group count.
        self._rebuild_count += 1
        self._rotation = self._rebuild_count % len(self.groups)

    def iter_clients(self) -> Iterator[ClientContext]:
        return iter(self.clients.values())
