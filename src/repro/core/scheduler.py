"""Priority-based scheduling of connection groups (paper Section 3.2).

The scheduler monitors each client's per-slice throughput and request size
and derives a priority ``P_i = T_i / S_i``: clients that post small
requests frequently rank highest.  Clients of the same priority class are
grouped together; the highest-priority group is *smaller* and gets a
*longer* time slice, squeezing out time otherwise wasted serving idle
clients.  Groups are rebuilt lazily — every ``rebalance_every_slices``
slices, or immediately when churn pushes a group outside
``[1/2, 3/2] x group_size``.

With ``dynamic_scheduling`` off this degrades to the *Static* mode the
paper compares against in Figure 12: fixed groups, fixed slices.
"""

from __future__ import annotations

from .config import ScaleRpcConfig
from .grouping import ClientContext, GroupManager

__all__ = ["PriorityScheduler"]

# Priority scheduling: the highest-priority class gets a smaller group and
# a longer slice; per-group slices scale with aggregate priority within
# [min, max] x time_slice_ns, squeezing time wasted on idle clients toward
# the busy ones (paper Section 3.2).
PRIORITY_GROUP_SHRINK = 0.75
PRIORITY_SLICE_MIN_RATIO = 0.3
PRIORITY_SLICE_MAX_RATIO = 2.0


class PriorityScheduler:
    """Builds and maintains the group partition."""

    def __init__(self, config: ScaleRpcConfig, groups: GroupManager):
        self.config = config
        self.groups = groups
        self._slices_since_rebalance = 0
        self.rebalances = 0

    def close_slice(self, served: list[ClientContext]) -> None:
        """Fold served clients' slice counters into their priorities."""
        for ctx in served:
            ctx.close_slice()
        self._slices_since_rebalance += 1

    def should_rebalance(self) -> bool:
        """Time-based (dynamic mode) or bounds-based (always) trigger."""
        if self.groups.out_of_bounds():
            return True
        if not self.config.dynamic_scheduling:
            return False
        return (
            self._slices_since_rebalance >= self.config.rebalance_every_slices
            and len(self.groups.groups) > 1
        )

    def rebalance(self) -> None:
        """Rebuild the partition from current priorities."""
        clients = list(self.groups.iter_clients())
        if not clients:
            return
        if self.config.dynamic_scheduling:
            ordered = sorted(clients, key=lambda c: c.priority, reverse=True)
        else:
            ordered = sorted(clients, key=lambda c: c.client_id)
        partition = self._partition(ordered)
        slices = self._slices_for(partition)
        self.groups.rebuild(partition, slices)
        self._slices_since_rebalance = 0
        self.rebalances += 1

    def maybe_rebalance(self) -> bool:
        """Rebalance if due; returns whether a rebuild happened."""
        if self.should_rebalance():
            self.rebalance()
            return True
        return False

    # -- partitioning ------------------------------------------------------

    def _partition(self, ordered: list[ClientContext]) -> list[list[ClientContext]]:
        """Chunk priority-ordered clients into legal-sized groups."""
        default = self.config.group_size
        low, _high = self.config.group_bounds()
        sizes: list[int] = []
        remaining = len(ordered)
        first = True
        while remaining > 0:
            if (
                first
                and self.config.dynamic_scheduling
                and remaining > default
            ):
                # The busiest clients get a smaller group (longer slice).
                size = max(1, int(default * PRIORITY_GROUP_SHRINK))
            else:
                size = min(default, remaining)
            sizes.append(size)
            remaining -= size
            first = False
        # A dangling undersized tail merges into its predecessor when the
        # merged group stays within pool capacity (lazy merge).
        if (
            len(sizes) > 1
            and sizes[-1] < low
            and sizes[-2] + sizes[-1] <= self.config.pool_slots
        ):
            tail = sizes.pop()
            sizes[-1] += tail
        partition: list[list[ClientContext]] = []
        cursor = 0
        for size in sizes:
            partition.append(ordered[cursor : cursor + size])
            cursor += size
        return partition

    def _slices_for(self, partition: list[list[ClientContext]]) -> list[int]:
        """Per-group time slices, proportional to aggregate priority.

        Busy groups get up to ``PRIORITY_SLICE_MAX_RATIO`` x the base
        slice; idle groups are squeezed down to
        ``PRIORITY_SLICE_MIN_RATIO`` x — this reallocation of shared time
        from idle to busy clients is where the Figure-12 gain comes from.
        """
        base = self.config.time_slice_ns
        if not self.config.dynamic_scheduling or len(partition) <= 1:
            return [base] * len(partition)
        weights = [
            sum(ctx.priority for ctx in group) / max(len(group), 1)
            for group in partition
        ]
        mean_weight = sum(weights) / len(weights)
        if mean_weight <= 0:
            return [base] * len(partition)
        return [
            int(base * min(PRIORITY_SLICE_MAX_RATIO,
                           max(PRIORITY_SLICE_MIN_RATIO, weight / mean_weight)))
            for weight in weights
        ]
