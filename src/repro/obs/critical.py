"""Critical-path analysis over RPC stage timelines, and cliff detection.

Each RPC's timeline is a list of ``(stage, ts)`` markers; the interval
between consecutive markers is attributed to the *later* stage (the time
it took to reach it).  A stage marker may carry an ``extra`` dict whose
``miss_stall`` entry is the portion of the preceding interval spent
waiting on an NIC cache miss — the breakdown splits that out as its own
``<stage>.miss_stall`` row, which is what makes the Figure-3 cliff
legible: past the connection-cache capacity, attribution shifts from
wire/service time into those stall rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "STAGE_ORDER",
    "REPLICA_STAGES",
    "STAGE_VOCABULARY",
    "StageBreakdown",
    "Cliff",
    "stage_breakdown",
    "detect_cliff",
    "nearest_rank",
    "percentile_nearest_rank",
]

#: Canonical lifecycle order (request out, server, response back).
#: ``req_rx``/``resp_rx`` mark frame arrival before decode — in the
#: simulation decode is free so they coincide with dispatch/complete,
#: but the proc backend separates them, which is what lets the merged
#: distributed trace attribute deserialization time.
STAGE_ORDER = (
    "post",
    "req_tx",
    "req_wire",
    "req_dma",
    "req_rx",
    "dispatch",
    "exec",
    "done",
    "resp_tx",
    "resp_wire",
    "resp_dma",
    "resp_rx",
    "complete",
)

#: Replica-plane lifecycle stages (DESIGN.md section 15): LFD heartbeat
#: probes/acks, membership view installs, backup promotion, and client
#: failover.  They share the vocabulary (and thus flowlint's stage-name
#: and stage-parity checks) but not the request lifecycle order — a
#: failover timeline interleaves them with the ordinary stages.
REPLICA_STAGES = (
    "hb_probe",
    "hb_ack",
    "view_change",
    "promote",
    "failover",
)

#: The same names as a membership set: the vocabulary every backend's
#: ``rpc_stage`` literals must come from (checked statically by
#: ``repro.analysis.flowlint``'s ``stage-name`` pass).
STAGE_VOCABULARY = frozenset(STAGE_ORDER) | frozenset(REPLICA_STAGES)


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage attribution of tail latency."""

    count: int  #: RPCs with a complete first→last timeline
    tail_count: int  #: RPCs at or above the percentile latency
    percentile: float
    latency_ns: int  #: the percentile latency itself
    stages: tuple  #: ((name, mean_ns, share), ...) over the tail set

    def top(self, n: int = 5) -> list:
        """The ``n`` stages with the largest mean contribution."""
        return sorted(self.stages, key=lambda s: -s[1])[:n]


@dataclass(frozen=True)
class Cliff:
    """A sustained drop detected in an epoch series."""

    index: int  #: point index where the drop first appears
    ts: int
    before: float  #: running peak before the drop
    after: float  #: value at the cliff
    ratio: float  #: after / before


def nearest_rank(p: float, n: int) -> int:
    """The 1-based rank ``ceil(p/100 * n)`` of the ``p``-th percentile among
    ``n`` values, taken in integers at one-decimal resolution: in floats
    ``99.9 / 100 * 1000`` lands just above 999 and ``ceil`` would return
    the maximum."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile_nearest_rank(sorted_values: Sequence[int], p: float) -> int:
    """Nearest-rank ``p``-th percentile of ascending ``sorted_values`` (0
    when empty)."""
    if not sorted_values:
        return 0
    return sorted_values[nearest_rank(p, len(sorted_values)) - 1]


def stage_breakdown(
    artifact: dict,
    percentile: float = 99.0,
    first: str = "post",
    last: str = "complete",
) -> Optional[StageBreakdown]:
    """Decompose the ``percentile`` tail of end-to-end latency by stage.

    Considers only RPCs whose timeline contains both ``first`` and
    ``last``; returns ``None`` when there are none (e.g. a run where no
    RPC completed).
    """
    timelines = []
    for rpc in artifact["rpcs"]:
        stages = rpc["stages"]
        times = {entry[0]: entry[1] for entry in stages}
        if first in times and last in times and times[last] >= times[first]:
            timelines.append((times[last] - times[first], stages))
    if not timelines:
        return None
    totals = sorted(t for t, _ in timelines)
    latency = percentile_nearest_rank(totals, percentile)
    tail = [(t, stages) for t, stages in timelines if t >= latency]
    sums: dict[str, int] = {}
    for _total, stages in tail:
        for prev, cur in zip(stages, stages[1:]):
            name, ts = cur[0], cur[1]
            interval = ts - prev[1]
            extra = cur[2] if len(cur) > 2 else None
            stall = extra.get("miss_stall", 0) if isinstance(extra, dict) else 0
            if stall:
                stall = min(stall, interval)
                sums[name + ".miss_stall"] = sums.get(name + ".miss_stall", 0) + stall
            sums[name] = sums.get(name, 0) + interval - stall
    tail_count = len(tail)
    mean_total = sum(t for t, _ in tail) / tail_count
    order = {name: i for i, name in enumerate(STAGE_ORDER)}
    rows = sorted(
        sums.items(),
        key=lambda kv: (order.get(kv[0].split(".")[0], len(order)), kv[0]),
    )
    stages = tuple(
        (name, total / tail_count, (total / tail_count) / mean_total if mean_total else 0.0)
        for name, total in rows
    )
    return StageBreakdown(
        count=len(timelines),
        tail_count=tail_count,
        percentile=percentile,
        latency_ns=latency,
        stages=stages,
    )


def detect_cliff(points: Sequence, drop: float = 0.3) -> Optional[Cliff]:
    """Find the first point that falls more than ``drop`` (fraction)
    below the running peak of an epoch series.

    ``points`` is a series' ``[[ts, value], ...]`` list; ``None`` values
    (undefined ratios) are skipped.  Returns ``None`` when the series
    never cliffs.
    """
    peak = None
    for index, (ts, value) in enumerate(points):
        if value is None:
            continue
        if peak is None or value > peak:
            peak = value
            continue
        if peak > 0 and value < peak * (1 - drop):
            return Cliff(index=index, ts=ts, before=peak, after=value,
                         ratio=value / peak)
    return None
