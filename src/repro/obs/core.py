"""The Observer: the collection point every hook emits into.

Zero-cost-when-off contract (mirrors ``Simulator.tiebreak``): hot paths
hold no observer state of their own — they read ``fabric.obs`` (plain
attribute, ``None`` by default) and skip all telemetry work on a single
``is not None`` test.  Installing an observer is what turns the hooks on;
the Observer itself therefore never re-checks an ``enabled`` flag.

Everything recorded is simulation-time only (integer ns) with
deterministic labels, so two same-seed runs produce byte-identical
artifacts.  The one process-global counter in the repository, the RPC
``req_id`` sequence, is normalized away at :meth:`Observer.finish` by
remapping ids to dense first-appearance indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .dist import format_trace_id
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..rdma.fabric import Fabric

__all__ = ["Observer", "current"]

#: Bound on spans + instants before records are counted as dropped.
DEFAULT_MAX_RECORDS = 1_000_000
#: Bound on distinct RPCs with stage timelines.
DEFAULT_MAX_RPCS = 250_000

_current: Optional["Observer"] = None


def current() -> Optional["Observer"]:
    """The installed observer, if any (used by cold paths — e.g. the
    sanitizer — that have no fabric reference of their own)."""
    return _current


class Observer:
    """Collects spans, instants, per-RPC stage timelines, and metrics."""

    def __init__(
        self,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_rpcs: int = DEFAULT_MAX_RPCS,
        meta: Optional[dict] = None,
    ):
        self.max_records = max_records
        self.max_rpcs = max_rpcs
        self.meta: dict[str, Any] = dict(meta or {})
        self.spans: list[tuple] = []  # (track, name, start_ns, end_ns, args|None)
        self.instants: list[tuple] = []  # (track, name, ts_ns, args|None)
        self._rpcs: dict[int, list] = {}  # req_id -> [(stage, ts_ns, extra|None)]
        self._rpc_traces: dict = {}  # req_id -> 64-bit distributed trace id
        self.dropped = 0
        self.rpc_dropped = 0
        self.metrics = MetricsRegistry()
        self._fabric: Optional["Fabric"] = None

    # -- install / uninstall ----------------------------------------------

    def install(self, fabric: "Fabric") -> "Observer":
        """Attach to ``fabric``, turning every hook on that fabric on."""
        global _current
        if fabric.obs is not None and fabric.obs is not self:
            raise RuntimeError("fabric already has an observer installed")
        fabric.obs = self
        self._fabric = fabric
        _current = self
        return self

    def uninstall(self) -> None:
        """Detach; hooks return to their zero-cost disabled state."""
        global _current
        if self._fabric is not None and self._fabric.obs is self:
            self._fabric.obs = None
        self._fabric = None
        if _current is self:
            _current = None

    def now(self) -> int:
        """Current simulation time (0 when not installed)."""
        return self._fabric.sim.now if self._fabric is not None else 0

    # -- emission ----------------------------------------------------------

    def span(
        self,
        track: str,
        name: str,
        start_ns: int,
        end_ns: int,
        args: Optional[dict] = None,
    ) -> None:
        """Record one complete slice on ``track``."""
        if len(self.spans) + len(self.instants) >= self.max_records:
            self.dropped += 1
            return
        self.spans.append((track, name, start_ns, end_ns, args))

    def instant(
        self, track: str, name: str, ts_ns: int, args: Optional[dict] = None
    ) -> None:
        """Record one point event on ``track``."""
        if len(self.spans) + len(self.instants) >= self.max_records:
            self.dropped += 1
            return
        self.instants.append((track, name, ts_ns, args))

    def rpc_stage(
        self, req_id: int, stage: str, ts_ns: int, extra: Optional[dict] = None
    ) -> None:
        """Append one lifecycle stage to an RPC's timeline."""
        stages = self._rpcs.get(req_id)
        if stages is None:
            if len(self._rpcs) >= self.max_rpcs:
                self.rpc_dropped += 1
                return
            stages = self._rpcs[req_id] = []
        stages.append((stage, ts_ns, extra))

    def rpc_trace(self, req_id: int, trace_id: int) -> None:
        """Attach a distributed trace id to an RPC's timeline.

        The dense-id remap in :meth:`finish` deliberately erases raw
        ``req_id`` values, so this is the only way an RPC record stays
        joinable across per-process shards — the merge collector
        (:mod:`repro.obs.dist`) correlates client and server timelines
        by this id.
        """
        self._rpc_traces[req_id] = trace_id

    # -- artifact ----------------------------------------------------------

    def finish(self) -> dict:
        """Build the JSON-native run artifact.

        Surfaces both drop counters, so a truncated trace is never
        silently presented as complete.
        """
        meta = dict(self.meta)
        meta["dropped"] = self.dropped
        meta["rpc_dropped"] = self.rpc_dropped
        instants = [
            _instant_record(track, name, ts, args)
            for track, name, ts, args in self.instants
        ]
        # Dense RPC ids in first-appearance order: req_ids come from a
        # process-global counter, so raw values differ between two runs in
        # the same interpreter even though the run itself is identical.
        rpcs = []
        for index, (req_id, stages) in enumerate(self._rpcs.items()):
            record = {
                "id": index,
                "stages": [
                    [stage, ts] if extra is None else [stage, ts, extra]
                    for stage, ts, extra in stages
                ],
            }
            trace = self._rpc_traces.get(req_id)
            if trace is not None:
                record["trace"] = format_trace_id(trace)
            rpcs.append(record)
        # Drops are part of the trace itself, not just run notes: a
        # truncated artifact carries a visible marker the Perfetto
        # exporter renders as its own track.
        total_dropped = self.dropped + self.rpc_dropped
        if total_dropped:
            instants.append(_instant_record(
                "obs.drops", "tracer.dropped", self.now(),
                {
                    "count": total_dropped,
                    "records": self.dropped,
                    "rpcs": self.rpc_dropped,
                },
            ))
        return {
            "meta": meta,
            "spans": [
                _span_record(track, name, start, end, args)
                for track, name, start, end, args in self.spans
            ],
            "instants": instants,
            "rpcs": rpcs,
            "series": self.metrics.as_records(),
        }


def _span_record(track, name, start, end, args):
    out = {"track": track, "name": name, "start": start, "end": end}
    if args is not None:
        out["args"] = args
    return out


def _instant_record(track, name, ts, args):
    out = {"track": track, "name": name, "ts": ts}
    if args is not None:
        out["args"] = args
    return out
