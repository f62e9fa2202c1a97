"""repro.obs — unified telemetry for the simulation stack.

The single owner of trace records in this repository (DESIGN.md section 9):

- **Lifecycle spans** — every RPC gets a stage timeline (client post ->
  NIC tx incl. connection-cache stalls -> wire -> server DMA/LLC ->
  dispatch wait -> handler -> the reply symmetrically -> completion),
  recorded through hook points that are zero-cost while no observer is
  installed (the same discipline as ``Simulator.tiebreak``).
- **Epoch time-series** — a :class:`MetricsRegistry` of named counters,
  gauges, and ratios sampled on a configurable epoch, so the paper's
  Figure-3 cliffs become plottable curves instead of one number per run.
- **Exporters** — JSONL artifacts plus Chrome trace-event JSON that loads
  in Perfetto (one track per NIC/worker/scheduler, async RPC spans,
  counter tracks), and a ``python -m repro.obs`` CLI that summarizes an
  artifact (critical-path p99 breakdown, cliff detection on any series).

Distributed extensions (DESIGN.md section 14): :mod:`repro.obs.dist`
merges the proc backend's per-process shards into one clock-aligned
Perfetto trace with cross-process flow events (``python -m repro.obs
merge``) and :mod:`repro.obs.hist` adds HDR-style latency histograms and
``detect_anomaly``.
"""

from .core import Observer, current
from .critical import (
    Cliff,
    StageBreakdown,
    detect_cliff,
    percentile_nearest_rank,
    stage_breakdown,
)
from .dist import (
    MergeError,
    MergedTrace,
    merge_dir,
    merge_shards,
    load_shards,
    rpc_trace_id,
    span_id,
    format_trace_id,
)
from .export import (
    load_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .hist import Anomaly, LogHistogram, detect_anomaly
from .metrics import MetricsRegistry

__all__ = [
    "Observer",
    "current",
    "MetricsRegistry",
    "StageBreakdown",
    "Cliff",
    "stage_breakdown",
    "detect_cliff",
    "percentile_nearest_rank",
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "MergeError",
    "MergedTrace",
    "merge_dir",
    "merge_shards",
    "load_shards",
    "rpc_trace_id",
    "span_id",
    "format_trace_id",
    "LogHistogram",
    "Anomaly",
    "detect_anomaly",
]
