"""Benchmark harness regenerating every table and figure of the paper."""

from .experiments import ALL_FIGURES, run_figure
from .harness import SYSTEMS, RpcExperiment, RpcResult, run_rpc_experiment
from .metrics import LatencyRecorder, LatencyStats, throughput_mops
from .report import FigureResult, format_table

__all__ = [
    "ALL_FIGURES",
    "FigureResult",
    "SYSTEMS",
    "LatencyRecorder",
    "LatencyStats",
    "RpcExperiment",
    "RpcResult",
    "format_table",
    "run_figure",
    "run_rpc_experiment",
    "throughput_mops",
]
