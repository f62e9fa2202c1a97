"""The real-process backend: the same RPC stack over asyncio sockets.

Everything between "application issues an RPC" and "bytes move" in this
repository is backend-neutral (:mod:`repro.core.interface`,
:mod:`repro.core.message`); this package is the second driver of that
seam — real OS processes talking over TCP streams instead of simulated
coroutines on a modeled fabric:

- :mod:`~repro.net.framing` — length-prefixed stream framing over a
  reusable receive buffer;
- :mod:`~repro.net.transport` — the framed connection (one asyncio
  protocol for both ends) with connect, accept, and bounded reconnect;
- :mod:`~repro.net.procserver` — the asyncio RPC service and client
  (``async_call`` / ``flush`` / ``poll_completions`` / ``sync_call``
  as coroutines), emitting the same :mod:`repro.obs` lifecycle stages
  as the sim path;
- :mod:`~repro.net.runner` — launches one server and N clients as
  subprocesses and collects their results;
- ``python -m repro.net`` — the loopback smoke run.

Construction goes through the same registry seam as the simulator::

    from repro import transport

    topo = transport.Topology.build(backend="proc")
    server = topo.build_server("scalerpc", handler)   # a ProcRpcServer
"""

from .clock import Clock, OffsetEstimator, estimate_offset
from .framing import FrameDecoder, FramingError, encode_frame
from .procserver import ProcRpcClient, ProcRpcServer, ProcServerStats
from .runner import ProcWorkload, ProcWorkloadResult, run_proc_workload
from .transport import (
    FramedConnection,
    StreamClientTransport,
    StreamServerTransport,
    TransportClosed,
)

__all__ = [
    "Clock",
    "OffsetEstimator",
    "estimate_offset",
    "FrameDecoder",
    "FramedConnection",
    "FramingError",
    "ProcRpcClient",
    "ProcRpcServer",
    "ProcServerStats",
    "ProcWorkload",
    "ProcWorkloadResult",
    "StreamClientTransport",
    "StreamServerTransport",
    "TransportClosed",
    "encode_frame",
    "run_proc_workload",
]
