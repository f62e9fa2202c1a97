"""Worker entry point: one server or client role as a real OS process.

The process runner (:mod:`repro.net.runner`) launches these::

    python -m repro.net.worker server --transport scalerpc --port 0
    python -m repro.net.worker client --host 127.0.0.1 --port N \
        --client-id 1 --ops 50 --batch 4

Protocol with the parent, line-oriented JSON on stdout:

- the server prints ``{"ready": {"host": ..., "port": ...}}`` once its
  listener is bound (resolving an ephemeral port), then serves until the
  parent writes a line to its stdin (or closes it), then prints
  ``{"result": {...}}`` and exits;
- a client runs its closed-loop batched workload to completion, prints
  ``{"result": {...}}``, and exits.

Both roles carry a :class:`repro.obs.Observer` (unless ``--no-obs``) and
include the finished artifact in their result, so the parent can export
per-process JSONL shards that ``python -m repro.obs merge`` clock-aligns
into one distributed Perfetto trace.  Client shards embed their
:class:`~repro.net.clock.OffsetEstimator` summary as
``meta["clock_sync"]``; ``--clock-skew-ns`` deterministically displaces a
client's clock domain so the merge tests can prove alignment recovers a
known skew.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..obs import Observer, percentile_nearest_rank
from ..transport import Endpoint, get
from .clock import Clock
from .procserver import ProcRpcClient

__all__ = ["main"]


def _echo_handler(request):
    """The benchmark workload's handler: the payload comes straight back."""
    return request.payload


async def _serve(args) -> dict:
    obs = None if args.no_obs else Observer(meta={
        "backend": "proc", "role": "server", "transport": args.transport,
    })
    server = get(args.transport).build_server(
        Endpoint(args.host, args.port), _echo_handler, backend="proc",
    )
    server.obs = obs
    endpoint = await server.start()
    try:
        print(json.dumps(
            {"ready": {"host": endpoint.host, "port": endpoint.port}}
        ), flush=True)
        # Serve until the parent says stop (a line on stdin, or stdin
        # closing when the parent dies — either way the server winds
        # down cleanly).
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.readline)
    finally:
        await server.stop()
    return {
        "role": "server",
        "transport": args.transport,
        "completed": server.stats.completed,
        "failed": server.stats.failed,
        "decode_errors": server.stats.decode_errors,
        "connections": server.connections,
        "obs": obs.finish() if obs is not None else None,
    }


async def _run_client(args) -> dict:
    obs = None if args.no_obs else Observer(meta={
        "backend": "proc", "role": "client", "client_id": args.client_id,
    })
    # The skew is a deterministic test-injection knob: it displaces this
    # process's clock domain so the merge tests can prove alignment
    # recovers a known offset (see repro.net.clock).
    clock = Clock(skew_ns=args.clock_skew_ns)
    client = ProcRpcClient(
        Endpoint(args.host, args.port), client_id=args.client_id, obs=obs,
        clock=clock,
    )
    await client.connect()
    try:
        latencies: list[int] = []
        rtts: list[int] = []
        started = clock.now()
        remaining = args.ops
        while remaining > 0:
            batch = min(args.batch, remaining)
            batch_start = clock.now()
            handles = []
            for _ in range(batch):
                handles.append(await client.async_call(
                    "echo", payload=f"c{args.client_id}",
                    data_bytes=args.data_bytes,
                ))
            await client.flush()
            await client.poll_completions(handles)
            latencies.append(clock.now() - batch_start)
            for handle in handles:
                rtts.append(handle.completed_ns - handle.posted_ns)
            remaining -= batch
            if obs is not None:
                # One metrics epoch per batch: the proc analogue of the
                # sim's epoch sampler, feeding the same series shape.
                obs.metrics.sample(clock.now())
        wall_ns = clock.now() - started
    finally:
        await client.close()
    if obs is not None:
        # The shard must carry its own clock-sync summary: the merge
        # collector has no other way into this process's clock domain.
        obs.meta["clock_sync"] = client.offset_estimator.as_dict()
    latencies.sort()
    rtts.sort()
    return {
        "role": "client",
        "client_id": args.client_id,
        "requested": args.ops,
        "completed": client.completed,
        "wall_ns": wall_ns,
        "reconnects": client.reconnects,
        "batch_latency_ns": {
            "median": latencies[len(latencies) // 2] if latencies else 0,
            "max": latencies[-1] if latencies else 0,
        },
        "rtt_ns": {
            "n": len(rtts),
            "p50": percentile_nearest_rank(rtts, 50),
            "p99": percentile_nearest_rank(rtts, 99),
            "max": rtts[-1] if rtts else 0,
        },
        "rtt_ns_sorted": rtts,
        "clock_sync": client.offset_estimator.as_dict(),
        "obs": obs.finish() if obs is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.worker",
        description="One real-process RPC worker (server or client role).",
    )
    sub = parser.add_subparsers(dest="role", required=True)
    server = sub.add_parser("server", help="serve RPCs until stdin closes")
    server.add_argument("--transport", default="scalerpc")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=0)
    server.add_argument("--no-obs", action="store_true",
                        help="run without an observer (zero-telemetry baseline)")
    client = sub.add_parser("client", help="run the closed-loop workload")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--client-id", type=int, default=1)
    client.add_argument("--ops", type=int, default=50)
    client.add_argument("--batch", type=int, default=4)
    client.add_argument("--data-bytes", type=int, default=32)
    client.add_argument("--no-obs", action="store_true",
                        help="run without an observer (zero-telemetry baseline)")
    client.add_argument("--clock-skew-ns", type=int, default=0,
                        help="inject a constant clock skew (merge tests)")
    args = parser.parse_args(argv)

    if args.role == "server":
        result = asyncio.run(_serve(args))
    else:
        result = asyncio.run(_run_client(args))
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
