"""CLI: run the real-process echo workload on localhost.

Usage::

    python -m repro.net                       # 1 server + 4 clients, 50 ops each
    python -m repro.net --clients 4 --ops 25 --json /tmp/net_smoke.json
    python -m repro.net --obs-dir /tmp/net_obs

Exits non-zero if any client failed to complete every op it issued, so
this doubles as the CI smoke test for the proc backend.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..transport import BACKENDS, get
from .runner import ProcWorkload, run_proc_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Run the real-process RPC workload over loopback.",
    )
    parser.add_argument("--transport", default="scalerpc",
                        help="registered transport name (default: scalerpc)")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--ops", type=int, default=50,
                        help="ops per client (default: 50)")
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--data-bytes", type=int, default=32)
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="hard wall-clock bound on the whole run (s)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result summary as JSON to PATH")
    parser.add_argument("--obs-dir", metavar="DIR",
                        help="export every worker's obs shard to DIR "
                             "(merge with: python -m repro.obs merge DIR)")
    parser.add_argument("--no-obs", action="store_true",
                        help="run without observers (zero-telemetry baseline)")
    parser.add_argument("--clock-skew-ns", type=int, default=0,
                        help="inject a constant client clock skew (merge tests)")
    args = parser.parse_args(argv)

    get(args.transport)  # fail fast, listing registered names
    workload = ProcWorkload(
        transport=args.transport,
        n_clients=args.clients,
        ops_per_client=args.ops,
        batch_size=args.batch,
        data_bytes=args.data_bytes,
        timeout_s=args.timeout,
        obs_enabled=not args.no_obs,
        obs_export_dir=args.obs_dir,
        client_skew_ns=args.clock_skew_ns,
    )
    result = run_proc_workload(workload)
    summary = result.as_dict()
    print(f"backend=proc (of: {', '.join(BACKENDS)})  "
          f"transport={workload.transport}")
    print(f"  {workload.n_clients} client processes x "
          f"{workload.ops_per_client} ops (batch {workload.batch_size}): "
          f"{result.completed_ops}/{workload.requested_ops} completed")
    print(f"  wall: {result.wall_ns / 1e6:.2f} ms   "
          f"throughput: {result.throughput_mops * 1e3:.1f} Kops/s   "
          f"reconnects: {result.reconnects}")
    rtt = result.rtt_summary
    print(f"  rtt: p50 {rtt['p50'] / 1e3:.1f} us  p99 {rtt['p99'] / 1e3:.1f} us "
          f"over {rtt['n']} rpcs")
    print(f"  obs: {result.obs_spans} spans, {result.obs_rpcs} rpc timelines "
          f"across {1 + workload.n_clients} workers")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")
    if result.completed_ops != workload.requested_ops:
        print("FAIL: not every issued op completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
