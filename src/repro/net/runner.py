"""The process runner: one server + N clients as real OS processes.

:func:`run_proc_workload` launches ``python -m repro.net.worker`` once in
the server role and once per client, wires them together over loopback
(the server reports its bound port; clients dial it), enforces a hard
wall-clock timeout on the whole run, and collects every worker's JSON
result — including their :mod:`repro.obs` artifacts, which can be
exported to the same JSONL format the sim backend writes.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ProcWorkload", "ProcWorkloadResult", "run_proc_workload"]

from ..obs import percentile_nearest_rank
from ..sim import NS_PER_S


@dataclass
class ProcWorkload:
    """One real-process echo workload (the fig-style closed loop)."""

    transport: str = "scalerpc"
    n_clients: int = 4
    ops_per_client: int = 50
    batch_size: int = 4
    data_bytes: int = 32
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the server reports the bound port
    timeout_s: float = 60.0
    #: Run workers with observers (tracing) at all.  Off = the
    #: zero-telemetry baseline the perf gate compares against.
    obs_enabled: bool = True
    #: Export every worker's obs artifact as a JSONL shard into this
    #: directory (one file per process; ``python -m repro.obs merge``
    #: combines them).
    obs_export_dir: Optional[str] = None
    #: Deterministic clock displacement injected into every client
    #: (merge/alignment tests; see :mod:`repro.net.clock`).
    client_skew_ns: int = 0

    def __post_init__(self):
        if self.n_clients < 1 or self.ops_per_client < 1 or self.batch_size < 1:
            raise ValueError("n_clients, ops_per_client, batch_size must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.obs_export_dir is not None and not self.obs_enabled:
            raise ValueError(
                "obs_export_dir requires obs_enabled=True "
                "(workers without observers produce no shards)"
            )

    @property
    def requested_ops(self) -> int:
        return self.n_clients * self.ops_per_client


@dataclass
class ProcWorkloadResult:
    """Everything the workers reported."""

    workload: ProcWorkload
    server: dict
    clients: list[dict] = field(default_factory=list)

    @property
    def completed_ops(self) -> int:
        return sum(c["completed"] for c in self.clients)

    @property
    def wall_ns(self) -> int:
        """The slowest client's closed-loop wall time."""
        return max(c["wall_ns"] for c in self.clients)

    @property
    def throughput_mops(self) -> float:
        return self.completed_ops * NS_PER_S / self.wall_ns / 1e6

    @property
    def reconnects(self) -> int:
        return sum(c["reconnects"] for c in self.clients)

    @property
    def obs_spans(self) -> int:
        """Spans across every worker's obs artifact (server + clients)."""
        artifacts = [self.server.get("obs")] + [c.get("obs") for c in self.clients]
        return sum(len(a["spans"]) for a in artifacts if a is not None)

    @property
    def obs_rpcs(self) -> int:
        """RPC lifecycle timelines across every worker's obs artifact."""
        artifacts = [self.server.get("obs")] + [c.get("obs") for c in self.clients]
        return sum(len(a["rpcs"]) for a in artifacts if a is not None)

    @property
    def rtt_summary(self) -> dict:
        """Pooled per-RPC round-trip percentiles across every client
        (exact: computed over the concatenated sorted samples, not by
        averaging per-client percentiles)."""
        rtts = sorted(
            value for c in self.clients for value in c.get("rtt_ns_sorted", [])
        )
        return {
            "n": len(rtts),
            "p50": percentile_nearest_rank(rtts, 50),
            "p99": percentile_nearest_rank(rtts, 99),
            "max": rtts[-1] if rtts else 0,
        }

    def as_dict(self) -> dict:
        return {
            "transport": self.workload.transport,
            "n_clients": self.workload.n_clients,
            "requested_ops": self.workload.requested_ops,
            "completed_ops": self.completed_ops,
            "wall_ns": self.wall_ns,
            "throughput_mops": self.throughput_mops,
            "reconnects": self.reconnects,
            "obs_spans": self.obs_spans,
            "obs_rpcs": self.obs_rpcs,
            "rtt_ns": self.rtt_summary,
            "server": {k: v for k, v in self.server.items() if k != "obs"},
            "clients": [
                {k: v for k, v in c.items()
                 if k not in ("obs", "rtt_ns_sorted")}
                for c in self.clients
            ],
        }


def _worker_env() -> dict:
    """The subprocess environment, with ``repro`` importable."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


async def _read_json_line(worker: asyncio.subprocess.Process, what: str) -> dict:
    """The next JSON line on the worker's stdout (its control channel)."""
    while True:
        line = await worker.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited before reporting {what}")
        line = line.strip()
        if not line:
            continue
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue  # tolerate stray prints on stdout


async def _spawn(role_args: list[str]) -> asyncio.subprocess.Process:
    return await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.net.worker", *role_args,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
        env=_worker_env(),
    )


async def _run(workload: ProcWorkload) -> ProcWorkloadResult:
    procs: list[asyncio.subprocess.Process] = []
    try:
        no_obs = [] if workload.obs_enabled else ["--no-obs"]
        server = await _spawn([
            "server", "--transport", workload.transport,
            "--host", workload.host, "--port", str(workload.port),
            *no_obs,
        ])
        procs.append(server)
        ready = await _read_json_line(server, "readiness")
        port = ready["ready"]["port"]

        clients = []
        for index in range(workload.n_clients):
            client = await _spawn([
                "client", "--host", workload.host, "--port", str(port),
                "--client-id", str(index + 1),
                "--ops", str(workload.ops_per_client),
                "--batch", str(workload.batch_size),
                "--data-bytes", str(workload.data_bytes),
                "--clock-skew-ns", str(workload.client_skew_ns),
                *no_obs,
            ])
            procs.append(client)
            clients.append(client)

        client_results = []
        for client in clients:
            report = await _read_json_line(client, "a client result")
            client_results.append(report["result"])
            await client.wait()

        server.stdin.write(b"STOP\n")
        await server.stdin.drain()
        server.stdin.close()
        report = await _read_json_line(server, "the server result")
        await server.wait()
        return ProcWorkloadResult(
            workload=workload, server=report["result"], clients=client_results
        )
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()


async def _run_with_timeout(workload: ProcWorkload) -> ProcWorkloadResult:
    try:
        return await asyncio.wait_for(_run(workload), timeout=workload.timeout_s)
    except asyncio.TimeoutError:
        raise RuntimeError(
            f"real-process workload did not finish within {workload.timeout_s}s "
            f"({workload.n_clients} clients x {workload.ops_per_client} ops "
            f"on {workload.transport!r})"
        ) from None


def run_proc_workload(workload: ProcWorkload) -> ProcWorkloadResult:
    """Run the workload as real processes; returns the collected results."""
    result = asyncio.run(_run_with_timeout(workload))
    if workload.obs_export_dir is not None:
        from ..obs import write_jsonl

        os.makedirs(workload.obs_export_dir, exist_ok=True)
        stem = os.path.join(
            workload.obs_export_dir,
            f"proc_{workload.transport}_{workload.n_clients}c",
        )
        if result.server.get("obs") is not None:
            write_jsonl(result.server["obs"], f"{stem}_server.obs.jsonl")
        for report in result.clients:
            if report.get("obs") is not None:
                write_jsonl(
                    report["obs"],
                    f"{stem}_client{report['client_id']}.obs.jsonl",
                )
    return result
