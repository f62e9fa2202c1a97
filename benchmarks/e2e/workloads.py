"""The six workloads, and the child process that measures one of them.

``run.py`` starts this file once per measurement (``measure``) and a few
more times per run to repeat set-up alone (``setup``); each child prints one
JSON object on its last stdout line.  ``repro`` is only ever driven through
its public entry points: the sim workloads call ``run_rpc_experiment`` /
``run_smallbank``; the proc workloads drive ``ProcRpcClient`` connections
against the registry's proc server — in this process's own event loop for
the end-to-end numbers (one process, so the OS scheduler has no say in
them), as ``python -m repro.net.worker server`` for the per-layer ones.
Layers are measured from here, from outside: ``cProfile`` round the public
call, timers round the client API, and the obs shards both processes
already know how to produce.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import cProfile
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import layers

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seed1.json"

#: Distinct payloads generated from the seed; connections cycle through them.
PAYLOAD_POOL = 64
_PAYLOAD_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

#: Measured proc segments per end-to-end run, after the warm-up; the median
#: segment is reported.
PROC_SEGMENTS = 40

#: How often the machine-speed probe interrupts a sim repeat (seconds); a
#: proc segment is interrupted four times.
SIM_PROBE_PERIOD_S = 0.05

#: The traced proc phase keeps every RPC's stage stamps in memory in both
#: processes; the cap keeps it far below the observers' 250k-RPC bound.
MAX_TRACED_SECONDS = 2.0


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimWorkload:
    """A closed-loop workload on the simulated backend.

    ``build(seed)`` is the set-up probe: the same world the run builds,
    through the public constructors.  ``run(seed)`` is the full public
    entry point and returns ``(simulated block, simulated ops, statistics
    read from the result object)``.
    """

    build: Callable[[int], None]
    run: Callable[[int], tuple]


@dataclass(frozen=True)
class ProcWorkload:
    """A closed-loop echo workload over loopback TCP: each of
    ``connections`` callers (all in this one process and event loop — more
    client processes would measure the OS scheduler, not the RPC path)
    posts ``batch`` requests of ``payload_bytes``, flushes, and waits for
    all responses before posting again."""

    connections: int
    batch: int
    payload_bytes: int


def _echo(**knobs) -> SimWorkload:
    def experiment(seed):
        from repro.bench import RpcExperiment

        return RpcExperiment(seed=seed, **knobs)

    def build(seed):
        from repro.transport import Topology

        exp = experiment(seed)
        topo = Topology.build(
            n_client_machines=exp.n_client_machines,
            machine_cores=exp.machine_cores, seed=seed,
        )
        server = topo.build_server(exp.system, lambda request: request.payload)
        topo.connect_clients(server, exp.n_clients)

    def run(seed):
        from repro.bench import run_rpc_experiment

        result = run_rpc_experiment(experiment(seed))
        # The same keys as the ``simulated`` block of BENCH_quick.json.
        block = {
            "throughput_mops": result.throughput_mops,
            "latency": asdict(result.latency),
            "counters": asdict(result.counters),
            "completed_ops": result.completed_ops,
            "window_ns": result.window_ns,
        }
        stats = {
            "sim_mops": result.throughput_mops,
            "sim_lat_p99_us": result.latency.p99_ns / 1e3,
            "memsys.l3_miss_rate": result.counters.l3_miss_rate,
            "memsys.pcie_rd_cur_per_s": result.counters.pcie_rd_cur_per_s,
            # Only the ScaleRPC server schedules groups; baselines have neither.
            "core.context_switches": getattr(result.server_stats, "context_switches", 0),
            "core.warmup_fetches": getattr(result.server_stats, "warmup_fetches", 0),
        }
        # Every RPC the server executed, warm-up and drain included: that
        # is the work the host paid for.
        return block, result.server_stats.completed, stats

    return SimWorkload(build, run)


def _smallbank(**cluster_knobs) -> SimWorkload:
    def config(seed):
        from repro.txn import SmallBankConfig, TxnClusterConfig

        return SmallBankConfig(cluster=TxnClusterConfig(seed=seed, **cluster_knobs))

    def build(seed):
        from repro.txn import build_txn_cluster, populate_smallbank

        cfg = config(seed)
        populate_smallbank(build_txn_cluster(cfg.cluster), cfg.n_accounts)

    def run(seed):
        from repro.txn import run_smallbank

        result = run_smallbank(config(seed))
        stats = {"sim_mops": result.mtps, "txn.abort_rate": result.abort_rate}
        return asdict(result), result.committed + result.aborted, stats

    return SimWorkload(build, run)


#: Why each exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sim_echo_fit": _echo(system="scalerpc", n_clients=40, batch_size=1),
    "sim_echo_thrash": _echo(system="rawwrite", n_clients=240, measure_ns=10_000_000),
    "sim_txn_smallbank": _smallbank(system="scaletx", n_coordinators=80),
    "proc_echo_unpipelined": ProcWorkload(connections=2, batch=1, payload_bytes=32),
    "proc_echo_pipelined": ProcWorkload(connections=2, batch=16, payload_bytes=32),
    "proc_echo_large": ProcWorkload(connections=2, batch=4, payload_bytes=4096),
}


def import_program() -> float:
    """Import every ``repro`` package a workload touches; returns seconds."""
    start = time.perf_counter()
    for module in ("repro.bench", "repro.txn", "repro.net.procserver", "repro.obs.dist"):
        importlib.import_module(module)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (the echo server), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


# ---------------------------------------------------------------------------
# Sim workloads
# ---------------------------------------------------------------------------

def _timed_run(workload: SimWorkload, seed: int, profile=None):
    """One repeat of the public entry point: ``(wall s, cpu s, run result)``."""
    gc.collect()  # start every repeat from the same heap state
    cpu = time.process_time()
    wall = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        out = workload.run(seed)
    finally:
        if profile is not None:
            profile.disable()
    return time.perf_counter() - wall, time.process_time() - cpu, out


def _probed_run(workload: SimWorkload, seed: int):
    """One repeat with the machine-speed probe on: ``(wall s, cpu s, run
    result)``, the times at reference speed and without the probe's own."""
    with layers.SpeedProbe(SIM_PROBE_PERIOD_S) as probe:
        wall, cpu, out = _timed_run(workload, seed)
    return (
        layers.at_reference_speed(wall - probe.wall_s, probe.wall_s / probe.units),
        layers.at_reference_speed(cpu - probe.cpu_s, probe.cpu_s / probe.units),
        out,
    )


def _matches_golden(name: str, seed: int, block: dict) -> bool:
    """Simulated results are part of the program's output: at seed 1 they
    must equal the committed golden block, digit for digit."""
    if seed != 1:
        return True
    golden = json.loads(GOLDEN_PATH.read_text())
    return json.loads(json.dumps(block)) == golden[name]


def measure_sim(name: str, workload: SimWorkload, seed: int, seconds: float,
                min_repeats: int) -> dict:
    """End-to-end numbers: timed repeats of the whole public call."""
    walls, cpus, blocks = [], [], []
    started = time.perf_counter()
    while len(walls) < min_repeats or time.perf_counter() - started < seconds:
        wall, cpu, (block, ops, _stats) = _probed_run(workload, seed)
        walls.append(wall)
        cpus.append(cpu)
        blocks.append((block, ops))
    block, ops = blocks[0]
    notes = []
    identical = all(other == blocks[0] for other in blocks)
    if not identical:
        notes.append(f"{name}: simulated results differ between same-seed repeats")
    if not _matches_golden(name, seed, block):
        identical = False
        notes.append(f"{name}: simulated results differ from {GOLDEN_PATH.name}")
    attempted = ops * len(walls)
    return {
        "correct": identical,
        "attempted": attempted,
        "failed": 0 if identical else attempted,
        "notes": notes,
        "metrics": {
            "host_us_per_op": statistics.median(walls) / ops * 1e6,
            "cpu_us_per_op": statistics.median(cpus) / ops * 1e6,
            "peak_rss_mb": peak_rss_mb(),
        },
        "samples": {"host_us_per_op": [wall / ops * 1e6 for wall in walls],
                    "cpu_us_per_op": [cpu / ops * 1e6 for cpu in cpus]},
    }


def trace_sim(name: str, workload: SimWorkload, seed: int) -> dict:
    """Per-layer numbers: one plain repeat, then one under ``cProfile``."""
    from repro.sim import Event, Process, Timeout

    plain_wall, _cpu, (plain_block, ops, stats) = _timed_run(workload, seed)
    profile = cProfile.Profile()
    traced_wall, _cpu, (traced_block, traced_ops, _stats) = _timed_run(
        workload, seed, profile
    )
    table = layers.profile_stats(profile)
    self_s = layers.profile_layers(table)
    total_s = sum(self_s.values())
    notes = []
    identical = (plain_block, ops) == (traced_block, traced_ops)
    if not identical:
        notes.append(f"{name}: simulated results differ with the profiler attached")
    if not _matches_golden(name, seed, plain_block):
        identical = False
        notes.append(f"{name}: simulated results differ from {GOLDEN_PATH.name}")
    if abs(total_s - traced_wall) > 0.05 * traced_wall:
        notes.append(f"{name}: layer self-times sum to {total_s:.3f} s but the "
                     f"traced call took {traced_wall:.3f} s")
    metrics = dict(stats)
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_us_per_op"] = seconds / ops * 1e6
        metrics[f"{layer}.self_share"] = seconds / total_s
    for metric, function in (
        ("sim.events_per_op", Event._deliver),
        ("sim.resumes_per_op", Process._resume),
        ("sim.timeouts_per_op", Timeout.__init__),
        ("sim.processes_per_op", Process.__init__),
    ):
        metrics[metric] = layers.profile_calls(table, function) / ops
    metrics["sim.identical"] = 1 if identical else 0
    metrics["trace.overhead_x"] = traced_wall / plain_wall
    attempted = 2 * ops
    return {
        "correct": identical,
        "attempted": attempted,
        "failed": 0 if identical else attempted,
        "notes": notes,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Proc workloads
# ---------------------------------------------------------------------------

class EchoServer:
    """``python -m repro.net.worker server`` as a child process (the
    two-process deployment the per-layer run splits by side)."""

    def __init__(self, traced: bool):
        argv = [sys.executable, "-m", "repro.net.worker", "server"]
        if not traced:
            argv.append("--no-obs")
        self._ticks_per_s = os.sysconf("SC_CLK_TCK")
        # stderr is held back and shown only if the server fails: at a clean
        # exit CPython 3.11 logs a CancelledError traceback per connection
        # whose read loop it cancels, which says nothing about the run.
        self.process = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "EchoServer":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.stdin.close()
        self.process.stdout.close()
        stderr = self.process.stderr.read()
        self.process.stderr.close()
        if self.process.wait() != 0:
            sys.stderr.write(stderr)

    def endpoint(self):
        """Wait for the readiness line; returns where the server listens."""
        from repro.transport import Endpoint

        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("echo server exited before reporting readiness")
        ready = json.loads(line)["ready"]
        return Endpoint(ready["host"], ready["port"])

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / self._ticks_per_s

    def stop(self) -> dict:
        """Ask the server to wind down; returns its final report."""
        self.process.stdin.write("STOP\n")
        self.process.stdin.close()
        line = self.process.stdout.readline()
        self.process.wait(timeout=60)
        if not line:
            raise RuntimeError("echo server exited without a report")
        return json.loads(line)["result"]


@dataclass
class LoopState:
    """What the closed loops of one phase share with the sampler."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    stop: bool = False
    #: Round trips (ns) and the ``post`` / ``flush`` / ``wait`` durations
    #: (ns) of the client API calls: per-layer material, so the end-to-end
    #: run records neither and its memory does not grow with its speed.
    rtts_ns: Optional[list] = None
    spans: Optional[dict] = None


def make_payloads(seed: int, size: int) -> list:
    """The request payloads, generated from the seed (JSON-encodable
    text, exactly ``size`` bytes on the wire)."""
    from repro.sim import RngRegistry

    rng = RngRegistry(seed).stream("e2e.payload")
    return ["".join(rng.choices(_PAYLOAD_ALPHABET, k=size)) for _ in range(PAYLOAD_POOL)]


async def closed_loop(client, workload: ProcWorkload, payloads: list, offset: int,
                      state: LoopState) -> None:
    """One connection's closed loop: the next batch is posted only after
    every response of the previous one has arrived and been checked."""
    clock = time.perf_counter_ns
    spans, rtts_ns = state.spans, state.rtts_ns
    cursor = offset
    while not state.stop:
        sent, handles = [], []
        for _ in range(workload.batch):
            payload = payloads[cursor % len(payloads)]
            cursor += 1
            start = clock()
            handles.append(await client.async_call(
                "echo", payload=payload, data_bytes=workload.payload_bytes
            ))
            if spans is not None:
                spans["post"].append(clock() - start)
            sent.append(payload)
        state.attempted += len(handles)
        start = clock()
        await client.flush()
        flushed = clock()
        responses = await client.poll_completions(handles)
        if spans is not None:
            spans["flush"].append(flushed - start)
            spans["wait"].append(clock() - flushed)
        for payload, handle, response in zip(sent, handles, responses):
            if response.failed or response.payload != payload:
                state.failed += 1
            if rtts_ns is not None:
                rtts_ns.append(handle.completed_ns - handle.posted_ns)
        state.completed += len(responses)


async def connect_clients(endpoint, observers) -> list:
    """Dial one client per observer slot (closing them all if one fails)."""
    from repro.net.procserver import ProcRpcClient

    clients = []
    try:
        for index, observer in enumerate(observers):
            client = ProcRpcClient(endpoint, client_id=index + 1, obs=observer)
            clients.append(client)
            await client.connect()
    except BaseException:
        await close_clients(clients)
        raise
    return clients


async def close_clients(clients) -> None:
    for client in clients:
        await client.close()


class Mark(NamedTuple):
    """Running totals at a segment boundary."""

    wall_s: float
    #: This process (the client side when the server has its own).
    cpu_s: float
    server_cpu_s: float
    completed: int
    rtts: int
    #: Totals of the machine-speed probe (zeros where none runs).
    units: int
    unit_wall_s: float
    unit_cpu_s: float


async def run_phase(clients, server_cpu_s: Callable[[], float], workload: ProcWorkload,
                    payloads: list, state: LoopState, warmup_s: float,
                    segment_s: float, n_segments: int, probe=None) -> list:
    """Drive the closed loops through a warm-up and ``n_segments`` measured
    segments.  Returns the ``n_segments + 1`` boundary marks."""

    def mark():
        probed = (probe.units, probe.wall_s, probe.cpu_s) if probe else (0, 0.0, 0.0)
        return Mark(time.perf_counter(), time.process_time(), server_cpu_s(),
                    state.completed, len(state.rtts_ns or ()), *probed)

    stride = len(payloads) // len(clients)
    loops = [
        asyncio.ensure_future(closed_loop(client, workload, payloads, i * stride, state))
        for i, client in enumerate(clients)
    ]
    try:
        await asyncio.sleep(warmup_s)
        marks = [mark()]
        for _ in range(n_segments):
            await asyncio.sleep(segment_s)
            marks.append(mark())
    finally:
        state.stop = True
        await asyncio.gather(*loops)
    return marks


def segment_us_per_op(marks: list, field: str) -> list:
    """Per measured segment, the growth of ``field`` (seconds) per RPC
    completed in it, in us."""
    return [
        (getattr(b, field) - getattr(a, field)) / (b.completed - a.completed) * 1e6
        for a, b in zip(marks, marks[1:])
    ]


def probed_us_per_op(marks: list, field: str, unit_field: str) -> list:
    """The same at reference speed: each segment without the probe's units
    that ran inside it, scaled by how long those took."""
    out = []
    for a, b in zip(marks, marks[1:]):
        units = b.units - a.units
        unit_s = getattr(b, unit_field) - getattr(a, unit_field)
        if not units:
            continue  # the timer never fired inside this segment
        seconds = getattr(b, field) - getattr(a, field) - unit_s
        out.append(layers.at_reference_speed(seconds, unit_s / units)
                   / (b.completed - a.completed) * 1e6)
    return out


def summarise(marks: list, rtts_ns: list) -> dict:
    """Per-layer numbers of one two-process phase: rate of the median
    segment, CPU by side over the whole measured window, RTT percentiles
    over every measured sample."""
    first, last = marks[0], marks[-1]
    wall_s = last.wall_s - first.wall_s
    ops = last.completed - first.completed
    client_cpu = last.cpu_s - first.cpu_s
    server_cpu = last.server_cpu_s - first.server_cpu_s
    rtts = sorted(rtts_ns[first.rtts:last.rtts])
    per_layer = {
        "rpc_kops": 1e3 / statistics.median(segment_us_per_op(marks, "wall_s")),
        "rtt_p50_us": layers.percentile(rtts, 50) / 1e3,
        "net.rtt_n": len(rtts),
        "net.client_cpu_us_per_rpc": client_cpu / ops * 1e6,
        "net.server_cpu_us_per_rpc": server_cpu / ops * 1e6,
        "net.client_cpu_util": client_cpu / wall_s,
        "net.server_cpu_util": server_cpu / wall_s,
    }
    for metric, p in (("net.rtt_p99_us", 99.0), ("net.rtt_p999_us", 99.9)):
        if layers.supports_percentile(len(rtts), p):
            per_layer[metric] = layers.percentile(rtts, p) / 1e3
    return per_layer


def check_proc(state: LoopState, report: dict, notes: list) -> None:
    """Every response equalled its request, every posted RPC completed,
    and the server saw neither failures nor undecodable frames."""
    if state.failed:
        notes.append(f"{state.failed} responses failed or did not echo their request")
    if state.completed != state.attempted:
        notes.append(f"{state.attempted} RPCs posted but {state.completed} completed")
    if report["failed"] or report["decode_errors"] or report["completed"] != state.completed:
        notes.append(
            f"server report: completed={report['completed']} failed={report['failed']} "
            f"decode_errors={report['decode_errors']} (client completed {state.completed})"
        )
        state.failed = max(state.failed, 1)


async def two_process_phase(workload: ProcWorkload, payloads: list, traced: bool,
                            warmup_s: float, segment_s: float, n_segments: int) -> dict:
    """One server process, one set of connections, one measured phase."""
    from repro.obs import Observer

    notes: list = []
    build_start = time.perf_counter()
    state = LoopState(rtts_ns=[],
                      spans={"post": [], "flush": [], "wait": []} if traced else None)
    observers = [
        Observer(meta={"backend": "proc", "role": "client", "client_id": i + 1})
        if traced else None
        for i in range(workload.connections)
    ]
    with EchoServer(traced) as server:
        clients = await connect_clients(server.endpoint(), observers)
        try:
            build_s = time.perf_counter() - build_start
            marks = await run_phase(clients, server.cpu_s, workload, payloads, state,
                                    warmup_s, segment_s, n_segments)
        finally:
            await close_clients(clients)
        report = server.stop()
    check_proc(state, report, notes)
    shards = []
    if traced:
        for client, observer in zip(clients, observers):
            observer.meta["clock_sync"] = client.offset_estimator.as_dict()
            shards.append(observer.finish())
        shards.insert(0, report["obs"])
    return {"state": state, "marks": marks, "notes": notes, "shards": shards,
            "build_s": build_s}


def stage_split_us(shards: list) -> dict:
    """Median stage durations (us) over the RPCs that ``merge_shards``
    joined across the client and server shards."""
    from repro.obs.dist import merge_shards

    edges = (
        ("net.stage.req_path_us", "post", "req_rx"),
        ("net.stage.decode_us", "req_rx", "dispatch"),
        ("net.stage.handler_us", "dispatch", "done"),
        ("net.stage.resp_path_us", "done", "resp_rx"),
        ("net.stage.complete_us", "resp_rx", "complete"),
    )
    durations = {metric: [] for metric, _a, _b in edges}
    for rpc in merge_shards(shards).cross_process:
        stamps = {row[0]: row[1] for row in rpc.client_stages + rpc.server_stages}
        for metric, start, end in edges:
            if start in stamps and end in stamps:
                durations[metric].append(stamps[end] - stamps[start])
    return {
        metric: statistics.median(values) / 1e3
        for metric, values in durations.items() if values
    }


@contextlib.asynccontextmanager
async def in_process_echo(workload: ProcWorkload):
    """The registry's proc echo server and the workload's connections, all
    in this process's event loop; yields ``(server, clients)``.  The same
    server class, client class, codec, framing and loopback TCP sockets as
    the two-process deployment, minus the second process: whether and where
    the OS runs two processes at once, and how long the VM takes to wake a
    sleeping one, moved the two-process numbers by a quarter between
    identical runs."""
    from repro.transport import Endpoint, get

    server = get("scalerpc").build_server(
        Endpoint("127.0.0.1", 0), lambda request: request.payload, backend="proc"
    )
    endpoint = await server.start()
    try:
        clients = await connect_clients(endpoint, [None] * workload.connections)
        try:
            yield server, clients
        finally:
            await close_clients(clients)
    finally:
        await server.stop()


async def in_process_phase(workload: ProcWorkload, payloads: list, warmup_s: float,
                           segment_s: float, n_segments: int, probe) -> tuple:
    """The end-to-end phase: warm-up, then ``n_segments`` measured segments.
    Returns ``(loop state, marks, notes)``."""
    notes: list = []
    state = LoopState()
    async with in_process_echo(workload) as (server, clients):
        marks = await run_phase(clients, lambda: 0.0, workload, payloads, state,
                                warmup_s, segment_s, n_segments, probe)
    check_proc(state, asdict(server.stats), notes)
    return state, marks, notes


def measure_proc(workload: ProcWorkload, seed: int, seconds: float) -> dict:
    """End-to-end numbers: wall and CPU time of this one process per RPC,
    at reference speed."""
    payloads = make_payloads(seed, workload.payload_bytes)
    segment_s = seconds / PROC_SEGMENTS
    with layers.SpeedProbe(segment_s / 4) as probe:
        state, marks, notes = asyncio.run(in_process_phase(
            workload, payloads, max(0.3, 0.2 * seconds), segment_s, PROC_SEGMENTS, probe,
        ))
    samples = {
        "host_us_per_op": probed_us_per_op(marks, "wall_s", "unit_wall_s"),
        "cpu_us_per_op": probed_us_per_op(marks, "cpu_s", "unit_cpu_s"),
    }
    return {
        "correct": not notes,
        "attempted": state.attempted,
        "failed": state.failed + (state.attempted - state.completed),
        "notes": notes,
        "metrics": {
            "host_us_per_op": statistics.median(samples["host_us_per_op"]),
            "cpu_us_per_op": statistics.median(samples["cpu_us_per_op"]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "samples": samples,
    }


def trace_proc(workload: ProcWorkload, seed: int, seconds: float) -> dict:
    """Per-layer numbers, with the server in a process of its own so that
    CPU splits by side: an untraced phase (rates, CPU split, tails), a short
    traced phase (client API spans, obs stage split), codec timers."""
    payloads = make_payloads(seed, workload.payload_bytes)
    plain = asyncio.run(two_process_phase(
        workload, payloads, traced=False, warmup_s=max(0.3, 0.3 * seconds),
        segment_s=seconds / 5, n_segments=3,
    ))
    traced = asyncio.run(two_process_phase(
        workload, payloads, traced=True, warmup_s=0.3,
        segment_s=min(MAX_TRACED_SECONDS, 0.15 * seconds), n_segments=1,
    ))
    metrics = summarise(plain["marks"], plain["state"].rtts_ns)
    with_tracing = summarise(traced["marks"], traced["state"].rtts_ns)
    metrics["trace.overhead_x"] = with_tracing["rtt_p50_us"] / metrics["rtt_p50_us"]
    spans = traced["state"].spans
    for name in ("post", "flush", "wait"):
        metrics[f"net.client.{name}_us"] = statistics.median(spans[name]) / 1e3
    metrics.update(stage_split_us(traced["shards"]))
    metrics.update(layers.codec_us(payloads[0], workload.payload_bytes))
    metrics["transport.build_s"] = plain["build_s"]
    states = (plain["state"], traced["state"])
    attempted = sum(s.attempted for s in states)
    notes = plain["notes"] + traced["notes"]
    return {
        "correct": not notes,
        "attempted": attempted,
        "failed": sum(s.failed + (s.attempted - s.completed) for s in states),
        "notes": notes,
        "metrics": metrics,
    }


async def setup_proc(workload: ProcWorkload) -> float:
    """Set-up alone: start the server, connect.  Returns
    ``time.monotonic()`` at the moment the connections stood."""
    async with in_process_echo(workload):
        return time.monotonic()


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-repeats", type=int, required=True,
                        help="sim: timed repeats even if --seconds has passed")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sim = isinstance(workload, SimWorkload)
    import_s = import_program()
    if args.mode == "setup":
        # Set-up alone: interpreter start (from the parent's ``--t0``),
        # imports, and the world built (sim) or the server started and the
        # connections made (proc); scaled by the machine's speed just then.
        if sim:
            workload.build(args.seed)
            ready_at = time.monotonic()
        else:
            ready_at = asyncio.run(setup_proc(workload))
        out = {"setup_s": layers.at_reference_speed(ready_at - args.t0,
                                                    layers.unit_seconds())}
    elif not args.trace:
        out = (measure_sim(args.workload, workload, args.seed, args.seconds,
                           args.min_repeats)
               if sim else measure_proc(workload, args.seed, args.seconds))
    else:
        if sim:
            build_start = time.perf_counter()
            workload.build(args.seed)
            build_s = time.perf_counter() - build_start
            out = trace_sim(args.workload, workload, args.seed)
            out["metrics"]["transport.build_s"] = build_s
        else:
            out = trace_proc(workload, args.seed, args.seconds)
        out["metrics"]["bench.import_s"] = import_s
        out["metrics"]["bench.work_unit_ms"] = layers.unit_seconds() * 1e3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
