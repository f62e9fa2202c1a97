"""The RPC micro-benchmark harness.

Reproduces the paper's measurement methodology (Section 3.6.1): a single
RPCServer node, clients simulated as coroutine-like processes spread
evenly over physical client machines, closed-loop batched posting through
the asynchronous APIs, and per-batch latency recording.  One
:class:`RpcExperiment` describes a configuration; :func:`run_rpc_experiment`
returns throughput, latency distribution, and the PCM-style counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..faults import FaultInjector, FaultPlan
from ..memsys import CounterMonitor, CounterRates
from ..obs import Observer
from ..rdma import Node
from ..rdma.verbs import VerbError
from ..transport import Topology, bench_systems, get as get_transport
from .metrics import LatencyRecorder, LatencyStats, throughput_mops

__all__ = ["SYSTEMS", "RpcExperiment", "RpcResult", "run_rpc_experiment",
           "set_obs_export_dir", "obs_export_dir"]

#: When set (``python -m repro.bench --obs DIR``), every obs-enabled
#: experiment also writes its artifact to DIR as JSONL plus a
#: Perfetto-loadable Chrome trace.
_obs_export_dir: Optional[str] = None


def set_obs_export_dir(path: Optional[str]) -> None:
    """Direct obs-enabled experiments to export their artifacts to ``path``."""
    global _obs_export_dir
    _obs_export_dir = path


def obs_export_dir() -> Optional[str]:
    """The export directory set via ``--obs`` (``None`` when unset).
    Proc-backend experiments (``fig_real``) read this to point the
    process runner's per-worker shard export at the same place."""
    return _obs_export_dir

#: The compared RPC implementations (paper Table 2, plus the Static
#: ScaleRPC variant of Figure 12), from the transport registry.
SYSTEMS = bench_systems()

#: Period of the obs metric epochs (the series' time resolution).
OBS_EPOCH_NS = 50_000
#: Share of the clients that go dead in the fatal-overrun sweep.
STOP_POLLING_FRACTION = 0.5

ThinkTimeFn = Callable[[int, random.Random], int]


@dataclass
class RpcExperiment:
    """One benchmark configuration."""

    system: str = "scalerpc"
    n_clients: int = 40
    n_client_machines: int = 11
    batch_size: int = 1
    data_bytes: int = 32
    handler_cost_ns: int = 0
    warmup_ns: int = 400_000
    measure_ns: int = 2_000_000
    seed: int = 1
    think_time_fn: Optional[ThinkTimeFn] = None
    # Server parameters (paper defaults).
    group_size: int = 40
    time_slice_ns: int = 100_000
    block_size: int = 4096
    blocks_per_client: int = 20
    n_server_threads: int = 10
    machine_cores: int = 24
    # Ablation switches (ScaleRPC only).
    warmup_enabled: bool = True
    conn_prefetch_enabled: bool = True
    # Observability (repro.obs).  Enabling it must not change simulated
    # results — the observer only reads state the simulation already
    # maintains; tests/bench/test_harness.py holds both to the golden block.
    obs_enabled: bool = False
    # Fatal-overrun sweep (ROADMAP): give client-side UD recv CQs a
    # bounded, fatal depth, and make STOP_POLLING_FRACTION of the clients
    # stop polling at ``stop_polling_after_ns`` (absolute simulation time).
    # Stopped clients keep posting fire-and-forget until their QP dies.
    cq_overrun_fatal: bool = False
    stop_polling_after_ns: Optional[int] = None
    # Fault plane (DESIGN.md section 10): a declarative FaultPlan executed
    # by a deterministic injector process, plus the recovery knobs the
    # faults exercise.  All default off, so fault-free runs stay
    # byte-identical to builds without the fault plane.
    fault_plan: Optional[FaultPlan] = None
    rpc_timeout_ns: int = 0
    lease_ns: int = 0

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; pick from {SYSTEMS}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.n_client_machines < 1:
            raise ValueError("n_client_machines must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError("fault_plan must be a FaultPlan (or None)")
        if self.rpc_timeout_ns < 0 or self.lease_ns < 0:
            raise ValueError("rpc_timeout_ns and lease_ns must be non-negative")


@dataclass
class RpcResult:
    """Measured outputs of one experiment."""

    experiment: RpcExperiment
    throughput_mops: float
    latency: LatencyStats
    recorder: LatencyRecorder
    counters: CounterRates
    completed_ops: int
    window_ns: int
    server_stats: object
    #: The repro.obs run artifact (``Observer.finish()``) when the
    #: experiment ran with ``obs_enabled``; feed it to the exporters or
    #: ``python -m repro.obs``.
    obs: Optional[dict] = None
    #: Fault-plane summary (injection schedule + recovery outcomes, plus
    #: server-side membership health for ScaleRPC) when the experiment ran
    #: with a non-empty ``fault_plan``.
    faults: Optional[dict] = None


def build_server(experiment: RpcExperiment, node: Node, handler, handler_cost_fn):
    """Instantiate the server for ``experiment.system`` via the registry.

    The registry maps generic knobs onto the transport's native config
    schema (``ScaleRpcConfig`` or ``BaselineConfig``); knobs a transport
    doesn't speak are dropped there, not special-cased here.
    """
    return get_transport(experiment.system).build_server(
        node,
        handler,
        handler_cost_fn=handler_cost_fn,
        group_size=experiment.group_size,
        time_slice_ns=experiment.time_slice_ns,
        block_size=experiment.block_size,
        blocks_per_client=experiment.blocks_per_client,
        n_server_threads=experiment.n_server_threads,
        warmup_enabled=experiment.warmup_enabled,
        conn_prefetch_enabled=experiment.conn_prefetch_enabled,
        cq_overrun_fatal=experiment.cq_overrun_fatal,
        rpc_timeout_ns=experiment.rpc_timeout_ns,
        lease_ns=experiment.lease_ns,
    )


def _unique_cqs(nodes) -> dict:
    """Every distinct CQ of the QPs on ``nodes``, by identity."""
    return {id(cq): cq for node in nodes for qp in node.qps
            for cq in (qp.send_cq, qp.recv_cq)}


def _assert_cqs_drained(nodes) -> None:
    """Exact CQ conservation after the drain phase (always on).

    Graduated from SimSanitizer's end-of-run check, which had to tolerate
    ``cq_inflight_at_finish`` slack from abandoned closed-loop batches.
    With the drain phase that slack is gone: every completion pushed on
    any CQ of ``nodes`` must have been consumed through one of the two
    interfaces, and nothing may remain queued.
    """
    for cq in _unique_cqs(nodes).values():
        assert cq.pushed == cq.polled + cq.drained and len(cq) == 0, (
            f"CQ {cq.name!r} not drained: pushed={cq.pushed}, "
            f"polled={cq.polled}, drained={cq.drained}, "
            f"queued={len(cq)}"
        )


def _unique_cq_depth(nodes) -> int:
    """Total completions queued across every distinct CQ on ``nodes``."""
    return sum(len(cq) for cq in _unique_cqs(nodes).values())


def _register_bench_metrics(observer: Observer, topo: Topology, server,
                            clients, injector=None) -> None:
    """The harness' epoch series: throughput, NIC cache, DDIO, CQ depth,
    and (for ScaleRPC) the scheduler epoch.  Every series reads state the
    simulation maintains anyway, so sampling cannot perturb results."""
    server_node = topo.server_node
    nic_stats = server_node.nic.stats
    metrics = observer.metrics
    metrics.rate_fn(
        "rpc.completed_per_s", lambda: sum(c.completed for c in clients)
    )
    metrics.ratio_fn(
        "nic.server.conn_hit_rate",
        lambda: nic_stats.conn_hits,
        lambda: nic_stats.conn_hits + nic_stats.conn_misses,
    )
    metrics.gauge(
        "llc.server.ddio_resident_lines",
        lambda: server_node.llc.ddio_resident_lines,
    )
    metrics.gauge("cq.server.depth", lambda: _unique_cq_depth([server_node]))
    metrics.gauge("cq.clients.depth", lambda: _unique_cq_depth(topo.machines))
    if hasattr(server, "epoch"):  # the ScaleRPC group scheduler's slice state
        metrics.gauge("server.sched_epoch", lambda: server.epoch)
    if injector is not None:
        metrics.gauge("faults.injected", lambda: injector.injected)
        metrics.gauge("faults.recovered", lambda: injector.recovered)


#: Pacing of a stopped client's fire-and-forget posting loop.  Real
#: misbehaving clients keep issuing requests at whatever rate their CPU
#: sustains; 2 us keeps the pressure high without a zero-delay spin.
_ZOMBIE_POST_GAP_NS = 2_000


def run_rpc_experiment(experiment: RpcExperiment) -> RpcResult:
    """Run one closed-loop experiment and return its measurements."""
    topo = Topology.build(
        server_names=("server",),
        n_client_machines=experiment.n_client_machines,
        machine_cores=experiment.machine_cores,
        seed=experiment.seed,
    )
    sim, rng = topo.sim, topo.rng
    server_node = topo.server_node
    observer = None
    if experiment.obs_enabled:
        observer = Observer(meta={
            "experiment": "rpc",
            "system": experiment.system,
            "n_clients": experiment.n_clients,
            "batch_size": experiment.batch_size,
            "seed": experiment.seed,
            "obs_epoch_ns": OBS_EPOCH_NS,
        }).install(topo.fabric)
    handler = lambda request: request.payload
    cost_fn = (
        (lambda _req: experiment.handler_cost_ns)
        if experiment.handler_cost_ns
        else None
    )
    server = build_server(experiment, server_node, handler, cost_fn)
    clients = topo.connect_clients(server, experiment.n_clients)
    server.start()
    injector = None
    if experiment.fault_plan is not None and not experiment.fault_plan.empty:
        injector = FaultInjector(
            sim, topo.fabric, server, clients, experiment.fault_plan, rng
        )
        injector.start()
    batch_hist = None
    if observer is not None:
        _register_bench_metrics(observer, topo, server, clients, injector)
        # First-class latency distribution: every measured batch lands in
        # an HDR-style histogram, snapshotted per epoch (count/p50/p99/
        # p999) and exported with its full bucket table.  Pure telemetry
        # bookkeeping — simulated results are identical with it on.
        batch_hist = observer.metrics.histogram("rpc.batch_latency_ns")
        observer.metrics.start(sim, OBS_EPOCH_NS)

    stop_after = experiment.stop_polling_after_ns
    zombies: set[int] = set()
    if stop_after is not None:
        n_stop = max(1, int(experiment.n_clients * STOP_POLLING_FRACTION))
        zombies = {client.client_id for client in clients[:n_stop]}

    window_start = experiment.warmup_ns
    # The window extends adaptively (up to 8x) for configurations whose
    # batch round-trip exceeds measure_ns — e.g. RawWrite at 400 clients
    # with batch 8, where a single closed-loop round takes milliseconds.
    window_end = experiment.warmup_ns + 8 * experiment.measure_ns
    recorder = LatencyRecorder()
    state = {"ops": 0, "stopping": False, "active": 0}

    def zombie_driver(sim, client):
        """A stopped client's posting loop: fire-and-forget requests with
        no completion polling.  Responses pile up unconsumed behind the
        dead polling loop; under ``cq_overrun_fatal`` the client's recv CQ
        eventually overruns, errors its QPs, and (for transports whose
        request path shares the QP) kills posting with a VerbError."""
        while not state["stopping"]:
            try:
                yield from client.async_call(
                    "bench", payload=None, data_bytes=experiment.data_bytes
                )
                yield from client.flush()
            except VerbError:
                return  # the fatal CQ overrun errored the posting QP out
            yield sim.timeout(_ZOMBIE_POST_GAP_NS)

    def driver(sim, client):
        client_rng = rng.stream(f"client.{client.client_id}")
        state["active"] += 1
        try:
            while not state["stopping"]:
                if (
                    stop_after is not None
                    and sim.now >= stop_after
                    and client.client_id in zombies
                ):
                    client.stop_polling()
                    if observer is not None:
                        observer.instant("harness", "stop_polling", sim.now,
                                         {"client": client.client_id})
                    yield from zombie_driver(sim, client)
                    return
                if experiment.think_time_fn is not None:
                    delay = experiment.think_time_fn(client.client_id, client_rng)
                    if delay > 0:
                        yield sim.timeout(delay)
                batch_start = sim.now
                handles = []
                for _ in range(experiment.batch_size):
                    handle = yield from client.async_call(
                        "bench", payload=None, data_bytes=experiment.data_bytes
                    )
                    handles.append(handle)
                yield from client.flush()
                yield from client.poll_completions(handles)
                # Batches completing after the stop flag went up belong to
                # the drain phase, not the measurement window: excluding
                # them keeps the measured results identical to a run that
                # simply abandoned its in-flight batches.
                if (
                    window_start <= batch_start
                    and sim.now <= window_end
                    and not state["stopping"]
                ):
                    recorder.record(sim.now - batch_start)
                    state["ops"] += len(handles)
                    if batch_hist is not None:
                        batch_hist.record(sim.now - batch_start)
        finally:
            state["active"] -= 1

    for client in clients:
        sim.process(driver(sim, client), name=f"bench.c{client.client_id}")

    monitor = CounterMonitor(sim, server_node.counters, server_node.llc)
    sim.run(until=window_start)
    monitor.start()
    # Run in measure_ns increments until enough batches completed, so both
    # fast (microsecond-RTT) and collapsed (millisecond-RTT) systems get a
    # statistically useful sample.
    target_samples = max(50, experiment.n_clients)
    # The stop-polling sweep measures the aftermath, not just steady
    # state: keep the window open past the stop event so the epoch series
    # records the degradation curve.
    min_elapsed = 0
    if stop_after is not None:
        min_elapsed = max(0, stop_after - window_start) + 4 * experiment.measure_ns
    elapsed = 0
    while True:
        elapsed += experiment.measure_ns
        sim.run(until=window_start + elapsed)
        if elapsed < min_elapsed:
            continue
        if len(recorder) >= target_samples or window_start + elapsed >= window_end:
            break
    counters = monitor.stop()
    window_ns = elapsed

    # Drain phase: drivers stop at their next batch boundary, then the
    # simulation runs on (counters stopped, recording suppressed) until
    # every in-flight batch has completed.  This closes the loop on CQ
    # accounting: at return, every completion ever pushed has been
    # consumed — pushed == polled + drained with nothing queued — instead
    # of leaving ~n_clients completions forever in flight.
    state["stopping"] = True
    drain_deadline = sim.now + 8 * experiment.measure_ns
    while state["active"] > 0 and sim.now < drain_deadline:
        sim.run(until=min(sim.now + experiment.measure_ns, drain_deadline))
    if stop_after is None and injector is None:
        assert state["active"] == 0, (
            f"{state['active']} drivers still in flight after the drain phase"
        )
        _assert_cqs_drained(topo.server_nodes + topo.machines)
    # In the stop-polling sweep the conservation checks are meaningless by
    # construction: stopped clients abandon their in-flight batches and
    # leave completions rotting in (possibly overrun) recv CQs — that
    # leakage is the experiment, not a harness bug.  Fault-plan runs
    # likewise: crashed clients legitimately abandon responses delivered
    # while they were down.

    obs_artifact = None
    if observer is not None:
        observer.metrics.stop()
        obs_artifact = observer.finish()
        observer.uninstall()
        if _obs_export_dir is not None:
            import os

            from ..obs import write_chrome_trace, write_jsonl

            os.makedirs(_obs_export_dir, exist_ok=True)
            stem = os.path.join(
                _obs_export_dir,
                f"{experiment.system}_{experiment.n_clients}c"
                f"_b{experiment.batch_size}_s{experiment.seed}",
            )
            write_jsonl(obs_artifact, stem + ".obs.jsonl")
            write_chrome_trace(obs_artifact, stem + ".trace.json")

    faults = None
    if injector is not None:
        faults = injector.summary()
        faults["client_timeouts"] = sum(c.timeouts for c in clients)
        faults["client_reconnects"] = sum(c.reconnects for c in clients)
        if hasattr(server, "groups"):  # ScaleRPC membership health
            groups = server.groups
            faults["scalerpc"] = {
                "clients_registered": len(groups.clients),
                "group_sizes": [len(g) for g in groups.groups],
                "slots_consistent": all(
                    ctx.slot == i
                    for g in groups.groups
                    for i, ctx in enumerate(g.members)
                ),
                "lease_evictions": server.stats.lease_evictions,
                "readmissions": server.stats.readmissions,
                "reconnects": server.stats.reconnects,
            }

    if not len(recorder):
        raise RuntimeError(
            f"no completed batches in the measurement window for {experiment}"
        )
    return RpcResult(
        experiment=experiment,
        throughput_mops=throughput_mops(state["ops"], window_ns),
        latency=recorder.stats(),
        recorder=recorder,
        counters=counters,
        completed_ops=state["ops"],
        window_ns=window_ns,
        server_stats=server.stats,
        obs=obs_artifact,
        faults=faults,
    )
