"""A simulation run makes no cyclic garbage.

``Simulator.run`` pauses automatic cyclic GC on this premise
(DESIGN.md §7): every object a run frees must be freed by reference
counting.  Each workload below runs with ``Simulator.run`` wrapped so
that the cyclic garbage left by each call is counted with the world
still alive — the world itself is cyclic (simulator, nodes and processes
point at each other) and is collected after the workload, as usual.  A
change that adds a per-op reference cycle fails here, naming the
workload, instead of growing memory silently inside ``run()``.
"""

import gc

import pytest

from repro.bench import RpcExperiment, run_rpc_experiment
from repro.faults import FaultPlan, FaultSpec
from repro.rdma import (
    Fabric,
    Node,
    QpState,
    Transport,
    WireParams,
    post_recv,
    post_send,
    post_write,
)
from repro.sim import Simulator
from repro.txn import SmallBankConfig, TxnClusterConfig, run_smallbank

US = 1_000


def _echo(system, **kwargs):
    return lambda: run_rpc_experiment(RpcExperiment(
        system=system,
        n_clients=8,
        n_client_machines=2,
        group_size=8,
        time_slice_ns=50 * US,
        warmup_ns=100 * US,
        measure_ns=300 * US,
        **kwargs,
    ))


def _smallbank():
    return run_smallbank(SmallBankConfig(
        cluster=TxnClusterConfig(
            n_coordinators=8,
            n_client_machines=2,
            items_per_shard=1 << 12,
            group_size=8,
            time_slice_ns=50 * US,
        ),
        accounts_per_server=50,
        warmup_ns=100 * US,
        measure_ns=300 * US,
    ))


def _verb_retries():
    """RC retransmits on a lossy fabric, plus RNR retries (no RPC system
    enables them) that succeed and that run out, straight on the verbs."""
    sim = Simulator()
    fabric = Fabric(sim, WireParams(rc_loss_rate=0.3), seed=5)
    a, b = Node(sim, "a", fabric), Node(sim, "b", fabric)
    src = a.register_memory(4096).range.base
    dst = b.register_memory(1 << 16).range.base
    qps = []
    for i in range(4):
        qp, peer = a.create_qp(Transport.RC), b.create_qp(Transport.RC)
        qp.connect(peer)
        qp.rnr_retry = 3 * (i % 2)
        qps.append((qp, peer))
        for j in range(4):
            post_write(qp, src, dst + 256 * i + 64 * j, 32, payload=j)
        post_send(qp, 32, local_addr=src)

    def late_recv():
        yield sim.timeout(20_000)
        post_recv(qps[1][1], dst + 4096, 64)

    sim.process(late_recv(), name="late-recv")
    sim.run()
    assert sum(qp.retransmits for qp, _ in qps) > 0
    assert [qp.rnr_retries > 0 for qp, _ in qps] == [False, True, False, True]
    assert any(qp.state is QpState.ERROR for qp, _ in qps)


WORKLOADS = {
    "scalerpc_echo": _echo("scalerpc"),
    "rawwrite_echo": _echo("rawwrite"),
    "herd_echo": _echo("herd"),
    "fasst_echo": _echo("fasst"),
    # Every call is long: it fails once, then its retry is handed to the
    # legacy thread.
    "scalerpc_legacy": _echo("scalerpc", handler_cost_ns=90 * US),
    "smallbank": _smallbank,
    "scalerpc_crash_restart": _echo(
        "scalerpc",
        fault_plan=FaultPlan.single_crash(at_ns=150 * US, down_ns=100 * US, target=0),
        rpc_timeout_ns=50 * US,
        lease_ns=100 * US,
    ),
    "scalerpc_rc_loss": _echo(
        "scalerpc",
        fault_plan=FaultPlan.of([FaultSpec(
            "link_degrade", at_ns=150 * US, duration_ns=150 * US, rc_loss_rate=0.3,
        )]),
        rpc_timeout_ns=50 * US,
        lease_ns=100 * US,
    ),
    "verb_retries": _verb_retries,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_leaves_no_cyclic_garbage(workload, monkeypatch):
    run = Simulator.run
    garbage = []

    def counted_run(sim, until=None):
        gc.collect()
        run(sim, until)
        garbage.append(gc.collect())

    monkeypatch.setattr(Simulator, "run", counted_run)
    gc.collect()
    gc.disable()
    try:
        WORKLOADS[workload]()
    finally:
        gc.enable()
    assert garbage, f"{workload}: Simulator.run was never called"
    assert garbage == [0] * len(garbage), f"{workload}: cyclic garbage per run {garbage}"
