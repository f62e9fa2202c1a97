"""Message rings leave nothing behind in object memory.

A DMA write into a watched range (a message pool, a response ring, the
endpoint entries) belongs to the watcher that polls it, and a READ that
lands there (the warm-up fetch of a batch) reaches the program through its
completion only.  So after a run no node's ``object_memory`` holds a
message, nor a watched address a batch of them: it holds only what
programs ``store``d (KV cells, a client's staged batch at its unwatched
``req_addr``) and unwatched landings.  HERD is not run here: its responses
are SENDs into posted receive buffers, which nothing watches, so each
buffer keeps the last response it received.

The run-length guard checks the same for the whole live heap: SmallBank
holds no more messages, completions or flows after twice the run.
"""

import gc
from collections import Counter

import pytest

import repro.txn.smallbank
from repro.bench import RpcExperiment, run_rpc_experiment
from repro.bench.harness import _assert_cqs_drained
from repro.core.message import (
    ContextSwitchNotice,
    EndpointEntry,
    RpcRequest,
    RpcResponse,
)
from repro.rdma import Completion, Node, WorkRequest
from repro.rdma.verbs import _Flow
from repro.txn import SmallBankConfig, TxnClusterConfig, run_smallbank
from repro.txn.protocol import ExecuteRequest, LogRequest

US = 1_000
MESSAGES = (RpcRequest, RpcResponse, ContextSwitchNotice, EndpointEntry)
N_COORDINATORS = 8
WARMUP_NS = 100 * US
MEASURE_NS = 300 * US


def _smallbank():
    run_smallbank(SmallBankConfig(
        cluster=TxnClusterConfig(
            n_coordinators=N_COORDINATORS,
            n_client_machines=2,
            items_per_shard=1 << 12,
            group_size=4,
            time_slice_ns=50 * US,
        ),
        accounts_per_server=50,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
    ))


def _echo(system):
    return lambda: run_rpc_experiment(RpcExperiment(
        system=system,
        n_clients=8,
        n_client_machines=2,
        group_size=4,
        time_slice_ns=50 * US,
        warmup_ns=100 * US,
        measure_ns=300 * US,
    ))


WORKLOADS = {
    "smallbank": _smallbank,
    "scalerpc": _echo("scalerpc"),
    "rawwrite": _echo("rawwrite"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_message_stays_in_object_memory(workload, monkeypatch):
    nodes = []
    init = Node.__init__

    def recording_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        nodes.append(node)

    monkeypatch.setattr(Node, "__init__", recording_init)
    WORKLOADS[workload]()
    assert nodes
    held = {
        (node.name, type(value).__name__)
        for node in nodes
        for addr, value in node.object_memory.items()
        if isinstance(value, MESSAGES)
        or (isinstance(value, (list, tuple))
            and any(isinstance(item, MESSAGES) for item in value)
            and node._watchers_by_addr.covering(addr))
    }
    assert held == set()


LIVE = (LogRequest, Completion, RpcRequest, ExecuteRequest, RpcResponse, _Flow,
        WorkRequest)


def _live_counts() -> Counter:
    gc.collect()
    return Counter(type(obj).__name__ for obj in gc.get_objects()
                   if isinstance(obj, LIVE))


def test_smallbank_live_state_does_not_grow_with_run_length(monkeypatch):
    """Run for T, count, run on to 2T on the same cluster, count again.

    A coordinator runs one transaction at a time, so what is in flight at
    either cut differs by a few objects; a store that keeps one entry per
    transaction or per verb adds hundreds over the second T.
    """
    clusters = []
    build = repro.txn.smallbank.build_txn_cluster

    def recording_build(config):
        clusters.append(build(config))
        return clusters[-1]

    monkeypatch.setattr(repro.txn.smallbank, "build_txn_cluster", recording_build)
    _smallbank()
    (cluster,) = clusters
    nodes = [participant.node for participant in cluster.participants] + cluster.machines
    _assert_cqs_drained(nodes)
    at_t = _live_counts()
    committed = cluster.committed
    cluster.sim.run(until=WARMUP_NS + 2 * MEASURE_NS)
    assert cluster.committed > committed + 50
    _assert_cqs_drained(nodes)
    at_2t = _live_counts()
    grown = {name: (at_t[name], at_2t[name]) for name in at_2t
             if at_2t[name] > at_t[name] + N_COORDINATORS}
    assert grown == {}
