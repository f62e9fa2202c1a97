"""Message rings leave nothing behind in object memory.

A DMA write into a watched range (a message pool, a response ring, the
endpoint entries) belongs to the watcher that polls it, so after a run no
node's ``object_memory`` holds a message: it holds only what programs
``store``d (KV cells, staged batches) and unwatched landings.  HERD is
not run here: its responses are SENDs into posted receive buffers, which
nothing watches, so each buffer keeps the last response it received.
"""

import pytest

from repro.bench import RpcExperiment, run_rpc_experiment
from repro.core.message import (
    ContextSwitchNotice,
    EndpointEntry,
    RpcRequest,
    RpcResponse,
)
from repro.rdma import Node
from repro.txn import SmallBankConfig, TxnClusterConfig, run_smallbank

US = 1_000
MESSAGES = (RpcRequest, RpcResponse, ContextSwitchNotice, EndpointEntry)


def _smallbank():
    run_smallbank(SmallBankConfig(
        cluster=TxnClusterConfig(
            n_coordinators=8,
            n_client_machines=2,
            items_per_shard=1 << 12,
            group_size=4,
            time_slice_ns=50 * US,
        ),
        accounts_per_server=50,
        warmup_ns=100 * US,
        measure_ns=300 * US,
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
        for value in node.object_memory.values()
        if isinstance(value, MESSAGES)
    }
    assert held == set()
