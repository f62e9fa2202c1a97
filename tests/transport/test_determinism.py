"""Cross-transport determinism: same seed, byte-identical run.

The lint's determinism rules prove source-level properties (no ad-hoc
RNGs, no set iteration on scheduling paths); this test checks the
property those rules exist to protect: running any registered transport
twice with the same seed yields a byte-identical serialized trace.  The trace records only per-run
quantities (client index, call index, simulated timestamps) — global
counters such as ``req_id`` advance across runs within one process and
must never influence behaviour.
"""

import json

import pytest

from repro import transport
from repro.transport import Topology

N_CLIENTS = 4
BATCHES = 3
BATCH_SIZE = 2
HORIZON_NS = 20_000_000


def _run_once(name: str, seed: int) -> bytes:
    topo = Topology.build(
        server_names=("server",),
        n_client_machines=2,
        machine_cores=8,
        seed=seed,
    )
    server = topo.build_server(
        name,
        lambda request: request.payload,
        group_size=N_CLIENTS,
        time_slice_ns=50_000,
        block_size=4096,
        blocks_per_client=4,
        n_server_threads=2,
    )
    clients = topo.connect_clients(server, N_CLIENTS)
    server.start()

    trace = []

    def driver(sim, index, client):
        for batch in range(BATCHES):
            handles = []
            for _ in range(BATCH_SIZE):
                handle = yield from client.async_call(
                    "echo", payload=batch, data_bytes=32
                )
                handles.append(handle)
            yield from client.flush()
            yield from client.poll_completions(handles)
            for call, handle in enumerate(handles):
                trace.append(
                    (index, batch, call, handle.posted_ns, handle.completed_ns)
                )

    for index, client in enumerate(clients):
        topo.sim.process(
            driver(topo.sim, index, client), name=f"det.c{index}"
        )
    topo.sim.run(until=HORIZON_NS)
    payload = {
        "transport": name,
        "seed": seed,
        "end_ns": topo.sim.now,
        "trace": sorted(trace),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("name", transport.names())
def test_same_seed_is_byte_identical(name):
    first = _run_once(name, seed=11)
    second = _run_once(name, seed=11)
    assert first == second
    # And the run actually did work: every client completed every call.
    completed = [
        row for row in json.loads(first)["trace"] if row[4] is not None
    ]
    assert len(completed) == N_CLIENTS * BATCHES * BATCH_SIZE


@pytest.mark.parametrize("name", transport.names())
def test_different_seed_perturbs_the_run(name):
    """Seeds must actually reach the transport's stochastic components
    (think times aside, timing noise and cache randomization shift)."""
    baseline = _run_once(name, seed=11)
    other = _run_once(name, seed=12)
    # Identical traces across seeds are suspicious but not wrong for a
    # fully-deterministic transport; only require both runs completed.
    assert json.loads(baseline)["trace"] and json.loads(other)["trace"]
