"""Sim ≡ proc conformance for echo through the registry's ``scalerpc`` server:
one seeded op sequence, whose payloads take every branch of the codec's payload
decoder (ASCII and non-ASCII text, None, dict, list, tuple), gives each client the
same responses on both backends, tuples normalised to lists as the wire does."""

import asyncio

from repro.replica.scenario import drive_async, drive_sim
from repro.sim import RngRegistry
from repro.transport import Topology

N_CLIENTS, BATCH = 3, 4
_MIX = (lambda i: f"ascii-{i}", lambda i: f"héllo-{i}-✓", lambda i: None,
        lambda i: {"op": i, "tags": ["a", "é"], "ok": True},
        lambda i: [i, "x", None, 1.5], lambda i: (i, "t"))


def _echo(request):
    return request.payload


def _lists(value):
    if isinstance(value, (list, tuple)):
        return [_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    return value


def _ops(seed: int) -> list:
    """Per client, every payload kind twice, in a seeded order."""
    rng = RngRegistry(seed).stream("conformance.echo")
    kinds = [rng.sample(_MIX * 2, 2 * len(_MIX)) for _ in range(N_CLIENTS)]
    return [[make(i) for i, make in enumerate(row)] for row in kinds]


def _client(client, payloads, seen):
    for start in range(0, len(payloads), BATCH):
        handles = []
        for payload in payloads[start:start + BATCH]:
            handles.append((yield client.async_call("echo", payload=payload)))
        yield client.flush()
        responses = yield client.poll_completions(handles)
        seen.extend(None if r.failed else _lists(r.payload) for r in responses)


def _run_sim(ops) -> list:
    topo = Topology.build(seed=1)
    server = topo.build_server("scalerpc", _echo)
    clients = topo.connect_clients(server, N_CLIENTS)
    server.start()
    seen = [[] for _ in clients]
    for client, payloads, out in zip(clients, ops, seen):
        topo.sim.process(drive_sim(_client(client, payloads, out)))
    topo.sim.run(until=50_000_000)
    return seen


async def _run_proc(ops) -> list:
    topo = Topology.build(backend="proc")
    server = topo.build_server("scalerpc", _echo)
    await server.start()
    clients = topo.connect_clients(server, N_CLIENTS)
    seen = [[] for _ in clients]
    try:
        for client in clients:
            await client.connect()
        await asyncio.wait_for(asyncio.gather(*(
            drive_async(_client(*args)) for args in zip(clients, ops, seen))), 10)
    finally:
        await server.stop()  # closes the in-process clients too
    return seen


def test_echo_sequences_match_across_backends():
    ops = _ops(seed=1)
    sim, proc = _run_sim(ops), asyncio.run(_run_proc(ops))
    assert sim == proc == [[_lists(p) for p in payloads] for payloads in ops]
