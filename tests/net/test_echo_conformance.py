"""Sim ≡ proc conformance for echo through the registry's ``scalerpc`` server:
one seeded op sequence, whose payloads take every branch of the codec's payload
decoder (ASCII and non-ASCII text, None, dict, list, tuple), gives each client the
same responses on both backends, tuples normalised to lists as the wire does —
and, observed, the same per-RPC stage vocabulary."""

import asyncio
from collections import Counter

from repro.obs import Observer
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


def _run_sim(ops, obs=None) -> list:
    topo = Topology.build(seed=1)
    if obs is not None:
        obs.install(topo.fabric)
    server = topo.build_server("scalerpc", _echo)
    clients = topo.connect_clients(server, N_CLIENTS)
    server.start()
    seen = [[] for _ in clients]
    for client, payloads, out in zip(clients, ops, seen):
        topo.sim.process(drive_sim(_client(client, payloads, out)))
    topo.sim.run(until=50_000_000)
    return seen


async def _run_proc(ops, obs=None) -> tuple:
    """Each client's responses, and how many clock-sync samples it took."""
    topo = Topology.build(backend="proc")
    server = topo.build_server("scalerpc", _echo)
    server.obs = obs  # its in-process clients observe with it too
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
    return seen, [client.offset_estimator.n_samples for client in clients]


def test_echo_sequences_match_across_backends():
    ops = _ops(seed=1)
    sim, (proc, _) = _run_sim(ops), asyncio.run(_run_proc(ops))
    assert sim == proc == [[_lists(p) for p in payloads] for payloads in ops]


#: Stages of the modelled NIC pipeline: the sim's alone, as proc has no NIC.
_NIC_STAGES = {"req_tx", "req_wire", "req_dma", "resp_tx", "resp_wire", "resp_dma"}


def _stage_names(artifact: dict) -> set:
    return {stage[0] for rpc in artifact["rpcs"] for stage in rpc["stages"]}


def test_stage_vocabulary_matches_across_backends():
    ops = _ops(seed=1)
    sim_obs, proc_obs = Observer(), Observer()
    _run_sim(ops, sim_obs)
    _, samples = asyncio.run(_run_proc(ops, proc_obs))
    sim, proc = sim_obs.finish(), proc_obs.finish()
    assert _stage_names(sim) - _NIC_STAGES == _stage_names(proc)
    assert {"post", "req_rx", "dispatch", "exec", "done", "resp_rx",
            "complete"} <= _stage_names(proc)
    # A batch of BATCH requests crosses as one frame each way, yet every
    # RPC keeps its own trace id (on its client and its server record)
    # and its own server stamps: one clock-sync sample per RPC.
    traces = Counter(rpc.get("trace") for rpc in proc["rpcs"])
    assert len(traces) == sum(map(len, ops)) and set(traces.values()) == {2}
    assert samples == [len(payloads) for payloads in ops]
