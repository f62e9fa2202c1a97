"""``client.outstanding`` is the same thing on every client: the number of
posted calls whose response has not been consumed yet."""

import asyncio

import pytest

from repro.net import ProcRpcServer
from repro.transport import Endpoint, Topology

SIM_TRANSPORTS = ("scalerpc", "scalerpc-static", "rawwrite", "herd", "fasst",
                  "selfrpc")


def _echo(request):
    return request.payload


@pytest.mark.parametrize("name", SIM_TRANSPORTS)
def test_sim_outstanding_counts_unconsumed_calls(name):
    topo = Topology.build(seed=1)
    server = topo.build_server(name, _echo)
    (client,) = topo.connect_clients(server, 1)
    server.start()
    seen = []

    def driver(sim):
        handles = []
        for i in range(3):
            handles.append((yield from client.async_call("echo", payload=i)))
        seen.append(client.outstanding)
        yield from client.flush()
        responses = yield from client.poll_completions(handles)
        seen.append(client.outstanding)
        seen.append([response.payload for response in responses])

    topo.sim.process(driver(topo.sim))
    topo.sim.run(until=1_000_000)
    assert seen == [3, 0, [0, 1, 2]]


def test_proc_outstanding_counts_unconsumed_calls():
    async def scenario():
        server = ProcRpcServer(Endpoint("127.0.0.1", 0), _echo)
        await server.start()
        client = server.connect()
        await client.connect()
        try:
            handles = [await client.async_call("echo", payload=i) for i in range(3)]
            posted = client.outstanding
            await client.flush()
            responses = await asyncio.wait_for(client.poll_completions(handles), 5)
            return posted, client.outstanding, [r.payload for r in responses]
        finally:
            await client.close()
            await server.stop()

    assert asyncio.run(scenario()) == (3, 0, [0, 1, 2])
