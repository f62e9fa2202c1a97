"""Tests for the shared RPC API pieces: handles, deferred CPU accounting."""

import pytest

from repro.core.api import CallHandle, RpcClientApi
from repro.core.message import RpcRequest
from repro.rdma import Fabric, Node
from repro.sim import Simulator


class _FakeClient(RpcClientApi):
    """Minimal concrete client for exercising the deferred-CPU machinery."""

    def __init__(self, machine, client_id=1):
        self.machine = machine
        self.client_id = client_id

    def _post(self, request):
        raise NotImplementedError

    def _recover(self):
        raise NotImplementedError


@pytest.fixture
def machine():
    sim = Simulator()
    return Node(sim, "m", Fabric(sim), cores=2)


class TestCallHandle:
    def test_latency_none_until_complete(self):
        sim = Simulator()
        handle = CallHandle(RpcRequest(1, "x"), sim.event(), posted_ns=10)
        assert handle.latency_ns is None
        assert not handle.done
        handle.completed_ns = 35
        assert handle.latency_ns == 25


class TestDeferredCpu:
    def test_deferred_work_charges_machine_cores(self, machine):
        sim = machine.sim
        client = _FakeClient(machine)
        client._defer_cpu(1_000)
        client._defer_cpu(1_000)
        sim.run()
        # 2 cores, 2 parallel chunks of 1000 ns -> finished at 1000 ns.
        assert sim.now == 1_000
        assert machine.cpu.total_busy_ns == 1_000

    def test_zero_cost_is_noop(self, machine):
        client = _FakeClient(machine)
        client._defer_cpu(0)
        assert client._deferred_inflight == 0

    def test_backpressure_blocks_when_window_full(self, machine):
        sim = machine.sim
        client = _FakeClient(machine)
        client._deferred_window = 4
        for _ in range(8):  # 2 cores, 1000 ns each: backlog builds
            client._defer_cpu(1_000)
        passed = []

        def poster(sim):
            yield from client._cpu_backpressure()
            passed.append(sim.now)

        sim.process(poster(sim))
        sim.run()
        assert passed, "backpressure must eventually release"
        # 8 jobs / 2 cores = 4000 ns total; the window (4) opens once the
        # backlog has drained below it: at 2000ns inflight is 4, so release
        # happens when it first drops under the window.
        assert passed[0] >= 2_000

    def test_no_backpressure_when_idle(self, machine):
        sim = machine.sim
        client = _FakeClient(machine)
        done = []

        def poster(sim):
            yield from client._cpu_backpressure()
            done.append(sim.now)

        sim.process(poster(sim))
        sim.run()
        assert done == [0]

    def test_poll_cost_scale_default(self, machine):
        assert _FakeClient(machine).poll_cost_scale == 1
