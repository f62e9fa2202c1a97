"""SimSanitizer behaviour: clean runs, provoked violations, additivity.

Every test here installs its own sanitizer (or deliberately violates an
invariant), so the whole module opts out of the conftest's autouse
instrumentation with ``no_sanitize``.
"""

import pytest

from repro.analysis.sanitize import (
    SimSanitizer,
    enabled_from_env,
    sanitized_run,
)
from repro.rdma.cq import Completion, CompletionQueue
from repro.rdma.fabric import Fabric
from repro.rdma.node import Node
from repro.rdma.qp import QpError, QpState
from repro.rdma.types import Opcode, Transport
from repro.rdma.verbs import post_write
from repro.sim.engine import Continuation, Simulator
from repro.sim.resources import Resource, Store

pytestmark = pytest.mark.no_sanitize


def test_enabled_from_env(monkeypatch):
    for value, expected in [
        ("1", True), ("true", True), ("yes", True),
        ("0", False), ("false", False), ("no", False), ("", False),
    ]:
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert enabled_from_env() is expected
    monkeypatch.delenv("REPRO_SANITIZE")
    assert enabled_from_env() is False


def test_clean_run_reports_ok():
    def body():
        sim = Simulator()
        seen = []

        def proc(sim):
            for _ in range(5):
                yield sim.timeout(10)
                seen.append(sim.now)

        sim.process(proc(sim), name="p")
        sim.run(until=100)
        return seen

    seen, report = sanitized_run(body)
    assert seen == [10, 20, 30, 40, 50]
    assert report.ok, report.render()
    assert report.stats.get("sims") == 1


def test_engine_hooks_see_every_delivery_once():
    """K timeouts (same-instant, zero-delay and distinct ones) plus M
    succeeded events, some posted from inside a delivery: exactly K + M
    deliveries pass the hooks, in an order no rule objects to."""
    def body():
        sim = Simulator()
        log = []
        for delay in (5, 5, 0, 7):
            sim.timeout(delay, value=delay).add_callback(
                lambda event: log.append((sim.now, event.value))
            )
        for item in "ab":
            sim.event().succeed(item).add_callback(
                lambda event: log.append((sim.now, event.value))
            )
        # Posted at t=7 from a delivery: queues behind that instant's heap entries.
        sim.timeout(7).add_callback(lambda event: sim.event().succeed("late"))
        sim.run()
        return log

    log, report = sanitized_run(body)
    assert log == [(0, 0), (0, "a"), (0, "b"), (5, 5), (5, 5), (7, 7)]
    assert report.ok, report.render()
    assert report.stats.get("deliveries") == 5 + 3


class Step(Continuation):
    """A continuation that logs its name each time it is delivered."""

    __slots__ = ("label", "log")

    def __init__(self, sim, label, log, delay=0):
        self.sim = sim
        self.label = label
        self.log = log
        self.after(delay, Step.record)

    def record(self):
        self.log.append((self.sim.now, self.label))


def _rc_pair(sim):
    fabric = Fabric(sim)
    a, b = Node(sim, "a", fabric), Node(sim, "b", fabric)
    qp_a, qp_b = a.create_qp(Transport.RC), b.create_qp(Transport.RC)
    qp_a.connect(qp_b)
    return a, b, qp_a


def test_engine_hooks_see_every_continuation_step_once():
    """An RC write is one continuation making eight hops (bootstrap,
    doorbell, two pipeline grants and holds, wire, ACK) plus its
    completion event; a bare continuation adds one more: ten deliveries."""
    def body():
        sim = Simulator()
        a, b, qp = _rc_pair(sim)
        log = []
        wr = post_write(qp, a.register_memory(4096).range.base,
                        b.register_memory(4096).range.base, 32)
        Step(sim, "bare", log, delay=5)
        sim.run()
        return log, wr.completion.value.status

    (log, status), report = sanitized_run(body)
    assert (log, status) == ([(5, "bare")], "success")
    assert report.ok, report.render()
    assert report.stats.get("deliveries") == 8 + 1 + 1


def test_reordered_continuation_is_reported():
    def body():
        sim = Simulator()
        log = []
        Step(sim, "first", log)
        Step(sim, "second", log)
        sim._ready.rotate(1)
        sim.run()
        return log

    log, report = sanitized_run(body)
    assert log == [(0, "second"), (0, "first")]
    assert report.rule_counts == {"fifo-order": 1}


def test_back_dated_continuation_is_reported():
    def body():
        sim = Simulator()
        log = []
        Step(sim, "on-time", log, delay=10)
        sim.run()
        sim.now = 4
        Step(sim, "back-dated", log)
        sim.run()
        return log

    log, report = sanitized_run(body)
    assert log == [(10, "on-time"), (4, "back-dated")]
    assert report.rule_counts == {"time-monotone": 1}


def test_contended_pipeline_held_by_continuations_is_conserved():
    """Writes queue on one NIC pipeline behind a process holding it, so
    continuation and event waiters mix in one FIFO; every grant is
    counted, and the run passes resource-conservation."""
    def body():
        sim = Simulator()
        a, b, qp = _rc_pair(sim)
        src, dst = a.register_memory(4096).range.base, b.register_memory(4096).range.base
        pipeline = a.nic.pipeline
        depth = []

        def hog(sim):
            for _ in range(3):
                yield from pipeline.use(150)
                depth.append(pipeline.queue_length)
                yield sim.timeout(20)

        sim.process(hog(sim), name="hog")
        for i in range(4):
            post_write(qp, src, dst + 64 * i, 32)
        sim.run()
        return depth

    sanitizer = SimSanitizer().install()
    try:
        depth = body()
        accounts = {resource.name: acct
                    for resource, acct in sanitizer._resources.values()}
    finally:
        report = sanitizer.uninstall()
    assert report.ok, report.render()
    assert max(depth) > 1  # the hog found continuations queued behind it
    # Three hog holds and four tx holds on a's pipeline; four rx on b's.
    assert accounts["a.nic.pipeline"] == {"acquired": 7, "released": 7}
    assert accounts["b.nic.pipeline"] == {"acquired": 4, "released": 4}


class Taker(Continuation):
    """A continuation that logs each item a Store hands it, then takes
    the next one."""

    __slots__ = ("store", "label", "log", "item")

    def __init__(self, sim, store, label, log):
        self.sim = sim
        self.store = store
        self.label = label
        self.log = log
        self.step = Taker.got
        store.take(self)

    def succeed(self, item):
        self.item = item
        self.sim._schedule(self.sim.now, self)

    def got(self):
        self.log.append((self.sim.now, self.label, self.item))
        self.store.take(self)


def _store_hand_offs(rotate):
    """Two taking continuations and a process's ``get`` wait in one FIFO;
    five puts at two instants hand items to them in arrival order."""
    def body():
        sim = Simulator()
        store = Store(sim)
        log = []
        Taker(sim, store, "t1", log)

        def getter(sim):
            while True:
                item = yield store.get()
                log.append((sim.now, "proc", item))

        sim.process(getter(sim), name="getter")
        sim.run()
        Taker(sim, store, "t2", log)
        for item in "abc":
            store.put(item)
        if rotate:
            sim._ready.rotate(1)
        sim.run()
        sim.timeout(10).add_callback(lambda _e: (store.put("d"), store.put("e")))
        sim.run()
        return log

    return sanitized_run(body)


def test_store_hand_off_to_a_continuation_is_delivered_once():
    log, report = _store_hand_offs(rotate=False)
    assert log == [(0, "t1", "a"), (0, "proc", "b"), (0, "t2", "c"),
                   (10, "t1", "d"), (10, "proc", "e")]
    assert report.ok, report.render()
    # The getter's bootstrap, five hand-offs, and the timeout.
    assert report.stats.get("deliveries") == 1 + 5 + 1


def test_reordered_store_hand_off_is_reported():
    log, report = _store_hand_offs(rotate=True)
    assert log[:3] == [(0, "t2", "c"), (0, "t1", "a"), (0, "proc", "b")]
    # Both earlier hand-offs are delivered after the last one.
    assert report.rule_counts == {"fifo-order": 2}


def test_reordered_same_instant_delivery_is_reported():
    def body():
        sim = Simulator()
        sim.event().succeed("first")
        sim.event().succeed("second")
        sim._ready.rotate(1)  # "second" now leaves the FIFO ahead of "first"
        sim.run()

    _, report = sanitized_run(body)
    assert report.rule_counts == {"fifo-order": 1}
    assert report.stats.get("deliveries") == 2


def test_clock_stepping_back_is_reported():
    def body():
        sim = Simulator()
        sim.timeout(10)
        sim.run()
        sim.now = 4  # what a kernel bug would do; run() itself never does
        sim.event().succeed()
        sim.run()

    _, report = sanitized_run(body)
    assert report.rule_counts == {"time-monotone": 1}


def test_uninstall_restores_classes():
    pristine_deliver = Simulator._schedule
    sanitizer = SimSanitizer()
    sanitizer.install()
    assert Simulator._schedule is not pristine_deliver
    sanitizer.uninstall()
    assert Simulator._schedule is pristine_deliver


def test_illegal_qp_transition_is_reported():
    def body():
        sim = Simulator()
        fabric = Fabric(sim)
        node = Node(sim, "n0", fabric)
        qp = node.create_qp(Transport.RC)
        assert qp.state is QpState.INIT
        with pytest.raises(QpError):
            qp.state = QpState.RESET  # INIT -> RESET is not a verbs edge

    _, report = sanitized_run(body)
    assert report.rule_counts.get("qp-transition") == 1
    assert any(f.rule == "qp-transition" for f in report.findings)


def test_cq_double_push_and_double_poll_reported():
    def body():
        sim = Simulator()
        cq = CompletionQueue(sim, name="t.cq")
        completion = Completion(wr_id=7, opcode=Opcode.SEND, qp_num=1)
        cq.push(completion)
        cq.push(completion)  # same entry deposited twice
        assert cq.poll() == [completion, completion]

    _, report = sanitized_run(body)
    assert report.rule_counts.get("cq-double-push") == 1
    # The second poll of the same entry is the mirror violation.
    assert report.rule_counts.get("cq-double-poll") == 1


def test_cq_overflow_reported():
    def body():
        sim = Simulator()
        cq = CompletionQueue(sim, name="tiny", depth=2)
        for wr_id in range(3):
            cq.push(Completion(wr_id=wr_id, opcode=Opcode.SEND, qp_num=1))

    _, report = sanitized_run(body)
    assert report.rule_counts.get("cq-overflow") == 1


def test_unpolled_cq_is_a_stat_not_a_finding():
    def body():
        sim = Simulator()
        cq = CompletionQueue(sim, name="inflight")
        cq.push(Completion(wr_id=1, opcode=Opcode.SEND, qp_num=1))

    _, report = sanitized_run(body)
    assert report.ok, report.render()
    assert report.stats.get("cq_inflight_at_finish") == 1


def test_resource_conservation_checked_at_finish():
    def body():
        sim = Simulator()
        resource = Resource(sim, capacity=2, name="cores")
        event = resource.request()
        assert event.triggered
        resource._in_use = 2  # corrupt occupancy behind the accounting

    _, report = sanitized_run(body)
    assert report.rule_counts.get("resource-conservation", 0) >= 1


def test_recv_wqe_conservation_checked_at_finish():
    def body():
        sim = Simulator()
        fabric = Fabric(sim)
        node = Node(sim, "n0", fabric)
        qp = node.create_qp(Transport.UD)
        qp.recvs_posted = 3  # claim posts that never reached the queue

    _, report = sanitized_run(body)
    assert report.rule_counts.get("qp-recv-conservation") == 1


def test_sanitizer_is_additive():
    """Instrumentation observes the run without changing its results."""
    from repro.bench.harness import RpcExperiment, run_rpc_experiment

    experiment = RpcExperiment(
        system="scalerpc",
        n_clients=4,
        n_client_machines=2,
        group_size=4,
        warmup_ns=50_000,
        measure_ns=200_000,
        seed=7,
    )
    plain = run_rpc_experiment(experiment)
    sanitized, report = sanitized_run(lambda: run_rpc_experiment(experiment))
    assert report.ok, report.render()
    assert sanitized.completed_ops == plain.completed_ops
    assert sanitized.window_ns == plain.window_ns
    assert sanitized.throughput_mops == plain.throughput_mops
    assert sanitized.latency == plain.latency


def test_static_region_overwrite_while_live_reported():
    """S1: the liveness rule covers the static-mapping baselines too —
    a write landing on a dispatched-but-unread request is flagged."""
    from repro.core.message import RpcRequest
    from repro.rdma.node import InboundWrite
    from repro.transport import Topology

    def body():
        topo = Topology.build(n_client_machines=1, seed=3)
        server = topo.build_server("rawwrite", lambda request: request.payload)
        client = server.connect(topo.machines[0])
        server.start()
        addr = server.bindings[client.client_id].request_region.range.base
        request = RpcRequest(client_id=client.client_id, rpc_type="bench")
        server.dispatch(request, addr)  # live: no worker has read it yet
        topo.server_node.deliver_write(
            InboundWrite(addr=addr, size=request.wire_bytes, payload=request,
                         imm_data=None, src_qp_num=0, time_ns=0)
        )

    _, report = sanitized_run(body)
    assert report.rule_counts.get("msgpool-overwrite-live") == 1
    # Two dispatches: the explicit one plus the delivered write reaching
    # the server's own request watcher.
    assert report.stats.get("baseline_dispatched") == 2


def test_static_region_overwrite_after_read_is_legal():
    """The worker's cpu_access consumes liveness; later reuse is fine."""
    from repro.core.message import RpcRequest
    from repro.rdma.node import InboundWrite
    from repro.transport import Topology

    def body():
        topo = Topology.build(n_client_machines=1, seed=3)
        server = topo.build_server("rawwrite", lambda request: request.payload)
        client = server.connect(topo.machines[0])
        server.start()
        addr = server.bindings[client.client_id].request_region.range.base
        request = RpcRequest(client_id=client.client_id, rpc_type="bench")
        server.dispatch(request, addr)
        topo.sim.run()  # the worker reads (and answers) the request
        topo.server_node.deliver_write(
            InboundWrite(addr=addr, size=request.wire_bytes, payload=request,
                         imm_data=None, src_qp_num=0, time_ns=0)
        )

    _, report = sanitized_run(body)
    assert "msgpool-overwrite-live" not in report.rule_counts
