"""Dynamically Connected Transport (paper Section 5.1).

DCT keeps a *shared* context instead of per-connection NIC state: before
each data transmission to a new peer the initiator posts an inline
connect message; the context is torn down when switching targets.  The
consequences the paper cites — and this model reproduces mechanistically:

- scalable: no per-connection state competes for the NIC caches;
- "for small-sized network requests, DCT almost doubles the number of
  network packets" (the connect packet precedes every switch);
- latency grows by up to a few microseconds relative to RC.

The model drives the NIC primitives directly: a connect exchange (control
packet + remote acknowledgment in hardware) followed by the data write,
with no connection-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..memsys import CounterMonitor
from ..rdma import Access, Fabric, Node
from ..sim import Simulator
from .generators import MESSAGE_BYTES, NS_PER_S, RawVerbConfig, RawVerbResult

__all__ = ["DctInitiator", "run_dct_outbound", "compare_rc_dct_latency"]

_CONNECT_BYTES = 16


class DctInitiator:
    """One DCT endpoint on a node, talking to many targets."""

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self._connected_to = None
        self.connects = 0
        self.data_messages = 0

    def write(self, target: Node, src_addr: int, dst_addr: int, size: int,
              payload=None) -> Generator:
        """DCT write: connect (if switching targets), transmit, detach.

        Use as ``yield from initiator.write(...)``.
        """
        sim = self.sim
        fabric = self.node.fabric
        nic = self.node.nic
        if self._connected_to is not target:
            # Inline connect message establishes the remote context; the
            # previous context is destroyed on switch.
            self.connects += 1
            yield from nic.pipeline.use(nic.tx(None, None, _CONNECT_BYTES)[0])
            yield sim.timeout(fabric.params.latency_ns)
            yield from target.nic.pipeline.use(target.nic.rx_control())
            # Hardware connect response returns before data flows.
            yield sim.timeout(fabric.params.latency_ns)
            self._connected_to = target
        yield sim.timeout(nic.params.mmio_doorbell_ns)
        # Data transmission: shared context, so no connection-cache key.
        yield from nic.pipeline.use(nic.tx(None, src_addr, size)[0])
        yield sim.timeout(fabric.params.latency_ns)
        yield from target.nic.pipeline.use(target.nic.rx_write(dst_addr, size))
        if payload is not None:
            target.store(dst_addr, payload)
        self.data_messages += 1
        # ACK return flight (DCT is a reliable transport).
        yield sim.timeout(fabric.params.latency_ns)


def run_dct_outbound(config: RawVerbConfig) -> RawVerbResult:
    """The Figure-1(b)-style outbound experiment over DCT.

    Each server thread round-robins over the clients, so nearly every
    message switches targets and pays the connect exchange — the paper's
    small-message worst case.
    """
    sim = Simulator()
    fabric = Fabric(sim)
    server = Node(sim, "server", fabric)
    machines = [Node(sim, f"m{i}", fabric) for i in range(config.n_client_machines)]
    source = server.register_memory(1 << 20)
    targets = []
    for index in range(config.n_clients):
        machine = machines[index % len(machines)]
        region = machine.register_memory(
            config.block_size, access=Access.all_remote(), huge_pages=False
        )
        targets.append((machine, region.range.base))
    counter = {"ops": 0}
    initiators = [DctInitiator(server) for _ in range(config.n_server_threads)]

    def thread(sim, thread_index):
        initiator = initiators[thread_index]
        cursor = thread_index
        while True:
            machine, addr = targets[cursor % len(targets)]
            cursor += config.n_server_threads
            yield from initiator.write(machine, source.range.base, addr,
                                       MESSAGE_BYTES)
            counter["ops"] += 1

    for t in range(config.n_server_threads):
        sim.process(thread(sim, t), name=f"dct.{t}")
    monitor = CounterMonitor(sim, server.counters, server.llc)
    sim.run(until=config.warmup_ns)
    start = counter["ops"]
    monitor.start()
    sim.run(until=config.warmup_ns + config.measure_ns)
    rates = monitor.stop()
    completed = counter["ops"] - start
    return RawVerbResult(
        throughput_mops=completed * NS_PER_S / config.measure_ns / 1e6,
        pcie_rd_cur_mops=rates.pcie_rd_cur_per_s / 1e6,
        pcie_itom_mops=rates.pcie_itom_per_s / 1e6,
        l3_miss_rate=rates.l3_miss_rate,
        completed=completed,
    )


@dataclass(frozen=True)
class LatencyComparison:
    """Single-message latency, RC vs DCT (switching targets)."""

    rc_ns: int
    dct_ns: int

    @property
    def dct_penalty_ns(self) -> int:
        return self.dct_ns - self.rc_ns


def compare_rc_dct_latency(message_bytes: int = 32) -> LatencyComparison:
    """One write to a fresh target over RC (warm QP) vs DCT (connect)."""
    from ..rdma import Transport, post_write

    # RC, warm connection.
    sim = Simulator()
    fabric = Fabric(sim)
    a = Node(sim, "a", fabric)
    b = Node(sim, "b", fabric)
    qp_a = a.create_qp(Transport.RC)
    qp_b = b.create_qp(Transport.RC)
    qp_a.connect(qp_b)
    src = a.register_memory(4096)
    dst = b.register_memory(4096)
    # Warm the caches with one write.
    warm = post_write(qp_a, src.range.base, dst.range.base, message_bytes)
    sim.run()
    start = sim.now
    wr = post_write(qp_a, src.range.base, dst.range.base, message_bytes)
    sim.run()
    rc_ns = wr.completion.value.timestamp_ns - start

    # DCT, switching to a new target (pays the connect).
    sim = Simulator()
    fabric = Fabric(sim)
    a = Node(sim, "a", fabric)
    b = Node(sim, "b", fabric)
    c = Node(sim, "c", fabric)
    src = a.register_memory(4096)
    dst_b = b.register_memory(4096)
    dst_c = c.register_memory(4096)
    initiator = DctInitiator(a)
    times = {}

    def driver(sim):
        # Establish to c, then switch to b: the measured write pays the
        # connect exchange.
        yield from initiator.write(c, src.range.base, dst_c.range.base, message_bytes)
        start = sim.now
        yield from initiator.write(b, src.range.base, dst_b.range.base, message_bytes)
        times["dct"] = sim.now - start

    sim.process(driver(sim))
    sim.run()
    return LatencyComparison(rc_ns=rc_ns, dct_ns=times["dct"])
