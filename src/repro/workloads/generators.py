"""Raw RDMA verb workload generators (paper Figures 1(b), 3(a), 3(b)).

These drive the verb layer directly — no RPC — reproducing the paper's
motivation experiments: 10 server threads posting 32-byte outbound writes
to a growing set of clients, or clients posting inbound writes into
per-client message-block regions that server threads consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from ..core.msgpool import BlockCursor
from ..memsys import CounterMonitor
from ..rdma import Access, Fabric, Node, NicParams, Transport, post_recv, post_send, post_write
from ..sim import NS_PER_S, Simulator, Store

__all__ = ["RawVerbConfig", "RawVerbResult", "run_outbound_write", "run_inbound_write", "run_ud_send"]

#: The paper's motivation experiments post 32-byte messages.
MESSAGE_BYTES = 32
#: Verbs a server thread posts per window; only the last is signaled.
OUTSTANDING_PER_THREAD = 8


@dataclass
class RawVerbConfig:
    """One raw-verb experiment (paper Section 2.2 methodology)."""

    n_clients: int = 40
    n_client_machines: int = 11
    n_server_threads: int = 10
    block_size: int = 4096
    blocks_per_client: int = 20
    # Inbound experiments need pools to wrap (blocks_per_client messages
    # per client) before the cache steady state is representative.
    warmup_ns: int = 200_000
    measure_ns: int = 1_000_000
    #: Override the server NIC model (e.g. a newer HCA's larger caches).
    server_nic_params: Optional[NicParams] = None


@dataclass
class RawVerbResult:
    """Throughput plus the PCM counters the paper plots alongside."""

    throughput_mops: float
    pcie_rd_cur_mops: float
    pcie_itom_mops: float
    l3_miss_rate: float
    completed: int


def _cluster(config: RawVerbConfig):
    sim = Simulator()
    fabric = Fabric(sim)
    server = Node(sim, "server", fabric, nic_params=config.server_nic_params)
    machines = [Node(sim, f"m{i}", fabric) for i in range(config.n_client_machines)]
    return sim, fabric, server, machines


def _measure(sim, server, config, counter) -> RawVerbResult:
    monitor = CounterMonitor(sim, server.counters, server.llc)
    sim.run(until=config.warmup_ns)
    start_count = counter["ops"]
    monitor.start()
    sim.run(until=config.warmup_ns + config.measure_ns)
    rates = monitor.stop()
    completed = counter["ops"] - start_count
    return RawVerbResult(
        throughput_mops=completed * NS_PER_S / config.measure_ns / 1e6,
        pcie_rd_cur_mops=rates.pcie_rd_cur_per_s / 1e6,
        pcie_itom_mops=rates.pcie_itom_per_s / 1e6,
        l3_miss_rate=rates.l3_miss_rate,
        completed=completed,
    )


def run_outbound_write(config: RawVerbConfig) -> RawVerbResult:
    """Server threads RC-write to a growing set of clients (Fig 1(b)/3(a)
    outbound): the NIC connection caches are the limiter."""
    sim, fabric, server, machines = _cluster(config)
    source = server.register_memory(1 << 20)
    targets = []
    for index in range(config.n_clients):
        machine = machines[index % len(machines)]
        region = machine.register_memory(
            config.block_size, access=Access.all_remote(), huge_pages=False
        )
        server_qp = server.create_qp(Transport.RC)
        client_qp = machine.create_qp(Transport.RC)
        server_qp.connect(client_qp)
        targets.append((server_qp, region.range.base))
    counter = {"ops": 0}

    def thread(sim, thread_index):
        cursor = thread_index
        window = OUTSTANDING_PER_THREAD
        while True:
            # Post a window of unsignaled writes, then one signaled write
            # whose completion paces the loop (standard doorbell batching).
            for _ in range(window - 1):
                qp, addr = targets[cursor % len(targets)]
                cursor += config.n_server_threads
                post_write(qp, source.range.base, addr, MESSAGE_BYTES, signaled=False)
            qp, addr = targets[cursor % len(targets)]
            cursor += config.n_server_threads
            wr = post_write(qp, source.range.base, addr, MESSAGE_BYTES)
            yield wr.completion
            counter["ops"] += window

    for t in range(config.n_server_threads):
        sim.process(thread(sim, t), name=f"out.{t}")
    return _measure(sim, server, config, counter)


def run_inbound_write(config: RawVerbConfig) -> RawVerbResult:
    """Clients RC-write into per-client block regions on the server while
    server threads consume the messages (Fig 1(b)/3(a)/3(b) inbound):
    DDIO/LLC behaviour is the limiter."""
    sim, fabric, server, machines = _cluster(config)
    stores = [Store(sim) for _ in range(config.n_server_threads)]
    region_of = {}
    for index in range(config.n_clients):
        machine = machines[index % len(machines)]
        region = server.register_memory(
            config.block_size * config.blocks_per_client,
            access=Access.all_remote(),
            huge_pages=False,
        )
        client_qp = machine.create_qp(Transport.RC)
        server_qp = server.create_qp(Transport.RC)
        client_qp.connect(server_qp)
        region_of[index] = (machine, client_qp, region)
        server.watch_writes(
            region.range,
            lambda event, idx=index: stores[idx % config.n_server_threads].put(event),
        )
    counter = {"ops": 0}

    def client(sim, index):
        machine, qp, region = region_of[index]
        staging = machine.register_memory(4096)
        cursor = BlockCursor(region.range.base, config.block_size, config.blocks_per_client)
        window = 4
        while True:
            for _ in range(window - 1):
                post_write(qp, staging.range.base,
                           cursor.next(MESSAGE_BYTES), MESSAGE_BYTES,
                           signaled=False)
            wr = post_write(qp, staging.range.base,
                            cursor.next(MESSAGE_BYTES), MESSAGE_BYTES)
            yield wr.completion

    def consumer(sim, thread_index):
        store = stores[thread_index]
        while True:
            event = yield store.get()
            access = server.llc.cpu_access(event.addr, event.size)
            yield sim.timeout(access.cost_ns + 50)
            counter["ops"] += 1

    for index in range(config.n_clients):
        sim.process(client(sim, index), name=f"in.c{index}")
    for t in range(config.n_server_threads):
        sim.process(consumer(sim, t), name=f"in.s{t}")
    return _measure(sim, server, config, counter)


def run_ud_send(config: RawVerbConfig) -> RawVerbResult:
    """Server threads UD-send outbound to a growing set of clients
    (Fig 1(b) UD send): flat, because a UD QP carries no per-destination
    state — the paper's motivation for UD-based RPC designs."""
    sim, fabric, server, machines = _cluster(config)
    counter = {"ops": 0}
    source = server.register_memory(1 << 20)
    destinations = []
    for index in range(config.n_clients):
        machine = machines[index % len(machines)]
        qp = machine.create_qp(Transport.UD, max_recv_wr=1024)
        ring = machine.register_memory(256 * 64, huge_pages=False)
        for i in range(256):
            post_recv(qp, ring.range.base + i * 64, 64)
        destinations.append(qp.address_handle())

        def drain(sim, qp=qp, ring=ring):
            slot = 0
            while True:
                yield qp.recv_cq.get_event()
                post_recv(qp, ring.range.base + slot * 64, 64)
                slot = (slot + 1) % 256

        sim.process(drain(sim), name=f"ud.drain{index}")
    ud_qps = [server.create_qp(Transport.UD) for _ in range(config.n_server_threads)]

    def thread(sim, thread_index):
        qp = ud_qps[thread_index]
        cursor = thread_index
        window = OUTSTANDING_PER_THREAD
        while True:
            for _ in range(window - 1):
                post_send(qp, MESSAGE_BYTES, local_addr=source.range.base,
                          dest=destinations[cursor % len(destinations)], signaled=False)
                cursor += config.n_server_threads
            wr = post_send(qp, MESSAGE_BYTES, local_addr=source.range.base,
                           dest=destinations[cursor % len(destinations)])
            cursor += config.n_server_threads
            yield wr.completion
            counter["ops"] += window

    for t in range(config.n_server_threads):
        sim.process(thread(sim, t), name=f"ud.s{t}")
    return _measure(sim, server, config, counter)
