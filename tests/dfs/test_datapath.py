"""Tests for the DFS data path (shared memory pool, one-sided file I/O)."""

import pytest

from repro.baselines import BaselineConfig
from repro.bench.harness import _assert_cqs_drained
from repro.dfs import (
    DataPath,
    DataServer,
    ExtentAllocator,
    DfsClient,
    FsError,
    MetadataService,
    SelfRpcServer,
)
from repro.rdma import Fabric, Node
from repro.sim import Simulator


def make_dfs_with_data(n_data_servers=2, extent_bytes=64 * 1024):
    sim = Simulator()
    fabric = Fabric(sim)
    mds_node = Node(sim, "mds", fabric)
    data_servers = [
        DataServer(Node(sim, f"ds{i}", fabric), pool_bytes=16 << 20,
                   extent_bytes=extent_bytes)
        for i in range(n_data_servers)
    ]
    mds = MetadataService(mds_node, allocator=ExtentAllocator(data_servers))
    server = SelfRpcServer(
        mds_node,
        mds.handler,
        config=BaselineConfig(block_size=4096, blocks_per_client=8),
        handler_cost_fn=mds.handler_cost_fn,
        response_bytes=mds.response_bytes_fn,
    )
    machine = Node(sim, "m0", fabric)
    client = DfsClient(
        server.connect(machine),
        data_path=DataPath(machine, data_servers),
    )
    server.start()
    return sim, mds, data_servers, client


class TestAllocator:
    def test_round_robin_placement(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        allocator = mds.allocator
        extents = allocator.allocate(3 * 64 * 1024)
        assert [e.server_index for e in extents] == [0, 1, 0]

    def test_partial_last_extent(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        extents = mds.allocator.allocate(100_000)  # 1.5 extents
        assert len(extents) == 2
        assert extents[0].length == 64 * 1024
        assert extents[1].length == 100_000 - 64 * 1024

    def test_pool_exhaustion(self):
        sim = Simulator()
        node = Node(sim, "ds", Fabric(sim))
        server = DataServer(node, pool_bytes=1 << 20, extent_bytes=1 << 20)
        server.allocate_extent()
        with pytest.raises(MemoryError):
            server.allocate_extent()

    def test_no_allocator_configured(self):
        sim = Simulator()
        fabric = Fabric(sim)
        mds = MetadataService(Node(sim, "mds", fabric))
        from repro.core.message import RpcRequest

        result = mds.handler(RpcRequest(1, "fs.alloc", payload=("/f", 100)))
        assert isinstance(result, FsError)


class TestFileIo:
    def test_write_then_read_roundtrip(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mknod("/big.dat")
            yield from client.write_file("/big.dat", 200_000, data="payload-A")
            size, chunks = yield from client.read_file("/big.dat")
            out["size"] = size
            out["chunks"] = chunks

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["size"] == 200_000
        # 200 KB over 64 KB extents = 4 chunks, all carrying our data tag.
        assert len(out["chunks"]) == 4
        assert all(chunk[0] == "payload-A" for chunk in out["chunks"])
        # The one-sided I/O consumes its completions by event: no CQE waits
        # in any CQ for a poll that never comes.
        _assert_cqs_drained([mds.node, client.data_path.machine]
                            + [server.node for server in data_servers])

    def test_appends_extend_layout(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mknod("/log")
            yield from client.write_file("/log", 64 * 1024, data="first")
            yield from client.write_file("/log", 64 * 1024, data="second")
            size, chunks = yield from client.read_file("/log")
            out["size"] = size
            out["tags"] = [chunk[0] for chunk in chunks]

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["size"] == 2 * 64 * 1024
        assert out["tags"] == ["first", "second"]

    def test_stat_reflects_data_size(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mknod("/f")
            yield from client.write_file("/f", 12345)
            st = yield from client.stat("/f")
            out["size"] = st.size

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["size"] == 12345

    def test_read_unwritten_file_is_empty(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mknod("/empty")
            size, chunks = yield from client.read_file("/empty")
            out["size"] = size
            out["chunks"] = chunks

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["size"] == 0
        assert out["chunks"] == []

    def test_data_servers_cpu_not_involved(self):
        """One-sided I/O: the data servers' CPUs stay idle."""
        sim, mds, data_servers, client = make_dfs_with_data()

        def driver(sim):
            yield from client.mknod("/f")
            yield from client.write_file("/f", 256 * 1024)
            yield from client.read_file("/f")

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        for ds in data_servers:
            assert ds.node.cpu.total_busy_ns == 0

    def test_write_without_datapath_raises(self):
        sim = Simulator()
        fabric = Fabric(sim)
        mds_node = Node(sim, "mds", fabric)
        mds = MetadataService(mds_node)
        server = SelfRpcServer(mds_node, mds.handler, config=BaselineConfig())
        client = DfsClient(server.connect(Node(sim, "m", fabric)))
        with pytest.raises(RuntimeError):
            next(client.write_file("/f", 10))

    def test_alloc_on_directory_fails(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mkdir("/d")
            try:
                yield from client.write_file("/d", 100)
            except FsError as exc:
                out["error"] = type(exc).__name__

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["error"] == "FsError"

    def test_bulk_write_throughput_is_wire_bound(self):
        """A multi-megabyte write moves at link speed, not RPC speed."""
        sim, mds, data_servers, client = make_dfs_with_data(extent_bytes=1 << 20)
        out = {}

        def driver(sim):
            yield from client.mknod("/bulk")
            start = sim.now
            yield from client.write_file("/bulk", 8 << 20)
            out["elapsed"] = sim.now - start

        sim.process(driver(sim))
        sim.run(until=500_000_000)
        gb_per_s = (8 << 20) / out["elapsed"]
        # Two data servers: parallel extents can exceed a single link, but
        # the client machine's NIC serializes at ~7 GB/s.
        assert 3.0 < gb_per_s <= 7.5


class TestExtentReclamation:
    def test_rmnod_frees_extents(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        before = sum(ds.free_extents for ds in data_servers)
        out = {}

        def driver(sim):
            yield from client.mknod("/tmpfile")
            yield from client.write_file("/tmpfile", 3 * 64 * 1024)
            out["during"] = sum(ds.free_extents for ds in data_servers)
            yield from client.rmnod("/tmpfile")
            out["after"] = sum(ds.free_extents for ds in data_servers)

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["during"] == before - 3
        assert out["after"] == before

    def test_freed_extents_are_reused(self):
        sim, mds, data_servers, client = make_dfs_with_data()
        out = {}

        def driver(sim):
            yield from client.mknod("/a")
            first = yield from client.write_file("/a", 64 * 1024)
            yield from client.rmnod("/a")
            yield from client.mknod("/b")
            second = yield from client.write_file("/b", 64 * 1024)
            out["first"] = first[0].addr
            out["second"] = second[0].addr

        sim.process(driver(sim))
        sim.run(until=50_000_000)
        assert out["first"] == out["second"]

    def test_free_rejects_bogus_address(self):
        sim = Simulator()
        node = Node(sim, "ds", Fabric(sim))
        server = DataServer(node, pool_bytes=4 << 20, extent_bytes=1 << 20)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            server.free_extent(server.region.range.base + 7)
