"""Unit tests for Resource and Store."""

import tracemalloc

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self, sim):
        res = Resource(sim, capacity=2)
        assert res.request().triggered
        assert res.request().triggered
        assert res.in_use == 2

    def test_waiters_queue_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(sim, tag, hold):
            yield res.request()
            order.append(("start", tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(worker(sim, "a", 10))
        sim.process(worker(sim, "b", 10))
        sim.process(worker(sim, "c", 10))
        sim.run()
        assert order == [("start", "a", 0), ("start", "b", 10), ("start", "c", 20)]

    def test_use_helper_serializes(self, sim):
        res = Resource(sim, capacity=1)
        done = []

        def worker(sim, tag):
            yield from res.use(5)
            done.append((tag, sim.now))

        for tag in range(3):
            sim.process(worker(sim, tag))
        sim.run()
        assert done == [(0, 5), (1, 10), (2, 15)]

    def test_release_idle_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.queue_length == 2

    def test_utilization_single_worker(self, sim):
        res = Resource(sim, capacity=1)

        def worker(sim):
            yield sim.timeout(50)
            yield from res.use(50)

        sim.process(worker(sim))
        sim.run(until=100)
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_zero_window(self, sim):
        res = Resource(sim, capacity=1)
        assert res.utilization() == 0.0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered
        assert got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        result = []

        def getter(sim):
            item = yield store.get()
            result.append((sim.now, item))

        def putter(sim):
            yield sim.timeout(40)
            store.put("late")

        sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert result == [(40, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        assert [store.get().value for _ in range(3)] == [0, 1, 2]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        result = []

        def getter(sim, tag):
            item = yield store.get()
            result.append((tag, item))

        def putter(sim):
            yield sim.timeout(1)
            store.put("first")
            store.put("second")

        sim.process(getter(sim, "g1"))
        sim.process(getter(sim, "g2"))
        sim.process(putter(sim))
        sim.run()
        assert result == [("g1", "first"), ("g2", "second")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)
        store.put(9)
        assert store.try_get() == (True, 9)
        assert len(store) == 0

    def test_fifo_across_lazily_built_queues(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)
        early = store.get()  # a getter before any item builds the getter queue
        store.put("a")  # wakes it
        store.put("b")  # the first queued item builds the item queue
        store.put("c")
        late = store.get()
        assert (early.value, late.value) == ("a", "b")
        assert store.try_get() == (True, "c")
        assert store.try_get() == (False, None)
        store.put("d")
        assert store.get().value == "d"

    def test_unused_store_allocates_no_queue(self, sim):
        # A deque is 760 bytes; most completion queues never hold anything.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = [Store(sim) for _ in range(200)]
            per_store = (tracemalloc.get_traced_memory()[0] - before) / len(stores)
        finally:
            tracemalloc.stop()
        assert per_store < 400
