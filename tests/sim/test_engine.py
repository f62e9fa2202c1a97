"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeout:
    def test_advances_time(self, sim):
        def proc(sim):
            yield sim.timeout(25)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 25

    def test_zero_delay_is_allowed(self, sim):
        def proc(sim):
            yield sim.timeout(0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 0

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_fifo_at_same_instant(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(10)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "done"

    def test_process_waits_on_event(self, sim):
        gate = sim.event()

        def opener(sim):
            yield sim.timeout(50)
            gate.succeed("open")

        def waiter(sim):
            value = yield gate
            return (sim.now, value)

        w = sim.process(waiter(sim))
        sim.process(opener(sim))
        sim.run()
        assert w.value == (50, "open")

    def test_process_join(self, sim):
        def inner(sim):
            yield sim.timeout(30)
            return 3

        def outer(sim):
            result = yield sim.process(inner(sim))
            return result * 2

        p = sim.process(outer(sim))
        sim.run()
        assert p.value == 6

    def test_failed_event_raises_in_process(self, sim):
        gate = sim.event()

        def failer(sim):
            yield sim.timeout(5)
            gate.fail(ValueError("boom"))

        def waiter(sim):
            try:
                yield gate
            except ValueError as exc:
                return str(exc)

        w = sim.process(waiter(sim))
        sim.process(failer(sim))
        sim.run()
        assert w.value == "boom"

    def test_uncaught_process_exception_propagates(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("bug")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="bug"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)


class TestRun:
    def test_run_until_stops_early(self, sim):
        ticks = []

        def ticker(sim):
            while True:
                yield sim.timeout(10)
                ticks.append(sim.now)

        sim.process(ticker(sim))
        sim.run(until=35)
        assert ticks == [10, 20, 30]
        assert sim.now == 35

    def test_run_until_advances_idle_clock(self, sim):
        sim.run(until=1000)
        assert sim.now == 1000

    def test_resume_after_until(self, sim):
        ticks = []

        def ticker(sim):
            while True:
                yield sim.timeout(10)
                ticks.append(sim.now)

        sim.process(ticker(sim))
        sim.run(until=20)
        sim.run(until=50)
        assert ticks == [10, 20, 30, 40, 50]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(5)
        assert sim.peek() == 5


class TestRunGcState:
    """``run()`` pauses automatic cyclic GC and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_run_and_enabled_after(self, sim):
        seen = []

        def proc(sim):
            yield sim.timeout(1)
            seen.append(gc.isenabled())

        gc.enable()
        sim.process(proc(sim))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, sim):
        sim.timeout(1)
        gc.disable()
        sim.run()
        assert not gc.isenabled()

    def test_restored_when_a_process_raises(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("bug")

        gc.enable()
        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="bug"):
            sim.run()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_rejected_nested_run_leaves_gc_alone(self, sim, enabled):
        seen = []

        def nested(sim):
            yield sim.timeout(1)
            if enabled:
                gc.enable()
            else:
                gc.disable()
            with pytest.raises(SimulationError, match="reentrant"):
                sim.run()
            seen.append(gc.isenabled())

        sim.process(nested(sim))
        sim.run()
        assert seen == [enabled]
