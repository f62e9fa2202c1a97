"""Kernel edge cases locked down before (and preserved by) the fast path.

These tests pin the delivery semantics the rest of the repository depends
on: strict FIFO among same-instant events regardless of how they were
scheduled, ``run(until=)`` boundary behavior, and re-entrancy rejection.
"""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSameInstantFifo:
    def test_mixed_zero_timeouts_and_succeeds_deliver_in_creation_order(self, sim):
        """Zero-delay timeouts and manual succeed()s at one instant must
        interleave in scheduling order, not by mechanism."""
        order = []

        def proc(sim):
            yield sim.timeout(5)
            t1 = sim.timeout(0, "t1")
            e1 = sim.event()
            e1.succeed("e1")
            t2 = sim.timeout(0, "t2")
            e2 = sim.event()
            e2.succeed("e2")
            for event in (t1, e1, t2, e2):
                event.add_callback(lambda e: order.append(e.value))
            yield sim.timeout(1)

        sim.process(proc(sim))
        sim.run()
        assert order == ["t1", "e1", "t2", "e2"]

    def test_succeed_chain_stays_fifo(self, sim):
        """Events succeeded from callbacks land behind already-posted ones."""
        order = []
        first, second, chained = sim.event(), sim.event(), sim.event()
        first.add_callback(lambda e: (order.append("first"), chained.succeed()))
        second.add_callback(lambda e: order.append("second"))
        chained.add_callback(lambda e: order.append("chained"))
        first.succeed()
        second.succeed()
        sim.run()
        assert order == ["first", "second", "chained"]

    def test_processes_started_together_resume_in_start_order(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(7)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestRunUntil:
    def test_event_at_exact_until_is_delivered(self, sim):
        seen = []
        sim.timeout(10).add_callback(lambda e: seen.append(10))
        sim.timeout(11).add_callback(lambda e: seen.append(11))
        sim.run(until=10)
        assert seen == [10]
        assert sim.now == 10
        sim.run()
        assert seen == [10, 11]
        assert sim.now == 11

    def test_time_advances_to_until_with_no_events(self, sim):
        sim.run(until=123)
        assert sim.now == 123

    def test_time_advances_to_until_past_last_event(self, sim):
        sim.timeout(10)
        sim.run(until=40)
        assert sim.now == 40

    def test_until_in_the_past_delivers_nothing(self, sim):
        sim.timeout(100)
        sim.run()
        assert sim.now == 100
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("late")
        sim.run(until=50)
        assert seen == [] and sim.now == 100
        sim.run()
        assert seen == ["late"]

    def test_peek_reports_pending_same_instant_event(self, sim):
        sim.timeout(30)
        sim.run()
        assert sim.peek() is None
        sim.event().succeed()
        assert sim.peek() == 30


class TestReentrancy:
    def test_run_inside_run_is_rejected(self, sim):
        outcome = []

        def proc(sim):
            try:
                sim.run()
            except SimulationError:
                outcome.append("rejected")
            yield sim.timeout(1)

        sim.process(proc(sim))
        sim.run()
        assert outcome == ["rejected"]

    def test_running_flag_resets_after_failure(self, sim):
        """A crashed run() must not leave the simulator wedged."""

        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("boom")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.timeout(5)
        sim.run()  # must not raise "not reentrant"
        assert sim.now >= 5
