"""Discrete-event simulation kernel.

A lean, deterministic event-driven simulator in the style of SimPy:
*processes* are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events trigger.  Simulated time is an integer number
of nanoseconds; the kernel never consults the wall clock, so runs are fully
reproducible.

The kernel is deliberately small: events, timeouts, processes,
continuations, and a scheduler.  Resources and stores build on top of it in
:mod:`repro.sim.resources`.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(10)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
10
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "NS_PER_S",
    "Event",
    "Timeout",
    "Process",
    "Continuation",
    "AnyOf",
    "AllOf",
    "Simulator",
    "SimulationError",
    "Interrupt",
]


#: Nanoseconds per second — the kernel's time unit is the integer ns, so
#: every rate conversion in the repo shares this one definition.
NS_PER_S = 1_000_000_000


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled for callback delivery
_PROCESSED = 2  # callbacks delivered


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, after which all registered callbacks run at the current
    simulated time.  Triggering twice is an error.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: The waiters, in registration order; ``()`` once delivered.
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been delivered."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._state == _PENDING:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event triggered twice")
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        # Fast path: a just-triggered event delivers at the current
        # instant; appending to the ready FIFO skips the heap entirely.
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._state != _PENDING:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._value = exception
        self._ok = False
        self.sim._ready.append(self)
        return self

    def _deliver(self) -> None:
        self._state = _PROCESSED
        callbacks = self.callbacks
        # A processed event takes no more callbacks (``add_callback`` runs
        # them at once); dropping the list releases the waiters it holds.
        self.callbacks = ()
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event already fired, the callback runs immediately.
        """
        if self._state == _PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__'s slots, filled here: one call per timeout less.
        self.sim = sim
        self.callbacks = []
        # Stays pending until the scheduler delivers it at now + delay.
        self._state = _PENDING
        self._value = value
        self._ok = True
        self.delay = delay
        sim._schedule(sim.now + delay, self)


class Process(Event):
    """Drives a generator; the process *is* an event that triggers when
    the generator returns (value = the ``return`` value) or raises.
    """

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError("process requires a generator")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current time.
        bootstrap = Event(sim)
        bootstrap.succeed()
        bootstrap.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if not self.is_alive:
            return
        interrupter = Event(self.sim)
        interrupter.fail(Interrupt(cause))
        interrupter.add_callback(self._resume)

    def _resume(self, trigger: Event) -> None:
        # ``trigger`` is always a delivered event, so its slots are read
        # directly: the ``value`` property's pending check cannot fire.
        if self._state != _PENDING:
            return  # already finished (e.g. interrupted then completed)
        # Detach from whatever we were waiting on; stale triggers for an
        # interrupted process are filtered by identity.
        waiting_on = self._waiting_on
        if waiting_on is not None and trigger is not waiting_on:
            if not isinstance(trigger._value, Interrupt):
                return
            # fall through: deliver the interrupt even while waiting
        self._waiting_on = None
        generator = self.generator
        # Iterative resume loop: yielding an already-processed event (a
        # ready Store item, a completed handle) continues immediately
        # without recursing, so long chains of ready events are safe.
        while True:
            try:
                if trigger._ok:
                    target = generator.send(trigger._value)
                else:
                    target = generator.throw(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                self.fail(exc)
                return
            except BaseException as exc:
                self.fail(exc)
                raise
            if not isinstance(target, Event):
                generator.throw(
                    SimulationError(f"process yielded non-event: {target!r}")
                )
                return
            if target._state == _PROCESSED:
                trigger = target
                continue
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return


class Continuation:
    """A flow the kernel steps itself, with no generator and no events.

    The ready FIFO and the heap hold anything with a ``_deliver()``; a
    continuation's runs ``step(self)``.  It enqueues itself where a
    process would create its bootstrap event, a timeout or a grant, so
    every hop keeps its ``(time, seq)``; finishing enqueues nothing.
    ``step`` is a plain function, never a bound method stored on the
    object (a reference cycle per flow, with GC paused in ``run()``).
    """

    __slots__ = ("sim", "step")
    name = "continuation"  # actor name for the model checker

    def _deliver(self) -> None:
        self.step(self)

    def after(self, delay: int, step: Callable[["Continuation"], None]) -> None:
        """Run ``step`` ``delay`` ns from now: a timeout's hop."""
        self.step = step
        sim = self.sim
        sim._schedule(sim.now + delay, self)

    def succeed(self, _value: Any = None) -> None:
        """Run ``step`` now: a succeeded event's hop, and a Resource grant."""
        sim = self.sim
        sim._schedule(sim.now, self)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is a dict mapping triggered events to their values.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, _event: Event) -> None:
        if self.triggered:
            return
        done = {e: e.value for e in self.events if e.triggered and e.ok}
        failed = [e for e in self.events if e.triggered and not e.ok]
        if failed:
            self.fail(failed[0].value)
        elif done:
            self.succeed(done)


class AllOf(Event):
    """Triggers when all ``events`` have triggered.

    The value is a list of the events' values, in input order.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, _event: Event) -> None:
        if self.triggered:
            return
        failed = [e for e in self.events if e.triggered and not e.ok]
        if failed:
            self.fail(failed[0].value)
            return
        if all(e.triggered for e in self.events):
            self.succeed([e.value for e in self.events])


class Simulator:
    """The event scheduler.

    Time is an integer (nanoseconds by convention throughout this
    repository).  Events scheduled at the same instant are delivered in
    scheduling order (FIFO), which keeps runs deterministic.

    Two structures implement that order.  Future events sit in a heap
    keyed by ``(time, seq)``.  Same-instant events — the dominant traffic
    of the RPC hot path: ``succeed()``, store hand-offs, zero-delay
    timeouts — go to a plain FIFO deque instead, skipping the heap.  The
    global FIFO order is preserved by one invariant: the heap never holds
    an event scheduled *at* the current instant (zero-delay scheduling
    goes to the deque, and advancing time drains every heap entry at the
    new instant into the deque ahead of anything posted afterwards), so
    heap entries for ``now`` always precede deque entries in seq order.
    """

    def __init__(self):
        self.now: int = 0
        #: Both hold events and continuations: anything with ``_deliver()``.
        self._queue: list[tuple[int, int, Event]] = []
        #: Same-instant delivery FIFO (the fast path).
        self._ready: deque[Event] = deque()
        self._seq = 0
        self._running = False
        #: Optional tie-break hook over the same-instant ready set,
        #: consulted only by :meth:`step` (never by the ``run()`` hot
        #: loop): ``tiebreak(ready)`` returns the index of the event to
        #: deliver next.  ``None`` (the default) keeps FIFO order.  The
        #: schedule-space model checker (:mod:`repro.analysis.mc`) uses
        #: this to enumerate orderings of commutable same-instant events;
        #: ordinary simulations never set it.
        self.tiebreak: Optional[Callable[["deque[Event]"], int]] = None

    # -- scheduling -----------------------------------------------------

    def _schedule(self, at: int, event: Event) -> None:
        if at == self.now:
            self._ready.append(event)
            return
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (at, seq, event))

    # -- public API -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first of ``events``."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for all of ``events``."""
        return AllOf(self, events)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        if self._ready:
            return self.now
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Deliver the next event's callbacks, advancing time.

        Unlike the ``run()`` hot loop, ``step`` consults the optional
        :attr:`tiebreak` hook when several same-instant events are ready,
        letting a driver (the model checker) choose the delivery order.
        With ``tiebreak`` unset the delivered order is identical to
        ``run()``'s FIFO order.
        """
        ready = self._ready
        if not ready:
            queue = self._queue
            at, _seq, event = heapq.heappop(queue)
            if at < self.now:
                raise SimulationError("time went backwards")
            self.now = at
            # Pull every heap entry at the new instant into the ready
            # FIFO: they were scheduled before anything the deliveries
            # below may post, and by default must run first.
            ready.append(event)
            while queue and queue[0][0] == at:
                ready.append(heapq.heappop(queue)[2])
        if self.tiebreak is not None and len(ready) > 1:
            index = self.tiebreak(ready)
            if index:
                event = ready[index]
                del ready[index]
                event._deliver()
                return
        ready.popleft()._deliver()

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if no event falls on that instant.

        Automatic cyclic GC is paused for the run and its prior state
        restored after: a run makes no cyclic garbage (DESIGN.md §7,
        guarded by ``tests/sim/test_no_cyclic_garbage.py``), so the
        collector's passes over the growing heap would find nothing.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        collecting = gc.isenabled()
        gc.disable()
        self._running = True
        ready = self._ready
        ready_popleft = ready.popleft
        ready_append = ready.append
        queue = self._queue
        heappop = heapq.heappop
        try:
            if until is None or self.now <= until:
                while True:
                    # Hot loop: drain same-instant deliveries FIFO.
                    while ready:
                        ready_popleft()._deliver()
                    if not queue:
                        break
                    at = queue[0][0]
                    if until is not None and at > until:
                        break
                    # Advance time, collecting every event at the new
                    # instant so later same-instant posts queue behind.
                    self.now = at
                    ready_append(heappop(queue)[2])
                    while queue and queue[0][0] == at:
                        ready_append(heappop(queue)[2])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            if collecting:
                gc.enable()
