"""Shared-resource primitives for the simulation kernel.

- :class:`Resource` — a counted resource (e.g. a NIC processing pipeline or
  a pool of CPU cores) with FIFO granting.
- :class:`Store` — an unbounded FIFO queue of items with blocking ``get``.

Both integrate with :mod:`repro.sim.engine` by returning events that
processes ``yield`` on; both also queue continuations
(:meth:`Resource.acquire`, :meth:`Store.take`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional, Union

from .engine import Continuation, Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]

#: Stands in for a queue that has never held anything: most completion
#: queues stay empty for a whole run, so their deques are built on first use.
_NEVER_USED: tuple = ()


class Resource:
    """A resource with ``capacity`` identical slots, granted FIFO.

    Typical use inside a process::

        yield from nic_pipeline.use(service_time_ns)

    or the explicit form when the hold time is not a simple delay::

        yield pipeline.request()
        try:
            ...
        finally:
            pipeline.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Union[Event, Continuation]] = deque()
        # Aggregate accounting for utilization reporting.
        self.total_busy_ns = 0
        self._busy_since: Optional[int] = None

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of waiters (processes or continuations) queued for a slot."""
        return len(self._waiters)

    def _note_busy_edge(self) -> None:
        if self._in_use > 0 and self._busy_since is None:
            self._busy_since = self.sim.now
        elif self._in_use == 0 and self._busy_since is not None:
            self.total_busy_ns += self.sim.now - self._busy_since
            self._busy_since = None

    def request(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        event = Event(self.sim)
        self.acquire(event)
        return event

    def acquire(self, waiter: Union[Event, Continuation]) -> None:
        """Grant ``waiter`` a slot (``waiter.succeed(self)``) now if one is
        free, else at the release that frees one; events and continuations
        wait in one FIFO."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self._note_busy_edge()
            waiter.succeed(self)
        else:
            self._waiters.append(waiter)
        # Occupancy bound, always on (graduated from SimSanitizer): a
        # grant may never push occupancy past capacity or below zero.
        assert 0 <= self._in_use <= self.capacity, (
            f"resource {self.name!r}: in_use={self._in_use} "
            f"outside [0, {self.capacity}]"
        )

    def release(self) -> None:
        """Release one held slot, granting it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; occupancy stays.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
            self._note_busy_edge()
        assert 0 <= self._in_use <= self.capacity, (
            f"resource {self.name!r}: in_use={self._in_use} "
            f"outside [0, {self.capacity}]"
        )

    def use(self, duration: int) -> Generator:
        """Acquire a slot, hold it for ``duration`` ns, release it.

        Use as ``yield from resource.use(ns)``.
        """
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of time at least one slot was busy.

        ``elapsed_ns`` defaults to the current simulation time.
        """
        busy = self.total_busy_ns
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        window = self.sim.now if elapsed_ns is None else elapsed_ns
        return busy / window if window > 0 else 0.0


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event carrying the item.
    Items are matched to getters in FIFO order on both sides.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = _NEVER_USED
        self._getters: deque[Union[Event, Continuation]] = _NEVER_USED

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self._items is _NEVER_USED:
            self._items = deque((item,))
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.sim)
        self.take(event)
        return event

    def take(self, waiter: Union[Event, Continuation]) -> None:
        """``waiter.succeed(item)`` now if an item is queued, else at the
        ``put`` that brings one; events and continuations wait in one FIFO."""
        if self._items:
            waiter.succeed(self._items.popleft())
        elif self._getters is _NEVER_USED:
            self._getters = deque((waiter,))
        else:
            self._getters.append(waiter)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
