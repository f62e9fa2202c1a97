"""The real-process backend's clock: run-relative monotonic nanoseconds,
plus the offset estimation that lets per-process trace shards be merged.

The simulation's only clock is ``sim.now`` (integer ns from time zero).
The real-process backend mirrors that shape — every timestamp it emits is
an integer nanosecond offset from the moment its :class:`Clock` was
created — so :mod:`repro.obs` artifacts from both backends read the same
way (spans start near 0, durations are ns).

Because every process zeroes its own clock, two processes' timestamps
live in *different clock domains*: a server event at ``t=5ms`` and a
client event at ``t=5ms`` are unrelated instants.  The
:class:`OffsetEstimator` closes that gap with the classic four-timestamp
exchange (NTP's symmetric-delay estimate): each traced RPC yields a
sample ``(t0, t1, t2, t3)`` — client post, server dispatch, server done,
client complete — whose offset estimate is ``((t1-t0) + (t2-t3)) / 2``.
The sample with the smallest round trip bounds the error tightest (by
``rtt/2``), so that is the one the merge collector uses.

This is the one place in ``src/repro`` that legitimately reads wall-clock
time: the proc backend *is* reality, not a simulation of it.  The lint's
wall-clock rule is suppressed here, and only here, for that reason.

``skew_ns`` / ``drift_ppm`` are *test injection* knobs: they displace and
stretch this process's clock domain deterministically, so the shard-merge
tests can prove clock alignment recovers a known skew without depending
on two machines actually disagreeing.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Clock", "OffsetEstimator", "estimate_offset"]


class Clock:
    """Integer-ns monotonic time, zeroed at construction.

    ``skew_ns`` shifts every reading by a constant; ``drift_ppm``
    stretches it by parts-per-million (both integer arithmetic, so a
    given true elapsed time always maps to the same reading).
    """

    __slots__ = ("_t0", "skew_ns", "drift_ppm")

    def __init__(self, skew_ns: int = 0, drift_ppm: int = 0) -> None:
        self.skew_ns = skew_ns
        self.drift_ppm = drift_ppm
        self._t0 = time.monotonic_ns()  # flowlint: ignore[wall-clock] — proc backend is real time

    def now(self) -> int:
        """Nanoseconds since this clock was created (skew/drift applied)."""
        t = time.monotonic_ns() - self._t0  # flowlint: ignore[wall-clock] — proc backend is real time
        if self.drift_ppm:
            t += t * self.drift_ppm // 1_000_000
        return t + self.skew_ns


def estimate_offset(t0: int, t1: int, t2: int, t3: int) -> tuple[int, int]:
    """One sample's ``(offset_ns, rtt_ns)`` estimate.

    ``offset_ns`` is *server clock minus client clock*: adding it to a
    client timestamp lands the event in the server's clock domain.
    ``rtt_ns`` is the round trip net of server hold time; the true offset
    lies within ``rtt_ns / 2`` of the estimate.
    """
    offset = ((t1 - t0) + (t2 - t3)) // 2
    rtt = (t3 - t0) - (t2 - t1)
    return offset, rtt


class OffsetEstimator:
    """Accumulates four-timestamp samples; reports the min-RTT estimate.

    Deterministic: given the same sample sequence, the same sample wins
    (smallest RTT, earliest on ties), so merged artifacts built from the
    same shards are byte-identical.
    """

    __slots__ = ("max_samples", "n_samples", "_best")

    def __init__(self, max_samples: int = 65_536):
        self.max_samples = max_samples
        self.n_samples = 0
        self._best: Optional[tuple[int, int]] = None  # (rtt, offset)

    def add_sample(self, t0: int, t1: int, t2: int, t3: int) -> None:
        """Fold in one exchange; samples past ``max_samples`` are ignored
        (the bound only exists to keep a pathological run from spinning)."""
        if self.n_samples >= self.max_samples:
            return
        self.n_samples += 1
        offset, rtt = estimate_offset(t0, t1, t2, t3)
        if rtt < 0:
            return  # the server clock went backwards mid-RPC; unusable
        if self._best is None or rtt < self._best[0]:
            self._best = (rtt, offset)

    @property
    def offset_ns(self) -> Optional[int]:
        """Best offset estimate (server - client), ``None`` if no sample."""
        return self._best[1] if self._best is not None else None

    @property
    def rtt_ns(self) -> Optional[int]:
        """Round trip of the winning sample (error bound is half this)."""
        return self._best[0] if self._best is not None else None

    def as_dict(self) -> dict:
        """JSON-native summary for a shard's ``meta["clock_sync"]``."""
        return {
            "offset_ns": self.offset_ns,
            "rtt_ns": self.rtt_ns,
            "n_samples": self.n_samples,
        }
