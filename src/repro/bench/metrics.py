"""Measurement utilities: latency recording and throughput windows.

Latency is recorded per *batch*, exactly as the paper does for Figure 9:
``T2 - T1`` where T1 is when the batch is posted and T2 when all its
responses have returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["LatencyRecorder", "LatencyStats", "throughput_mops"]

from ..sim.engine import NS_PER_S


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of one latency population (all in ns)."""

    count: int
    median_ns: float
    mean_ns: float
    p99_ns: float
    max_ns: float

    def as_us(self) -> dict[str, float]:
        """The paper reports latencies in microseconds."""
        return {
            "median_us": self.median_ns / 1e3,
            "mean_us": self.mean_ns / 1e3,
            "p99_us": self.p99_ns / 1e3,
            "max_us": self.max_ns / 1e3,
        }


class LatencyRecorder:
    """Accumulates latency samples and answers distribution queries."""

    def __init__(self):
        self._samples: list[int] = []

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)

    def extend(self, latencies: Iterable[int]) -> None:
        for value in latencies:
            self.record(value)

    def _ordered(self) -> list[int]:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return sorted(self._samples)

    def stats(self) -> LatencyStats:
        ordered = self._ordered()
        n = len(ordered)
        upper = float(ordered[n // 2])
        return LatencyStats(
            count=n,
            median_ns=upper if n % 2 else (float(ordered[n // 2 - 1]) + upper) / 2,
            # Integer-ns sums stay far below 2**53: one exact sum, one division.
            mean_ns=sum(ordered) / n,
            p99_ns=_linear_percentile(ordered, 99),
            max_ns=float(ordered[-1]),
        )

    def percentile(self, q: float) -> float:
        """The q-th percentile (0-100), in ns; ``ValueError`` outside that."""
        return _linear_percentile(self._ordered(), q)

    def cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """(latency_us, cumulative_fraction) pairs for CDF plotting, at
        ``points`` >= 2 evenly spaced fractions from 0 to 1 inclusive."""
        if points < 2:
            raise ValueError(f"a CDF needs at least 2 points, got {points}")
        ordered = self._ordered()
        last = len(ordered) - 1
        step = 1 / (points - 1)
        fractions = [k * step for k in range(points - 1)] + [1.0]
        return [(ordered[min(int(f * last), last)] / 1e3, f) for f in fractions]

    def clear(self) -> None:
        self._samples.clear()


def _linear_percentile(ordered: list[int], q: float) -> float:
    """The *linear* percentile of ascending samples, in the exact lerp form
    DESIGN.md §7 fixes: from ``b`` downwards in the upper half of a gap.
    The two forms round differently, and the digits are program output."""
    if not 0 <= q <= 100:  # NaN fails both comparisons
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    last = len(ordered) - 1
    v = last * (q / 100)
    lo = int(v)
    a, b = float(ordered[lo]), float(ordered[min(lo + 1, last)])
    t = v - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def throughput_mops(completed: int, window_ns: int) -> float:
    """Operations per second in millions over a window."""
    if window_ns <= 0:
        raise ValueError("window must be positive")
    return completed * NS_PER_S / window_ns / 1e6
