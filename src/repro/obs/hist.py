"""Log-bucketed latency histograms and series anomaly detection.

:class:`LogHistogram` is an HDR-style histogram over non-negative
integers (nanoseconds, in practice).  Values below ``2**(sub_bits+1)``
are recorded exactly; above that, each power-of-two range is split into
``2**sub_bits`` equal sub-buckets, bounding relative error at
``1 / 2**sub_bits`` regardless of magnitude.  Bucketing is pure integer
arithmetic on the value — no floats, no configuration-dependent
boundaries — so the same values always land in the same buckets and the
exported bucket table is deterministic.

:func:`detect_anomaly` looks at latency/throughput trajectories — sim
epoch series or per-epoch percentiles from merged proc shards, the input
shape is the same ``[[ts, value], ...]`` either way — and flags the three
degradations the ROADMAP's churn/multi-tenant arcs care about: tail
inflation (p99 pulling away from the median), throughput cliffs
(delegating to :func:`~repro.obs.critical.detect_cliff`), and SLO
burn-rate (the fraction of recent points over threshold, the
error-budget view of the same data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .critical import detect_cliff, nearest_rank

__all__ = ["LogHistogram", "Anomaly", "detect_anomaly"]


class LogHistogram:
    """Sparse HDR-style histogram: exact below ``2**(sub_bits+1)``,
    bounded relative error above."""

    __slots__ = ("sub_bits", "_sub", "counts", "total", "sum", "min", "max")

    def __init__(self, sub_bits: int = 4):
        if not 0 < sub_bits <= 16:
            raise ValueError("sub_bits must be in 1..16")
        self.sub_bits = sub_bits
        self._sub = 1 << sub_bits
        self.counts: dict[int, int] = {}
        self.total = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def bucket_index(self, value: int) -> int:
        """The deterministic bucket for ``value`` (non-negative int)."""
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        if value < 2 * self._sub:
            return value  # exact region: one bucket per value
        # msb-relative mantissa keeping sub_bits+1 significant bits, so
        # bucket width / value <= 1/2**sub_bits; flattened so indices
        # stay ordered by value and contiguous across exponents.
        exp = value.bit_length() - self.sub_bits - 1
        mantissa = value >> exp  # in [_sub, 2*_sub)
        return exp * self._sub + mantissa

    def bucket_high(self, index: int) -> int:
        """Largest value mapping to bucket ``index`` (inclusive)."""
        if index < 2 * self._sub:
            return index
        q, r = divmod(index, self._sub)
        # index = exp*_sub + mantissa with mantissa in [_sub, 2*_sub),
        # so the quotient absorbs the mantissa's high bit.
        exp, mantissa = q - 1, r + self._sub
        return ((mantissa + 1) << exp) - 1

    def record(self, value: int, count: int = 1) -> None:
        """Fold ``count`` occurrences of ``value`` in."""
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + count
        self.total += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[int]:
        """Nearest-rank percentile as the upper bound of the bucket the
        rank lands in (``None`` on an empty histogram).  Exact in the
        sub-``2**(sub_bits+1)`` region; within relative error above."""
        if not self.total:
            return None
        rank = nearest_rank(p, self.total)
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                high = self.bucket_high(index)
                return min(high, self.max) if self.max is not None else high
        return self.max

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.total if self.total else None

    def as_buckets(self) -> list[list]:
        """``[[bucket_high, count], ...]`` sorted, JSON-native."""
        return [
            [self.bucket_high(index), self.counts[index]]
            for index in sorted(self.counts)
        ]

    @classmethod
    def from_values(
        cls, values: Sequence[int], sub_bits: int = 4
    ) -> "LogHistogram":
        hist = cls(sub_bits=sub_bits)
        for value in values:
            hist.record(value)
        return hist

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram (same ``sub_bits`` only —
        bucket indices are not comparable across resolutions)."""
        if other.sub_bits != self.sub_bits:
            raise ValueError(
                f"cannot merge sub_bits={other.sub_bits} into "
                f"sub_bits={self.sub_bits}"
            )
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max


@dataclass(frozen=True)
class Anomaly:
    """One detected degradation in a series."""

    kind: str  #: "tail-inflation" | "throughput-cliff" | "slo-burn"
    index: int  #: point index where it was detected
    ts: int
    value: float  #: the offending measurement
    threshold: float  #: what it was compared against
    detail: str


def _window(points: Sequence, n: int) -> list:
    vals = [(i, ts, v) for i, (ts, v) in enumerate(points) if v is not None]
    return vals[-n:] if n else vals


def detect_anomaly(
    latency_p50: Optional[Sequence] = None,
    latency_p99: Optional[Sequence] = None,
    throughput: Optional[Sequence] = None,
    tail_ratio: float = 5.0,
    cliff_drop: float = 0.3,
    slo_ns: Optional[int] = None,
    burn_budget: float = 0.05,
    burn_window: int = 8,
) -> list[Anomaly]:
    """Scan epoch series for the three standard degradations.

    All series are ``[[ts, value], ...]`` (``None`` points skipped), the
    shape both :meth:`MetricsRegistry.as_records` points and merged-shard
    per-epoch summaries use — which is what makes this analyzer backend
    agnostic.

    - **tail inflation**: at any epoch where both are defined,
      ``p99 > tail_ratio * p50`` — the tail detached from the body.
    - **throughput cliff**: :func:`detect_cliff` on ``throughput`` with
      ``cliff_drop``.
    - **SLO burn**: over the trailing ``burn_window`` p99 points, the
      fraction above ``slo_ns`` exceeds ``burn_budget`` (requires
      ``slo_ns``).
    """
    out: list[Anomaly] = []
    if latency_p50 is not None and latency_p99 is not None:
        p50_at = {ts: v for ts, v in latency_p50 if v is not None}
        for index, (ts, p99) in enumerate(latency_p99):
            if p99 is None:
                continue
            p50 = p50_at.get(ts)
            if p50 is None or p50 <= 0:
                continue
            if p99 > tail_ratio * p50:
                out.append(Anomaly(
                    kind="tail-inflation", index=index, ts=ts, value=p99,
                    threshold=tail_ratio * p50,
                    detail=(
                        f"p99={p99:.0f} > {tail_ratio:g}x p50 ({p50:.0f}) "
                        f"at ts={ts}"
                    ),
                ))
    if throughput is not None:
        cliff = detect_cliff(throughput, drop=cliff_drop)
        if cliff is not None:
            out.append(Anomaly(
                kind="throughput-cliff", index=cliff.index, ts=cliff.ts,
                value=cliff.after, threshold=cliff.before * (1 - cliff_drop),
                detail=(
                    f"throughput fell to {cliff.ratio:.2f}x of peak "
                    f"({cliff.after:.0f} vs {cliff.before:.0f}) at ts={cliff.ts}"
                ),
            ))
    if slo_ns is not None and latency_p99 is not None:
        recent = _window(latency_p99, burn_window)
        if recent:
            over = [(i, ts, v) for i, ts, v in recent if v > slo_ns]
            burn = len(over) / len(recent)
            if burn > burn_budget:
                index, ts, value = over[-1]
                out.append(Anomaly(
                    kind="slo-burn", index=index, ts=ts, value=burn,
                    threshold=burn_budget,
                    detail=(
                        f"{len(over)}/{len(recent)} recent p99 points over "
                        f"SLO {slo_ns}ns (burn {burn:.2f} > "
                        f"budget {burn_budget:g})"
                    ),
                ))
    return out
