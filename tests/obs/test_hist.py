"""Log-bucketed histograms and the anomaly detectors built on them."""

import pytest

from repro.obs.dist import _mix64
from repro.obs.hist import Anomaly, LogHistogram, detect_anomaly


def _pseudo_values(n, bits=48, salt=0):
    """Deterministic magnitude-spanning values (no RNG: lint-clean)."""
    out = []
    for i in range(n):
        word = _mix64(i ^ (salt << 32))
        out.append((word >> (16 + (i % (64 - bits)))) % (1 << bits) + 1)
    return out


class TestBucketing:
    def test_exact_region(self):
        # Values below 2**sub_bits get a bucket each: no error at all.
        hist = LogHistogram()
        for value in range(16):
            assert hist.bucket_high(hist.bucket_index(value)) == value

    def test_relative_error_bound(self):
        hist = LogHistogram(sub_bits=4)
        for value in _pseudo_values(2000):
            high = hist.bucket_high(hist.bucket_index(value))
            assert value <= high
            assert (high - value) / value <= 1 / 16

    def test_finer_sub_bits_tighter_error(self):
        coarse, fine = LogHistogram(sub_bits=2), LogHistogram(sub_bits=6)
        value = 1_000_003
        err = lambda h: h.bucket_high(h.bucket_index(value)) - value  # noqa: E731
        assert err(fine) < err(coarse)

    def test_bucket_index_monotone(self):
        hist = LogHistogram()
        indexes = [hist.bucket_index(v) for v in range(1, 10_000)]
        assert indexes == sorted(indexes)


class TestRecording:
    def test_stats(self):
        hist = LogHistogram.from_values([5, 10, 20, 40])
        assert hist.total == 4
        assert hist.sum == 75
        assert hist.min == 5
        assert hist.max == 40

    def test_mean(self):
        assert LogHistogram.from_values([10, 20]).mean == 15

    def test_weighted_record(self):
        hist = LogHistogram()
        hist.record(100, count=5)
        assert hist.total == 5
        assert hist.sum == 500

    def test_percentile_exact_region(self):
        hist = LogHistogram.from_values(range(10))
        assert hist.percentile(50) == 4

    def test_percentile_clamped_to_max(self):
        hist = LogHistogram.from_values([1_000_000])
        assert hist.percentile(99.9) == 1_000_000

    def test_percentile_error_bound(self):
        values = sorted(_pseudo_values(5000, bits=30, salt=13))
        hist = LogHistogram.from_values(values)
        for p in (50, 90, 99, 99.9):
            exact = values[max(0, -(-int(p * len(values)) // 100) - 1)]
            approx = hist.percentile(p)
            assert abs(approx - exact) / exact <= 1 / 16 + 0.01

    def test_p999_rank_is_not_one_low(self):
        # ceil(0.999 * 995) = 995: the maximum.  ``int(99.9 * 995) // 100``
        # truncated the product first and answered rank 994.
        hist = LogHistogram.from_values(range(1, 996), sub_bits=10)
        assert hist.percentile(99.9) == 995
        assert hist.percentile(99) == 986
        assert hist.percentile(50) == 498

    def test_empty_percentile(self):
        assert LogHistogram().percentile(50) is None

    def test_merge(self):
        a = LogHistogram.from_values([1, 2, 3])
        b = LogHistogram.from_values([100, 200])
        a.merge(b)
        assert a.total == 5
        assert a.max == 200

    def test_merge_requires_same_resolution(self):
        with pytest.raises(ValueError, match="sub_bits"):
            LogHistogram(sub_bits=4).merge(LogHistogram(sub_bits=5))

    def test_buckets_round_trip_percentiles(self):
        hist = LogHistogram.from_values([10, 1000, 100_000] * 7)
        rebuilt = LogHistogram()
        for high, count in hist.as_buckets():
            rebuilt.record(high, count=count)
        assert rebuilt.percentile(50) == hist.percentile(50)


def _series(values, t0=0, dt=1000):
    return [[t0 + i * dt, v] for i, v in enumerate(values)]


class TestDetectAnomaly:
    def test_quiet_series_clean(self):
        anomalies = detect_anomaly(
            latency_p50=_series([100] * 10),
            latency_p99=_series([300] * 10),
            throughput=_series([50] * 10),
        )
        assert anomalies == []

    def test_tail_inflation(self):
        p50 = _series([100] * 10)
        p99 = _series([300] * 9 + [5000])
        anomalies = detect_anomaly(p50, p99, throughput=_series([50] * 10))
        kinds = [a.kind for a in anomalies]
        assert "tail-inflation" in kinds
        [anomaly] = [a for a in anomalies if a.kind == "tail-inflation"]
        assert anomaly.index == 9
        assert anomaly.value == 5000

    def test_throughput_cliff(self):
        throughput = _series([100] * 8 + [20, 20])
        anomalies = detect_anomaly(
            _series([100] * 10), _series([300] * 10), throughput
        )
        assert any(a.kind == "throughput-cliff" for a in anomalies)

    def test_slo_burn(self):
        p99 = _series([300] * 4 + [900] * 8)
        anomalies = detect_anomaly(
            _series([100] * 12), p99, _series([50] * 12),
            slo_ns=500, burn_budget=0.05, burn_window=8,
        )
        burns = [a for a in anomalies if a.kind == "slo-burn"]
        assert burns
        assert all(isinstance(a, Anomaly) for a in burns)

    def test_slo_within_budget_clean(self):
        # One excursion in a window of 20 stays under a 10% budget.
        p99 = _series([300] * 19 + [900])
        anomalies = detect_anomaly(
            _series([100] * 20), p99, _series([50] * 20),
            slo_ns=500, burn_budget=0.10, burn_window=20,
        )
        assert [a for a in anomalies if a.kind == "slo-burn"] == []
