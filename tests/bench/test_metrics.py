"""Tests for the measurement utilities."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import LatencyRecorder, throughput_mops
from repro.sim import RngRegistry


class TestLatencyRecorder:
    def test_empty_stats_raise(self):
        with pytest.raises(ValueError):
            LatencyRecorder().stats()
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(50)
        with pytest.raises(ValueError):
            LatencyRecorder().cdf()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_stats_values(self):
        recorder = LatencyRecorder()
        recorder.extend([1000, 2000, 3000, 4000, 100000])
        stats = recorder.stats()
        assert stats.count == 5
        assert stats.median_ns == 3000
        assert stats.max_ns == 100000
        assert stats.mean_ns == pytest.approx(22000)

    def test_as_us(self):
        recorder = LatencyRecorder()
        recorder.extend([2000, 4000])
        us = recorder.stats().as_us()
        assert us["median_us"] == pytest.approx(3.0)
        assert us["max_us"] == pytest.approx(4.0)

    def test_percentile(self):
        recorder = LatencyRecorder()
        recorder.extend(range(0, 101))
        assert recorder.percentile(50) == pytest.approx(50)
        assert recorder.percentile(99) == pytest.approx(99)

    def test_cdf_monotone(self):
        recorder = LatencyRecorder()
        recorder.extend([5000, 1000, 3000, 2000, 4000])
        points = recorder.cdf(points=10)
        latencies = [p[0] for p in points]
        fractions = [p[1] for p in points]
        assert latencies == sorted(latencies)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_clear(self):
        recorder = LatencyRecorder()
        recorder.record(1)
        recorder.clear()
        assert len(recorder) == 0

    @given(samples=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_stats_bounds(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        stats = recorder.stats()
        assert min(samples) <= stats.median_ns <= max(samples)
        assert stats.max_ns == max(samples)
        assert min(samples) <= stats.mean_ns <= max(samples)


    def test_percentile_outside_range_rejected(self):
        recorder = LatencyRecorder()
        recorder.extend([1, 2, 3])
        for q in (-0.001, 100.001, 1000, float("nan")):
            with pytest.raises(ValueError):
                recorder.percentile(q)

    def test_cdf_needs_two_points(self):
        recorder = LatencyRecorder()
        recorder.extend([1, 2, 3])
        for points in (1, 0, -3):
            with pytest.raises(ValueError):
                recorder.cdf(points)

    def test_stats_json_keeps_float_fields(self):
        recorder = LatencyRecorder()
        recorder.extend([1000, 2000, 3000, 4000, 100000])
        assert json.dumps(asdict(recorder.stats())) == (
            '{"count": 5, "median_ns": 3000.0, "mean_ns": 22000.0, '
            '"p99_ns": 96160.0, "max_ns": 100000.0}'
        )


#: ``(samples, q) -> repr(percentile)`` read off the numpy implementation
#: (``np.percentile(..., q)``, numpy 2.4.6) at the commit before numpy was
#: removed.  Every row differs in its last digits from the textbook
#: ``a + (b - a) * t``, so the table holds the interpolation form where
#: numpy is not installed.
PINNED_PERCENTILES = [
    ([457, 148682, 551], 80.96, "92273.7152"),
    ([315842845, 4816, 91255991], 90, "270925474.2"),
    ([552246, 311567318, 602939495], 99.9, "602356750.646"),
    ([965510, 282291, 484, 133135, 454743], 99, "945079.32"),
    ([760214, 352132924, 924540, 224], 35.78, "772275.5284"),
    ([950300, 330, 473499396, 638627700], 91.86, "598303368.1632"),
    ([170385862, 317697854], 96.64, "312748171.06880003"),
    ([129164, 998258], 85.45, "871804.8230000001"),
]


class TestBitExactStatistics:
    """The digits of every latency block are program output (DESIGN.md)."""

    @pytest.mark.parametrize("samples, q, expected", PINNED_PERCENTILES)
    def test_pinned_percentiles(self, samples, q, expected):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        assert repr(recorder.percentile(q)) == expected

    def test_pinned_stats_and_cdf(self):
        recorder = LatencyRecorder()
        recorder.extend([7, 1, 10**9, 3])
        stats = recorder.stats()
        assert repr(stats.median_ns) == "5.0"
        assert repr(stats.mean_ns) == "250000002.75"
        assert repr(stats.p99_ns) == "970000000.2099998"
        assert repr(stats.max_ns) == "1000000000.0"
        assert recorder.cdf(4) == [
            (0.001, 0.0),
            (0.003, 0.3333333333333333),
            (0.007, 0.6666666666666666),
            (1000000.0, 1.0),
        ]


def _seeded_samples(args):
    seed, n, high = args
    rng = RngRegistry(seed).stream("samples")
    return [rng.randrange(high + 1) for _ in range(n)]


#: n = 1, 2, 3, odd and even drawn value by value (ties, extremes), and
#: populations of thousands expanded from a seed.
SAMPLES = st.one_of(
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40),
    st.tuples(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1000, max_value=4000),
        st.sampled_from([10, 10**4, 10**9]),
    ).map(_seeded_samples),
)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


class TestNumpyOracle:
    """``==``, not ``approx``, against the numpy expressions the statistics
    were written in before numpy left the program."""

    @given(samples=SAMPLES)
    def test_stats(self, np, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        arr = np.asarray(samples, dtype=np.float64)
        assert asdict(recorder.stats()) == {
            "count": len(arr),
            "median_ns": float(np.median(arr)),
            "mean_ns": float(arr.mean()),
            "p99_ns": float(np.percentile(arr, 99)),
            "max_ns": float(arr.max()),
        }

    @given(
        samples=SAMPLES,
        q=st.one_of(
            st.sampled_from([0, 1, 50, 90, 99, 99.9, 100]),
            st.floats(min_value=0, max_value=100),
        ),
    )
    def test_percentile(self, np, samples, q):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        arr = np.asarray(samples, dtype=np.float64)
        assert recorder.percentile(q) == float(np.percentile(arr, q))

    @given(samples=SAMPLES, points=st.sampled_from([2, 10, 50, 101]))
    def test_cdf(self, np, samples, points):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        fractions = np.linspace(0, 1, points, endpoint=True)
        indices = np.minimum((fractions * (len(arr) - 1)).astype(int), len(arr) - 1)
        expected = [(arr[i] / 1e3, float(f)) for i, f in zip(indices, fractions)]
        assert recorder.cdf(points) == expected


class TestThroughput:
    def test_mops(self):
        assert throughput_mops(2_000_000, 1_000_000_000) == pytest.approx(2.0)
        assert throughput_mops(500, 1_000_000) == pytest.approx(0.5)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            throughput_mops(1, 0)
