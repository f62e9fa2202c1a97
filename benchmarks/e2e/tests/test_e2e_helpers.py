"""The helpers: the machine-speed probe, percentiles, profile-path -> layer
mapping, compare."""

import cProfile
import signal
import time

import layers
import pytest
import run
import workloads


class TestSpeedProbe:
    def test_counts_the_units_it_ran_and_what_they_took(self):
        with layers.SpeedProbe(period_s=0.01) as probe:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        assert probe.units >= 3
        # The units ran inside the interval, one at a time.
        assert 0 < probe.wall_s < 0.2
        assert 0 < probe.cpu_s < 0.2
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_reference_speed_scaling(self):
        slow_machine = 2 * layers.REFERENCE_UNIT_S
        assert layers.at_reference_speed(3.0, slow_machine) == 1.5
        assert layers.at_reference_speed(3.0, layers.REFERENCE_UNIT_S) == 3.0

    def test_segments_lose_their_units_and_are_scaled_by_them(self):
        unit = layers.REFERENCE_UNIT_S

        def mark(wall_s, completed, units, unit_wall_s):
            return workloads.Mark(wall_s, 0.0, 0.0, completed, 0, units, unit_wall_s, 0.0)

        marks = [
            mark(0.0, 0, 0, 0.0),
            # 1 s holding 4 units at reference speed: 1 s - 4 units of work.
            mark(1.0, 1000, 4, 4 * unit),
            # The same work on a machine half as fast.
            mark(3.0, 2000, 8, 4 * unit + 8 * unit),
            # The timer never fired: no yardstick, no sample.
            mark(4.0, 3000, 8, 12 * unit),
        ]
        first, second = workloads.probed_us_per_op(marks, "wall_s", "unit_wall_s")
        assert first == pytest.approx((1.0 - 4 * unit) / 1000 * 1e6)
        assert second == pytest.approx(first)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100, sorted
        assert layers.percentile(values, 50) == 50
        assert layers.percentile(values, 99) == 99
        assert layers.percentile(values, 99.9) == 100
        assert layers.percentile(values, 100) == 100
        # Always a sample, never an interpolation.
        assert layers.percentile([10, 20], 50) == 10
        assert layers.percentile([10, 20], 51) == 20
        assert layers.percentile([7], 99) == 7

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            layers.percentile([], 50)
        with pytest.raises(ValueError):
            layers.percentile([1], 0)
        with pytest.raises(ValueError):
            layers.percentile([1], 101)

    def test_a_percentile_needs_ten_samples_beyond_it(self):
        assert not layers.supports_percentile(0, 50)
        assert not layers.supports_percentile(19, 50)
        assert layers.supports_percentile(20, 50)
        assert not layers.supports_percentile(999, 99)
        assert layers.supports_percentile(1000, 99)
        assert not layers.supports_percentile(1000, 99.9)
        assert layers.supports_percentile(10_000, 99.9)
        # The highest percentile a population supports, the way summarise
        # picks which tails to report.
        highest = max(p for p in (50, 90, 99, 99.9) if layers.supports_percentile(5000, p))
        assert highest == 99


class TestLayerMapping:
    @pytest.mark.parametrize("path,layer", [
        ("/x/src/repro/sim/engine.py", "sim"),
        ("/x/src/repro/rdma/verbs.py", "rdma"),
        ("/x/src/repro/memsys/llc.py", "memsys"),
        ("/x/src/repro/core/server.py", "core"),
        ("/x/src/repro/baselines/rawwrite.py", "baselines"),
        ("/x/src/repro/txn/coordinator.py", "txn"),
        ("/x/src/repro/bench/harness.py", "bench"),
        ("/x/src/repro/transport/topology.py", "other"),
        ("/x/src/repro/obs/core.py", "other"),
        ("/x/src/repro/__init__.py", "other"),
        ("/usr/lib/python3.11/heapq.py", "other"),
        ("~", "other"),  # cProfile's name for builtins
        ("/x/benchmarks/e2e/workloads.py", "other"),
        ("C:\\x\\src\\repro\\sim\\engine.py", "sim"),
    ])
    def test_layer_of(self, path, layer):
        assert layers.layer_of(path) == layer

    def test_every_layer_is_reported(self):
        table = {
            ("/x/src/repro/sim/engine.py", 1, "run"): (1, 1, 0.5, 0.9, {}),
            ("/x/src/repro/sim/resources.py", 1, "get"): (1, 1, 0.25, 0.25, {}),
            ("~", 0, "<built-in>"): (1, 1, 0.125, 0.125, {}),
        }
        totals = layers.profile_layers(table)
        assert set(totals) == set(layers.SIM_LAYERS)
        assert totals["sim"] == 0.75
        assert totals["other"] == 0.125
        assert totals["txn"] == 0.0

    def test_profile_calls_counts_one_function_exactly(self):
        from repro.sim import Event, Simulator, Timeout

        profile = cProfile.Profile()
        profile.enable()
        sim = Simulator()
        for _ in range(7):
            sim.timeout(1)
        sim.run()
        profile.disable()
        table = layers.profile_stats(profile)
        assert layers.profile_calls(table, Timeout.__init__) == 7
        assert layers.profile_calls(table, Event._deliver) == 7
        assert layers.profile_calls(table, layers.percentile) == 0


class TestCompare:
    def test_spread_is_quartile_distance_over_median(self):
        assert run.spread([5.0]) == 0.0
        assert run.spread([10.0] * 8) == 0.0
        values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
        assert run.spread(values) == pytest.approx(1.0)

    @pytest.mark.parametrize("base,change,better,word", [
        ([100.0, 101.0, 99.0], [104.0, 105.0, 103.0], "lower", "within"),
        ([100.0, 101.0, 99.0], [115.0, 116.0, 114.0], "lower", "worse"),
        ([100.0, 101.0, 99.0], [90.0, 91.0, 89.0], "lower", "better"),
        ([100.0, 101.0, 99.0], [90.0, 91.0, 89.0], "higher", "within"),
        ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", "worse"),
        ([100.0, 140.0, 60.0], [100.0, 101.0, 99.0], "lower", "unresolved"),
    ])
    def test_verdict(self, base, change, better, word):
        ratio, _noise, got = run.verdict(base, change, better, bound=0.10)
        assert got == word
        assert ratio == pytest.approx(sorted(change)[1] / sorted(base)[1])
