"""Tests for the critical-path analyzer and cliff detection."""

import math

import pytest

from repro.obs import detect_cliff, percentile_nearest_rank, stage_breakdown


def _rpc(rid, *stages):
    return {"id": rid, "stages": [list(s) for s in stages]}


class TestStageBreakdown:
    def test_intervals_attributed_to_later_stage(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 100), ("exec", 400), ("complete", 1000)
        )]}
        breakdown = stage_breakdown(artifact, percentile=99.0)
        stages = dict((name, mean) for name, mean, _share in breakdown.stages)
        assert stages == {"req_tx": 100, "exec": 300, "complete": 600}
        assert breakdown.latency_ns == 1000
        assert breakdown.count == breakdown.tail_count == 1

    def test_miss_stall_split_out(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 100, {"miss_stall": 40}), ("complete", 200)
        )]}
        breakdown = stage_breakdown(artifact)
        stages = {name: mean for name, mean, _ in breakdown.stages}
        assert stages["req_tx"] == 60
        assert stages["req_tx.miss_stall"] == 40

    def test_stall_clamped_to_interval(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 50, {"miss_stall": 500}), ("complete", 100)
        )]}
        breakdown = stage_breakdown(artifact)
        stages = {name: mean for name, mean, _ in breakdown.stages}
        assert stages["req_tx.miss_stall"] == 50
        assert stages["req_tx"] == 0

    def test_tail_selection(self):
        rpcs = [
            _rpc(i, ("post", 0), ("complete", latency))
            for i, latency in enumerate([100] * 98 + [1000, 2000])
        ]
        breakdown = stage_breakdown({"rpcs": rpcs}, percentile=99.0)
        assert breakdown.count == 100
        assert breakdown.latency_ns == 1000
        assert breakdown.tail_count == 2  # the 1000 and the 2000
        stages = {name: mean for name, mean, _ in breakdown.stages}
        assert stages["complete"] == 1500

    def test_incomplete_timelines_ignored(self):
        artifact = {"rpcs": [
            _rpc(0, ("post", 0)),  # never completed
            _rpc(1, ("post", 0), ("complete", 10)),
        ]}
        assert stage_breakdown(artifact).count == 1

    def test_none_when_nothing_completed(self):
        assert stage_breakdown({"rpcs": [_rpc(0, ("post", 0))]}) is None
        assert stage_breakdown({"rpcs": []}) is None

    def test_rows_in_lifecycle_order(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 10), ("dispatch", 30), ("exec", 60),
            ("done", 100), ("complete", 150)
        )]}
        names = [name for name, _m, _s in stage_breakdown(artifact).stages]
        assert names == ["req_tx", "dispatch", "exec", "done", "complete"]

    def test_shares_sum_to_one(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 40), ("complete", 100)
        )]}
        shares = [share for _n, _m, share in stage_breakdown(artifact).stages]
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_top_sorted_by_mean(self):
        artifact = {"rpcs": [_rpc(
            0, ("post", 0), ("req_tx", 10), ("exec", 100), ("complete", 120)
        )]}
        top = stage_breakdown(artifact).top(2)
        assert [name for name, _m, _s in top] == ["exec", "complete"]


class TestDetectCliff:
    def test_finds_drop_below_running_peak(self):
        points = [[100, 10.0], [200, 12.0], [300, 11.0], [400, 5.0]]
        cliff = detect_cliff(points, drop=0.3)
        assert cliff.index == 3 and cliff.ts == 400
        assert cliff.before == 12.0 and cliff.after == 5.0
        assert abs(cliff.ratio - 5.0 / 12.0) < 1e-9

    def test_tolerates_small_dips(self):
        points = [[100, 10.0], [200, 8.0], [300, 9.0]]
        assert detect_cliff(points, drop=0.3) is None

    def test_skips_none_values(self):
        points = [[100, 10.0], [200, None], [300, 2.0]]
        assert detect_cliff(points).ts == 300

    def test_empty_and_all_none(self):
        assert detect_cliff([]) is None
        assert detect_cliff([[100, None]]) is None


class TestPercentileNearestRank:
    @pytest.mark.parametrize("n", [1000, 2000, 3000, 4000])
    def test_p999_is_not_the_maximum(self, n):
        """Float ``ceil(99.9 / 100 * n)`` lands one rank too high here."""
        assert percentile_nearest_rank(range(1, n + 1), 99.9) == n - n // 1000

    @pytest.mark.parametrize("p", [50, 99])
    def test_agrees_with_ceil_formula(self, p):
        for n in range(1, 501):
            assert percentile_nearest_rank(range(1, n + 1), p) == math.ceil(p * n / 100)

    def test_empty_is_zero(self):
        assert percentile_nearest_rank([], 99) == 0
