"""A seed-1 pin of ``fig_faults`` at full float precision.

The three golden blocks of ``tests/bench/test_harness.py`` run with
``rpc_timeout_ns = 0`` (no watchdog) and none of them is HERD or FaSST.
This figure crashes, times out and reconnects all four RPC systems and
runs the ScaleRPC crash storm, so it pins the client recovery path —
watchdog period, reconnect cost, backoff and repost order — of every sim
client.  Any change to those schedules moves a number here.
"""

from repro.bench.experiments import fig_faults

# Columns: tput_mops, injected, recovered, mean_recovery_us, reconnects.
PINNED_SERIES = {
    "scalerpc": [8.366666666666667, 1, 1, 105.0, 1],
    "rawwrite": [8.16, 1, 1, 35.0, 1],
    "herd": [7.336666666666667, 1, 1, 35.0, 1],
    "fasst": [5.043333333333333, 1, 1, 35.0, 1],
    "scalerpc storm (mtbf 300 us)": [8.46, 3, 2, 40.0, 2],
    "scalerpc storm (mtbf 600 us)": [8.54, 2, 1, 40.0, 2],
}


def test_fig_faults_quick_series_is_pinned():
    assert fig_faults(quick=True).as_dict()["series"] == PINNED_SERIES
