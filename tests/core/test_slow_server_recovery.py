"""ScaleRPC client recovery must not overwrite requests a merely slow
server has not read yet.

The ``scalerpc_branches`` world of ``test_worker_schedule_pin`` (2 worker
threads, 25 µs handlers, so the backlog outlives the 20 µs slice's
drain) with a 40 µs RPC watchdog: the watchdog fires on slowness, not on
death, and the recovery's re-announce / repost rewrites the client's
message block from its start, landing on pool slots whose routed
requests the workers have not read, in the same epoch.  The defect is
recorded as a ``FOUND:`` line in CHANGES.md (the recovery of ScaleRPC on
a slow server); mending it changes the recovery protocol.  Once it is
mended this test passes, and the strict ``xfail`` marker must come off.
"""

import pytest

from repro.analysis import sanitized_run

from .test_worker_schedule_pin import US, World, scalerpc_branches


@pytest.mark.no_sanitize  # runs its own sanitizer, to read the findings
@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: ScaleRPC recovery on a merely slow server "
           "rewrites live msgpool slots (msgpool-overwrite-live)",
)
def test_watchdog_recovery_overwrites_no_live_request():
    world = World(n_machines=2, cores=24)
    _, report = sanitized_run(
        lambda: scalerpc_branches(world, rpc_timeout_ns=40 * US))
    assert "msgpool-overwrite-live" not in report.rule_counts, report.render()
