"""The schedule-space model checker (repro.analysis.mc).

Every test carries ``no_sanitize``: the explorer installs its own
SimSanitizer per execution (and deliberately breaks FIFO delivery), so
the conftest-level instance must stay out of the way.
"""

import json

import pytest

from repro.analysis.mc import SCENARIOS, Explorer, replay
from repro.analysis.mc.__main__ import main as mc_main

pytestmark = pytest.mark.no_sanitize


def test_scenario_matrix_covers_the_issue_shapes():
    names = sorted(SCENARIOS)
    assert "nowarm-2c-1g" in names
    assert any("midjoin" in name for name in names)  # mid-slice join
    assert any("straggler" in name for name in names)  # straggler client
    assert any(name.startswith("warm-") for name in names)  # context switch


def test_empty_schedule_is_deterministic():
    explorer = Explorer(SCENARIOS["nowarm-2c-1g"])
    first = explorer.run_one()
    second = explorer.run_one()
    assert first.ok and first.done
    assert (first.schedule, first.steps, first.sim_now) == (
        second.schedule,
        second.steps,
        second.sim_now,
    )


def test_nowarm_2c_1g_exhausts_with_many_schedules_and_no_violations():
    """ISSUE acceptance: the smallest scenario exhausts clean (>1 schedule)."""
    report = Explorer(SCENARIOS["nowarm-2c-1g"]).explore(max_schedules=800)
    assert report.exhausted
    assert report.schedules > 1
    assert report.ok, report.render()


def test_buggy_variant_is_flagged_with_replayable_artifact(tmp_path):
    """ISSUE acceptance + S5: the resurrected double-activation race is
    caught, and its artifact replays to the same violation."""
    scenario = SCENARIOS["nowarm-2c-1g"]
    report = Explorer(scenario, buggy=True).explore(
        max_schedules=5, artifact_dir=tmp_path
    )
    assert not report.ok
    rules = {
        violation.rule
        for execution in report.violating
        for violation in execution.violations
    }
    assert "duplicate-activation" in rules or "stale-rebind" in rules
    assert report.artifacts

    artifact = report.artifacts[0]
    doc = json.loads(open(artifact).read())
    assert doc["scenario"] == scenario.name and doc["buggy"] is True

    replayed = replay(scenario, artifact)
    assert [v.rule for v in replayed.violations] == [
        v["rule"] for v in doc["violations"]
    ]


def test_fixed_code_passes_the_schedule_that_breaks_the_buggy_variant(tmp_path):
    """S5: the historical race's counterexample schedule is clean on the
    fixed protocol — the regression is pinned to the guard, not the world."""
    scenario = SCENARIOS["nowarm-2c-1g"]
    report = Explorer(scenario, buggy=True).explore(
        max_schedules=5, artifact_dir=tmp_path
    )
    assert not report.ok
    counterexample = report.violating[0].schedule
    fixed = replay(scenario, counterexample, buggy=False)
    assert fixed.ok, [v.rule for v in fixed.violations]


def test_cli_single_scenario_returns_zero(capsys):
    assert mc_main(["--scenario", "nowarm-2c-1g", "--max-schedules", "60"]) == 0
    out = capsys.readouterr().out
    assert "mc[nowarm-2c-1g]" in out


def test_cli_buggy_mode_passes_on_detection(capsys):
    assert (
        mc_main(
            ["--scenario", "nowarm-2c-1g", "--buggy", "--max-schedules", "5"]
        )
        == 0
    )
    assert "flagged as expected" in capsys.readouterr().out


def test_cli_list(capsys):
    assert mc_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_ready_verb_flows_rank_by_verb_name():
    """A ready verb flow is its own actor, ranked ``<verb>.#/<nth>`` as
    the process it replaced; an event resuming a process still ranks by
    the process's name."""
    from repro.analysis.mc.explorer import ScheduleController
    from repro.rdma import (
        Fabric,
        Node,
        Transport,
        post_cas,
        post_read,
        post_send,
        post_write,
    )
    from repro.sim import Simulator

    sim = Simulator()
    fabric = Fabric(sim)
    a, b = Node(sim, "a", fabric), Node(sim, "b", fabric)
    qp_a, qp_b = a.create_qp(Transport.RC), b.create_qp(Transport.RC)
    qp_a.connect(qp_b)
    src, dst = a.register_memory(4096).range.base, b.register_memory(4096).range.base
    post_write(qp_a, src, dst, 32)
    post_write(qp_a, src, dst, 32, imm_data=1)
    post_send(qp_a, 32, local_addr=src)
    post_read(qp_a, src, dst, 32)
    post_cas(qp_a, src, dst + 8, 0, 1)

    def worker(sim):
        yield sim.timeout(0)

    sim.process(worker(sim), name="worker7")
    controller = ScheduleController()
    assert [controller.actor_of(item) for item in sim._ready] == [
        "write.#/0", "write.#/1", "send.#/0", "read.#/0", "atomic.#/0", "worker#/0",
    ]
    # Ranks are per object: the same flow keeps its class at a later hop.
    flow = sim._ready[0]
    sim.step()
    assert controller.actor_of(flow) == "write.#/0"


def test_ready_workers_and_cpu_charges_rank_as_the_processes_they_replaced():
    """Server worker threads and deferred client CPU charges are
    continuations ranked ``rpcsrv.worker#`` / ``baseline.worker#`` /
    ``c#.cpu``, the names of the processes they replaced; a charge keeps
    its class at its grant hop, and a queued one is ranked when a release
    hands it the core."""
    from repro.analysis.mc.explorer import ScheduleController
    from repro.baselines import BaselineConfig, RawWriteServer
    from repro.core import ScaleRpcConfig, ScaleRpcServer
    from repro.rdma import Fabric, Node
    from repro.sim import Simulator

    sim = Simulator()
    fabric = Fabric(sim)
    scalerpc = ScaleRpcServer(Node(sim, "s0", fabric), lambda r: r.payload,
                              config=ScaleRpcConfig(n_server_threads=2))
    rawwrite = RawWriteServer(Node(sim, "s1", fabric), lambda r: r.payload,
                              config=BaselineConfig(n_server_threads=2))
    client = scalerpc.connect(Node(sim, "m", fabric, cores=1))
    scalerpc.start()
    rawwrite.start()
    client._defer_cpu(100)
    client._defer_cpu(100)
    controller = ScheduleController()
    assert [controller.actor_of(item) for item in sim._ready] == [
        "rpcsrv.worker#/0", "rpcsrv.worker#/1", "rpcsrv.legacy/0", "rpcsrv.sched/0",
        "baseline.worker#/0", "baseline.worker#/1", "c#.cpu/0", "c#.cpu/1",
    ]
    first, second = list(sim._ready)[-2:]
    for _ in range(len(sim._ready)):  # every bootstrap hop
        sim.step()
    assert list(sim._ready) == [first]  # granted the one core; second queued
    assert controller.actor_of(first) == "c#.cpu/0"
    sim.step()  # the hold starts
    sim.step()  # and ends: the release hands the core over
    assert sim.now == 100 and list(sim._ready) == [second]
    assert controller.actor_of(second) == "c#.cpu/1"
