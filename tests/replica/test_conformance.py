"""Sim ≡ proc conformance for the replicated deployment.

Both backends run the one scenario in :mod:`repro.replica.scenario`, so
the same shape (2 replicas, 2 clients × 12 ops), healthy and with a
primary fail-stop, must end in the same replicated state on each.  The
proc timings are compressed as in ``test_proc_failover``.
"""

import ast
from pathlib import Path

import pytest

from repro.core.protocol import ProtocolError
from repro.replica import (
    ReplicaGroup,
    ReplicaProcConfig,
    ReplicaSimConfig,
    run_replica_proc,
    run_replica_sim,
)

SHAPE = dict(n_replicas=2, n_clients=2, ops_per_client=12)


def _run(backend: str, fail: bool, timeout_s: float = 20.0) -> dict:
    if backend == "sim":
        return run_replica_sim(ReplicaSimConfig(
            **SHAPE, fail_primary_at_ns=100_000 if fail else None,
        ))
    return run_replica_proc(ReplicaProcConfig(
        **SHAPE,
        op_gap_ns=5_000_000,
        hb_period_ns=40_000_000,
        hb_timeout_ns=20_000_000,
        reconnect_backoff_s=0.02,
        fail_primary_at_ns=60_000_000 if fail else None,
        timeout_s=timeout_s,
    ))


@pytest.fixture(scope="module", params=["healthy", "primary-fail-stop"])
def runs(request):
    fail = request.param == "primary-fail-stop"
    return _run("sim", fail), _run("proc", fail)


def test_every_op_completes_exactly_once_on_both(runs):
    for result in runs:
        assert result["completed"] == result["total_ops"]
        assert result["duplicate_executions"] == 0


def test_same_final_view(runs):
    sim, proc = runs
    assert sim["view"]["epoch"] == proc["view"]["epoch"]
    assert sim["view"]["primary"] == proc["view"]["primary"]


def test_same_surviving_primary_digest(runs):
    # Each client writes only its own keys (c<id>.k*, /c<id>/f*) and both
    # backends number the clients 1..n, so the final state depends on each
    # client's own op sequence, not on how the clients interleave.
    sim, proc = runs
    digests = [
        result["snapshot"][result["view"]["primary"]][-1]
        for result in (sim, proc)
    ]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("backend", ["sim", "proc"])
def test_a_failed_promotion_fails_the_run(monkeypatch, backend):
    """A replay-divergence error raised in the view callback surfaces as
    itself on both backends; proc must not swallow its failure detector
    task's error and time out instead."""
    def diverged(self, name, epoch):
        raise ProtocolError(f"replay of {name} diverged at epoch {epoch}")

    monkeypatch.setattr(ReplicaGroup, "promote", diverged)
    with pytest.raises(ProtocolError, match="diverged"):
        _run(backend, fail=True, timeout_s=1.0)


def test_the_scenario_imports_no_backend():
    path = Path(__file__).parents[2] / "src/repro/replica/scenario.py"
    package = ["repro", "replica"]
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            if node.module:
                base = base + node.module.split(".")
            imported.update(".".join(base + [alias.name]) for alias in node.names)
    backends = ("repro.sim", "repro.net", "repro.transport", "repro.faults",
                "asyncio")
    assert not [
        name for name in sorted(imported)
        if any(name == b or name.startswith(b + ".") for b in backends)
    ]
