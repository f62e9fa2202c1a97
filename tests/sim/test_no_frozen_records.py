"""No frozen dataclass is built per message on the simulated data path.

A frozen dataclass's ``__init__`` pays one ``object.__setattr__`` per
field, and the data path builds several records per RPC (completions,
inbound-write notices, LLC access results), so per-message records are
positional ``NamedTuple``s or slotted dataclasses (DESIGN.md §7).  A
profiler cannot show the regression by layer — every dataclass-generated
``__init__`` is compiled from ``<string>`` — so this guard counts calls
instead of timing them: each echo below runs its warm-up untouched, then
one measurement step under ``sys.setprofile``, which must complete RPCs
and build no frozen ``repro`` dataclass at all.
"""

import sys
from collections import Counter

import pytest

from repro.bench import RpcExperiment, run_rpc_experiment
from repro.core.message import RpcResponse
from repro.sim import Simulator

US = 1_000


def _generated_init_owner(frame):
    """The class whose dataclass-generated ``__init__`` ``frame`` runs."""
    code = frame.f_code
    if code.co_name != "__init__" or code.co_filename != "<string>":
        return None
    return type(frame.f_locals.get("self"))


def _records_built_in_steady_state(system, monkeypatch):
    """Run a short seeded echo; return ``(frozen inits by class name,
    responses built)`` for the first measurement step after warm-up."""
    run = Simulator.run
    calls = []
    frozen = Counter()
    responses = 0

    def profiler(frame, event, _arg):
        nonlocal responses
        if event != "call":
            return
        owner = _generated_init_owner(frame)
        if owner is None:
            return
        if owner is RpcResponse:
            responses += 1
        params = getattr(owner, "__dataclass_params__", None)
        if params is not None and params.frozen and owner.__module__.startswith("repro."):
            frozen[owner.__qualname__] += 1

    def profiled_run(sim, until=None):
        calls.append(until)
        if len(calls) != 2:  # 1: warm-up; 2: first measurement step
            return run(sim, until)
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            return run(sim, until)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(Simulator, "run", profiled_run)
    run_rpc_experiment(RpcExperiment(
        system=system,
        n_clients=8,
        n_client_machines=2,
        group_size=8,
        time_slice_ns=50 * US,
        warmup_ns=100 * US,
        measure_ns=100 * US,
        seed=3,
    ))
    assert len(calls) > 2, f"{system}: the measurement window never ran"
    return frozen, responses


@pytest.mark.parametrize("system", ["scalerpc", "rawwrite"])
def test_steady_state_builds_no_frozen_dataclass(system, monkeypatch):
    frozen, responses = _records_built_in_steady_state(system, monkeypatch)
    assert responses > 100, f"{system}: only {responses} RPCs in the window"
    assert not frozen, (
        f"{system}: frozen dataclasses built per RPC in steady state "
        f"({responses} RPCs): {dict(frozen)}"
    )
