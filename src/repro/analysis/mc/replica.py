"""Model-checking scenarios for the replica plane (DESIGN.md section 15).

These scenarios reuse :func:`repro.replica.simrunner.build_replica_world`
— the *same* deployment the bench figure runs, only at model-checking
time constants (heartbeats every 20us instead of 60us, a handful of ops)
so the explorer can sweep meaningful interleavings of the failure
detector, the promotion callback, the client watchdog, and the workload.

Three shapes, matching the section-15 safety argument:

- ``replica-primary-dies`` — the primary fail-stops mid-dispatch; the
  view change must promote the backup and every request must complete
  exactly once (the generic liveness check) with no commit ever landing
  at a stale epoch.
- ``replica-backup-dies-promotion`` — the elected backup dies before its
  view lands; promotion must be deferred to the *next* view and the
  third replica takes over.
- ``replica-partition-dual-primary`` — an asymmetric partition cuts the
  old primary off from its backup (and its heartbeat responses off from
  the GFD) while clients still reach it.  Under epoch fencing the
  deposed primary can never gather an ack, so it aborts instead of
  committing: dual primary is impossible.  ``--buggy`` disables fencing
  *and* the ack gate on the group instance, and the checker must flag
  the stale-epoch commit.

The buggy knob here is deliberately not a code-level resurrection like
the double-activation scenario: fencing is a *configuration* of the
group (``fencing_enabled`` / ``acks_required``), so turning it off is
exactly the "protocol without the fence" the impossibility claim is
about.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...faults import FaultPlan, FaultSpec
from ...replica.simrunner import ReplicaSimConfig, build_replica_world
from .invariants import Violation

__all__ = ["REPLICA_SCENARIOS", "ReplicaObserver", "ReplicaScenario"]


class ReplicaObserver:
    """Safety monitor over one replicated world's commit stream.

    Two rules, both phrased against the membership view as the authority:

    - ``dual-primary-commit`` — a replica committed an operation at an
      epoch older than the installed view: a deposed primary acted as if
      it still led (the exact thing epoch fencing forbids).
    - ``duplicate-execution`` — one ``(client_id, req_id)`` identity
      committed twice; failover reposts must be deduplicated by the
      replica log, so a second commit is a broken exactly-once guarantee.
    """

    def __init__(self, world):
        self.world = world
        self.violations: list[Violation] = []
        self._committed: set = set()
        world.group.commit_watchers.append(self._on_commit)

    def _on_commit(self, name, epoch, client_id, req_id) -> None:
        view = self.world.membership.view
        if epoch < view.epoch:
            self.violations.append(Violation(
                "dual-primary-commit",
                f"{name} committed ({client_id}, {req_id}) at epoch "
                f"{epoch} after view {view.epoch} installed "
                f"{view.primary} as primary",
            ))
        key = (client_id, req_id)
        if key in self._committed:
            self.violations.append(Violation(
                "duplicate-execution",
                f"({client_id}, {req_id}) committed twice "
                f"(second commit by {name} at epoch {epoch})",
            ))
        self._committed.add(key)


@dataclass(frozen=True)
class ReplicaScenario:
    """A replicated-deployment point of the matrix (CLI-addressable)."""

    name: str
    description: str
    config_params: tuple  # sorted (key, value) pairs for ReplicaSimConfig
    faults: tuple = ()    # FaultSpec entries (the explicit plan)

    def build(self, buggy: bool = False):
        config = ReplicaSimConfig(**dict(self.config_params))
        plan = FaultPlan.of(self.faults) if self.faults else FaultPlan.none()
        world = build_replica_world(config, plan=plan, name=self.name)
        if buggy:
            # The protocol without the fence: the group instance stops
            # checking ship epochs and stops gating commit on backup
            # durability.  Class code is untouched.
            world.group.fencing_enabled = False
            world.group.acks_required = False
        return world

    def make_observer(self, world) -> ReplicaObserver:
        """Explorer hook: replica worlds get the replica safety monitor
        (the default ProtocolObserver wraps single-server internals)."""
        return ReplicaObserver(world)


#: Model-checking time constants: everything ~3x tighter than the bench
#: runner so declared-dead lands within a few time slices.
_MC_BASE = dict(
    n_replicas=2,
    n_clients=1,
    ops_per_client=4,
    op_gap_ns=20_000,
    hb_period_ns=20_000,
    hb_timeout_ns=10_000,
    suspect_after=2,
    rpc_timeout_ns=40_000,
    group_size=8,
    time_slice_ns=30_000,
    fail_primary_after_op=None,  # scenarios carry explicit plans
    horizon_ns=1_500_000,
)


def _replica_scenario(name, description, faults, **overrides) -> ReplicaScenario:
    params = dict(_MC_BASE)
    params.update(overrides)
    return ReplicaScenario(
        name, description, tuple(sorted(params.items())), tuple(faults)
    )


_REPLICA_MATRIX = [
    _replica_scenario(
        "replica-primary-dies",
        "2 replicas, 2 clients; the primary fail-stops mid-dispatch: "
        "the GFD must install a new view, the backup must promote, and "
        "every request completes exactly once on the survivor",
        [FaultSpec("server_fail_stop", at_ns=30_000, node="r0")],
        n_clients=2,
        ops_per_client=3,
    ),
    _replica_scenario(
        "replica-backup-dies-promotion",
        "3 replicas; the primary dies, then the elected backup dies "
        "right around its promotion: the view callback must defer and "
        "the next view promotes the third replica",
        [
            FaultSpec("server_fail_stop", at_ns=30_000, node="r0"),
            FaultSpec("server_fail_stop", at_ns=75_000, node="r1"),
        ],
        n_replicas=3,
    ),
    _replica_scenario(
        "replica-partition-dual-primary",
        "asymmetric partition: r0's ships to r1 and its heartbeat "
        "responses to the GFD are dropped while clients still reach r0; "
        "epoch fencing must make a stale-epoch commit impossible "
        "(--buggy drops the fence and must be flagged)",
        [
            FaultSpec("partition", at_ns=30_000, src="r0", dst="r1"),
            FaultSpec("partition", at_ns=30_000, src="r0", dst="gfd"),
        ],
        ops_per_client=6,
    ),
]

REPLICA_SCENARIOS: dict[str, ReplicaScenario] = {
    scenario.name: scenario for scenario in _REPLICA_MATRIX
}
