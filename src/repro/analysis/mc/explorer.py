"""Stateless schedule-space exploration over the simulation kernel.

The kernel delivers same-instant events FIFO; :meth:`Simulator.step`
additionally consults a ``tiebreak`` hook when more than one event is
ready.  :class:`ScheduleController` implements that hook: it groups the
ready set into *actor classes* (events that resume the same process stay
in program order — reordering them is never observable), and whenever two
or more classes are ready it records a *choice point* and picks one.

A **schedule** is the sequence of picks, one small integer per choice
point.  Because the simulation is deterministic between choice points,
re-executing a fresh world while replaying a recorded schedule reproduces
the exact interleaving — which is what makes every counterexample a
one-line regression test (:func:`replay`).

:class:`Explorer` performs the classic stateless-model-checking DFS
(VeriSoft/CHESS): run one schedule to completion, then branch at every
choice point that still has unexplored alternatives.  Two reductions keep
small topologies tractable:

- **actor-class commutation** — only cross-actor reorderings branch, and
  events with no registered callbacks (delivering them is unobservable)
  never branch at all;
- **state-hash pruning** — each choice point hashes the scenario's
  abstract protocol state (epoch, serving set, per-client machine state);
  alternatives are not queued from a state already expanded elsewhere.
  Disable with ``full=True`` for a fully exhaustive sweep.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from ...core.protocol import ProtocolError
from ...sim.engine import Continuation, Event, Process
from ..sanitize import SimSanitizer
from .invariants import ProtocolObserver, Violation

__all__ = [
    "Execution",
    "ExplorationReport",
    "Explorer",
    "ReplayMismatch",
    "ScheduleController",
    "replay",
]

_DIGITS = re.compile(r"\d+")

#: Per-execution step cap: a backstop against runaway schedules, far above
#: what any scenario in the matrix needs (they finish in a few thousand).
MAX_STEPS = 200_000

#: Sanitizer rules that are *expected* to fire under deliberate
#: reordering: the checker breaks FIFO delivery on purpose, so the
#: fifo-order rule reports exactly the schedules being explored.
_REORDERING_RULES = frozenset({"fifo-order"})


class ReplayMismatch(RuntimeError):
    """A replayed schedule diverged from the recorded execution."""


class ScheduleController:
    """The ``sim.tiebreak`` hook: replays a prefix, defaults beyond it.

    At each choice point the candidates are the *first* ready event of
    each distinct actor class, in deque order — same-actor events keep
    program order, and candidate 0 is always the FIFO default, so the
    empty schedule reproduces ``run()``'s order exactly.
    """

    def __init__(
        self,
        prefix: tuple[int, ...] = (),
        seen_states: Optional[set] = None,
        state_fn: Optional[Callable[[], Any]] = None,
    ):
        self.prefix = prefix
        self.seen_states = seen_states
        self.state_fn = state_fn
        #: The decision actually taken at each choice point.
        self.picked: list[int] = []
        #: Number of candidates at each choice point.
        self.n_options: list[int] = []
        #: True where alternatives were pruned by the state hash.
        self.pruned: list[bool] = []
        # Dense per-execution actor ranks: two processes named "drv1" /
        # "drv2" are distinct actors, but global id counters (wr_ids,
        # group ids) make raw names unstable across executions — so the
        # class is (digit-normalized name, first-sight rank).
        self._ranks: dict[int, str] = {}
        self._rank_counts: dict[str, int] = {}
        self._owners: dict[int, Any] = {}  # pin ids against reuse

    # -- actor classification ---------------------------------------------

    def _rank(self, owner: Any, name: str) -> str:
        key = self._ranks.get(id(owner))
        if key is None:
            base = _DIGITS.sub("#", name)
            nth = self._rank_counts.get(base, 0)
            self._rank_counts[base] = nth + 1
            key = f"{base}/{nth}"
            self._ranks[id(owner)] = key
            self._owners[id(owner)] = owner
        return key

    def actor_of(self, event: Event | Continuation) -> Optional[str]:
        """Actor class of a ready event, or None for no-op deliveries.

        A :class:`Continuation` is its own actor, by the name of the process
        it replaced (``write.#``, ``rpcsrv.worker#``, ``c#.cpu`` ...).  For
        an event, the actor is whoever the first callback resumes: a
        waiting :class:`Process` (by name), any other bound object (by
        type), or the callback function itself.  Events with no callbacks
        are unobservable to deliver and stay pinned to FIFO order.
        """
        if isinstance(event, Continuation):
            return self._rank(event, event.name)
        for callback in event.callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process):
                return self._rank(owner, owner.name or "process")
            if owner is not None:
                return self._rank(owner, type(owner).__name__)
            name = getattr(callback, "__qualname__", type(callback).__name__)
            return self._rank(callback, name)
        return None

    # -- the hook ----------------------------------------------------------

    def __call__(self, ready) -> int:
        candidates: list[int] = []
        classes: list[str] = []
        seen_classes: set[str] = set()
        for index, event in enumerate(ready):
            key = self.actor_of(event)
            if key is None or key in seen_classes:
                continue
            seen_classes.add(key)
            candidates.append(index)
            classes.append(key)
        if len(candidates) <= 1:
            return 0  # no cross-actor choice: keep FIFO
        depth = len(self.picked)
        if depth < len(self.prefix):
            choice = self.prefix[depth]
            if choice >= len(candidates):
                raise ReplayMismatch(
                    f"choice point {depth}: schedule wants option {choice} "
                    f"but only {len(candidates)} candidates are ready"
                )
        else:
            choice = 0
        self.picked.append(choice)
        self.n_options.append(len(candidates))
        self.pruned.append(self._expanded_before(classes))
        return candidates[choice]

    def _expanded_before(self, classes: list[str]) -> bool:
        """Record the abstract state; True if already expanded elsewhere."""
        if self.seen_states is None or self.state_fn is None:
            return False
        key = (self.state_fn(), tuple(sorted(classes)))
        if key in self.seen_states:
            return True
        self.seen_states.add(key)
        return False


@dataclass
class Execution:
    """One complete run of a scenario under one schedule."""

    schedule: tuple[int, ...]
    prefix_len: int
    n_options: list[int]
    pruned: list[bool]
    violations: list[Violation]
    steps: int
    sim_now: int
    done: bool  # every driver finished before the horizon

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ExplorationReport:
    """Summary of one scenario sweep."""

    scenario: str
    buggy: bool
    schedules: int = 0
    choice_points: int = 0
    max_depth: int = 0
    pruned_branches: int = 0
    exhausted: bool = False
    violating: list[Execution] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violating

    def render(self) -> str:
        state = "exhausted" if self.exhausted else "capped"
        verdict = (
            "0 violations"
            if self.ok
            else f"{len(self.violating)} violating schedule(s)"
        )
        lines = [
            f"mc[{self.scenario}{' +buggy' if self.buggy else ''}]: "
            f"{self.schedules} schedules ({state}), "
            f"{self.choice_points} choice points, depth<={self.max_depth}, "
            f"{self.pruned_branches} branches pruned -> {verdict}"
        ]
        for execution in self.violating[:5]:
            first = execution.violations[0]
            lines.append(
                f"  schedule {list(execution.schedule)!r}: "
                f"[{first.rule}] {first.message}"
            )
        for artifact in self.artifacts[:1]:
            lines.append(f"  replay artifact: {artifact}")
        return "\n".join(lines)


class Explorer:
    """Depth-first stateless exploration of one scenario."""

    def __init__(self, scenario, buggy: bool = False, full: bool = False):
        self.scenario = scenario
        self.buggy = buggy
        self.full = full

    def run_one(
        self,
        prefix: tuple[int, ...] = (),
        seen_states: Optional[set] = None,
    ) -> Execution:
        """Execute one fresh world following ``prefix``, default beyond."""
        sanitizer = SimSanitizer().install()
        try:
            world = self.scenario.build(buggy=self.buggy)
            controller = ScheduleController(
                prefix, seen_states, world.snapshot
            )
            # Scenarios that wrap a different world shape (the replica
            # matrix) supply their own safety monitor; the default wraps
            # the single-server ScaleRPC internals.
            make_observer = getattr(self.scenario, "make_observer", None)
            if make_observer is not None:
                observer = make_observer(world)
            else:
                observer = ProtocolObserver(world)
            world.sim.tiebreak = controller
            steps, done, crash = self._drive(world)
        finally:
            report = sanitizer.uninstall()
        violations = list(observer.violations)
        if crash is not None:
            violations.append(
                Violation("protocol-error", f"{type(crash).__name__}: {crash}")
            )
        if not done:
            waiting = sum(1 for h in world.handles if not h.event.triggered)
            violations.append(
                Violation(
                    "request-liveness",
                    f"horizon {world.horizon_ns}ns reached with "
                    f"{waiting} unanswered request(s) and "
                    f"{sum(1 for d in world.drivers if not d.triggered)} "
                    f"driver(s) still running",
                )
            )
        for finding in report.findings:
            if finding.rule not in _REORDERING_RULES:
                violations.append(Violation(finding.rule, finding.message))
        return Execution(
            schedule=tuple(controller.picked),
            prefix_len=len(prefix),
            n_options=controller.n_options,
            pruned=controller.pruned,
            violations=violations,
            steps=steps,
            sim_now=world.sim.now,
            done=done,
        )

    def _drive(self, world) -> tuple[int, bool, Optional[BaseException]]:
        sim = world.sim
        steps = 0
        try:
            while steps < MAX_STEPS:
                if all(driver.triggered for driver in world.drivers):
                    return steps, True, None
                upcoming = sim.peek()
                if upcoming is None or upcoming > world.horizon_ns:
                    return steps, False, None
                sim.step()
                steps += 1
        except (ProtocolError, AssertionError) as exc:
            # Graduated invariants (illegal transitions, always-on
            # asserts) surface as hard failures; the schedule that
            # provoked one is itself the counterexample.
            return steps, False, exc
        return steps, False, None

    def explore(
        self,
        max_schedules: int = 2000,
        artifact_dir: Optional[Path] = None,
        max_violations: int = 10,
    ) -> ExplorationReport:
        """DFS over the schedule space up to ``max_schedules`` executions."""
        report = ExplorationReport(scenario=self.scenario.name, buggy=self.buggy)
        seen_states: Optional[set] = None if self.full else set()
        stack: list[tuple[int, ...]] = [()]
        while stack and report.schedules < max_schedules:
            prefix = stack.pop()
            execution = self.run_one(prefix, seen_states)
            report.schedules += 1
            report.choice_points += len(execution.n_options)
            report.max_depth = max(report.max_depth, len(execution.n_options))
            if not execution.ok:
                report.violating.append(execution)
                if artifact_dir is not None:
                    report.artifacts.append(
                        str(write_artifact(artifact_dir, self, execution))
                    )
                if len(report.violating) >= max_violations:
                    break
            # Branch: deepest alternatives are pushed last, popped first.
            for depth in range(execution.prefix_len, len(execution.n_options)):
                if execution.pruned[depth]:
                    report.pruned_branches += execution.n_options[depth] - 1
                    continue
                base = execution.schedule[:depth]
                for alternative in range(1, execution.n_options[depth]):
                    stack.append(base + (alternative,))
        report.exhausted = not stack
        return report


def write_artifact(
    artifact_dir: Path, explorer: Explorer, execution: Execution
) -> Path:
    """Persist a violating schedule as a deterministic replay artifact."""
    artifact_dir = Path(artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    slug = "-".join(str(pick) for pick in execution.schedule) or "fifo"
    if len(slug) > 48:
        # Deep schedules (replica scenarios run to thousands of choice
        # points) would blow past the filesystem's name limit: keep the
        # filename short and let the JSON body carry the full schedule.
        digest = hashlib.sha256(slug.encode("ascii")).hexdigest()[:16]
        slug = f"L{len(execution.schedule)}-{digest}"
    name = f"{explorer.scenario.name}{'-buggy' if explorer.buggy else ''}-{slug}.json"
    path = artifact_dir / name
    path.write_text(
        json.dumps(
            {
                "scenario": explorer.scenario.name,
                "buggy": explorer.buggy,
                "schedule": list(execution.schedule),
                "violations": [
                    {"rule": v.rule, "message": v.message}
                    for v in execution.violations
                ],
                "sim_now": execution.sim_now,
                "steps": execution.steps,
            },
            indent=1,
        )
        + "\n"
    )
    return path


def replay(
    scenario, schedule, buggy: bool = False
) -> Execution:
    """Re-execute one recorded schedule (or an artifact file) verbatim.

    ``schedule`` may be a sequence of picks or a path to a JSON artifact
    written by :func:`write_artifact`.
    """
    if isinstance(schedule, (str, Path)):
        doc = json.loads(Path(schedule).read_text())
        buggy = doc["buggy"]
        schedule = doc["schedule"]
    return Explorer(scenario, buggy=buggy).run_one(tuple(schedule))
