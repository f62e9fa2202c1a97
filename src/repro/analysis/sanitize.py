"""SimSanitizer — opt-in runtime invariant checking for the simulation stack.

The static lint (:mod:`repro.analysis.flowlint`) proves properties of the
*source*; this module checks properties of a *run*.  When enabled (set
``REPRO_SANITIZE=1``; the test suite installs it per-test via a conftest
fixture) it monkeypatches the simulation kernel and the resource models
with instrumented variants and collects violations into a single
:class:`SanitizerReport`:

- **Event delivery** (`sim/engine.py`): simulated time never decreases,
  and deliveries at one instant (events and continuation steps) honour
  FIFO order (the deque/heap invariant documented on :class:`~repro.sim.engine.Simulator`).
- **Resources** (`sim/resources.py`): slots granted == released +
  currently held, including ``release()``'s handoff to any waiter.
- **Queue pairs** (`rdma/qp.py`): state transitions stay inside
  ``ALLOWED_TRANSITIONS``, and receive WQEs are conserved
  (``recvs_posted == recvs_consumed + len(recv_queue)``).
- **Completion queues** (`rdma/cq.py`): no completion is deposited or
  consumed twice, depth never exceeds ``cq.depth``, and every pushed
  completion is accounted for (polled, event-drained, or still queued).
- **Message pools** (`core/msgpool.py`, `baselines/common.py`): an
  inbound write may not land on an address whose previous message is
  still *live* (routed/dispatched and not yet read by the CPU).  For
  ScaleRPC's virtualized pools liveness is epoch-scoped (overwriting
  across epochs is the design); for the static-region baselines a
  dedicated per-client region must never overwrite a live message.
  Slots still live at the end of a run are reported as a statistic, not
  a violation (in-flight traffic is legal).
- **Memory system** (`memsys/`): PCIe counters are monotone (sampled
  every few hundred deliveries and at finish), and LLC occupancy never
  exceeds geometry (total lines, per-set ways).

Instrumentation is strictly additive: every patched method calls the
original, so enabling the sanitizer cannot change simulation results —
only observe them.  ``uninstall()`` restores the pristine classes and
returns the report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..baselines.common import BaseRpcServer
from ..core.msgpool import PoolPair
from ..core.server import ScaleRpcServer
from ..memsys.llc import LastLevelCache
from ..memsys.pcie import PcieCounters
from ..rdma.cq import CompletionQueue
from ..rdma.node import Node
from ..rdma.qp import ALLOWED_TRANSITIONS, QueuePair
from ..sim.engine import Continuation, Event, Simulator
from ..sim.resources import Resource

__all__ = [
    "ENV_VAR",
    "enabled_from_env",
    "SanitizerFinding",
    "SanitizerReport",
    "SimSanitizer",
    "sanitized_run",
]

ENV_VAR = "REPRO_SANITIZE"

#: Findings recorded verbatim per rule before collapsing into a count.
MAX_FINDINGS_PER_RULE = 25

#: Deliveries between periodic PCIe-monotonicity samples.
PCIE_SAMPLE_PERIOD = 512


def enabled_from_env() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitized runs."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "no")


@dataclass(frozen=True)
class SanitizerFinding:
    """One invariant violation observed at runtime."""

    rule: str
    message: str

    def render(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class SanitizerReport:
    """Everything one sanitized run observed."""

    findings: list[SanitizerFinding] = field(default_factory=list)
    #: Total violations per rule (>= len of the recorded findings).
    rule_counts: dict[str, int] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = []
        if self.ok:
            lines.append("SimSanitizer: 0 findings")
        else:
            total = sum(self.rule_counts.values())
            lines.append(f"SimSanitizer: {total} finding(s)")
            for finding in self.findings:
                lines.append(f"  {finding.render()}")
            for rule, count in sorted(self.rule_counts.items()):
                if count > MAX_FINDINGS_PER_RULE:
                    lines.append(
                        f"  [{rule}] ... {count - MAX_FINDINGS_PER_RULE} more suppressed"
                    )
        if self.stats:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            lines.append(f"  stats: {pairs}")
        return "\n".join(lines)


class SimSanitizer:
    """Installable runtime invariant checker.

    Usage::

        sanitizer = SimSanitizer()
        sanitizer.install()
        try:
            ...  # build simulators, run experiments
        finally:
            report = sanitizer.uninstall()
        assert report.ok, report.render()

    Only objects *created while installed* are tracked; pre-existing
    simulators and resources pass through untouched.
    """

    def __init__(self):
        self._installed = False
        self._finished = False
        self._originals: list[tuple[Any, str, Any]] = []
        self.report = SanitizerReport()
        # Event bookkeeping.  Events use __slots__, so stamps live in a
        # side table keyed by id(); entries are popped at delivery, which
        # keeps the table small and immune to id reuse for live events.
        self._next_stamp = 0
        self._stamps: dict[int, int] = {}
        # Keyed by id(sim) but holding the sim: the reference pins the id
        # so a later Simulator cannot reuse it and inherit stale state.
        self._sim_state: dict[int, dict[str, Any]] = {}
        self._delivered = 0
        # Tracked objects (strong refs keep ids stable).
        self._resources: dict[int, tuple[Resource, dict[str, int]]] = {}
        self._qps: dict[int, QueuePair] = {}
        self._cqs: dict[int, tuple[CompletionQueue, dict[str, Any]]] = {}
        self._pcie: dict[int, list] = {}  # id -> [counters, last_sample|None]
        self._llcs: dict[int, LastLevelCache] = {}
        # Message-pool liveness: node id -> {addr: (epoch, size)}.  For
        # the static-region baselines the epoch is None: a dedicated
        # region never legally overwrites a live message at any time.
        self._node_pools: dict[int, tuple[Node, list[PoolPair]]] = {}
        self._baseline_nodes: dict[int, Node] = {}
        self._llc_nodes: dict[int, int] = {}
        self._live: dict[int, dict[int, tuple[Optional[int], int]]] = {}

    # -- findings ---------------------------------------------------------

    def _finding(self, rule: str, message: str) -> None:
        count = self.report.rule_counts.get(rule, 0) + 1
        self.report.rule_counts[rule] = count
        if count <= MAX_FINDINGS_PER_RULE:
            self.report.findings.append(SanitizerFinding(rule, message))
            # Violations land in the trace too (as instants on their own
            # track), so a Perfetto view shows *when* an invariant broke
            # relative to the message flow around it.
            from ..obs import current as _obs_current

            obs = _obs_current()
            if obs is not None:
                obs.instant("sanitizer", rule, obs.now(), {"message": message})

    def _bump(self, stat: str, by: int = 1) -> None:
        self.report.stats[stat] = self.report.stats.get(stat, 0) + by

    # -- patch plumbing ---------------------------------------------------

    def _patch(self, obj: Any, name: str, replacement: Any) -> None:
        self._originals.append((obj, name, getattr(obj, name)))
        setattr(obj, name, replacement)

    def install(self) -> "SimSanitizer":
        if self._installed:
            return self
        self._installed = True
        self._install_engine()
        self._install_resources()
        self._install_qp()
        self._install_cq()
        self._install_memsys()
        self._install_msgpool()
        return self

    def uninstall(self) -> SanitizerReport:
        """Run finish checks, restore the pristine classes, return the report."""
        if self._installed:
            self.finish()
            for obj, name, value in reversed(self._originals):
                setattr(obj, name, value)
            self._originals.clear()
            self._installed = False
        return self.report

    # -- engine: time monotonicity + FIFO tiebreak order ------------------

    def _stamp(self, event: Event) -> None:
        self._next_stamp += 1
        self._stamps[id(event)] = self._next_stamp

    def _install_engine(self) -> None:
        sanitizer = self
        orig_succeed = Event.succeed
        orig_fail = Event.fail
        orig_schedule = Simulator._schedule

        def succeed(event: Event, value: Any = None) -> Event:
            sanitizer._stamp(event)
            return orig_succeed(event, value)

        def fail(event: Event, exception: BaseException) -> Event:
            sanitizer._stamp(event)
            return orig_fail(event, exception)

        def _schedule(sim: Simulator, at: int, event: Event) -> None:
            # Future events get their stamp at scheduling time: the heap
            # delivers same-instant entries in seq (== stamp) order, ahead
            # of anything succeed()-ed once that instant is reached.  A
            # continuation enqueues itself only through here.
            sanitizer._stamp(event)
            orig_schedule(sim, at, event)

        def checked(orig_deliver: Callable[[Any], None]) -> Callable[[Any], None]:
            def _deliver(event: Any) -> None:
                sim = event.sim
                state = sanitizer._sim_state.get(id(sim))
                if state is None:
                    state = {"sim": sim, "time": -1, "stamp": -1}
                    sanitizer._sim_state[id(sim)] = state
                    sanitizer._bump("sims")
                now = sim.now
                if now < state["time"]:
                    sanitizer._finding(
                        "time-monotone",
                        f"delivery at t={now} after t={state['time']}",
                    )
                elif now > state["time"]:
                    state["time"] = now
                    state["stamp"] = -1
                stamp = sanitizer._stamps.pop(id(event), None)
                if stamp is not None:
                    if stamp <= state["stamp"]:
                        sanitizer._finding(
                            "fifo-order",
                            f"t={now}: event stamped #{stamp} delivered after "
                            f"#{state['stamp']} of the same instant",
                        )
                    else:
                        state["stamp"] = stamp
                sanitizer._delivered += 1
                if sanitizer._delivered % PCIE_SAMPLE_PERIOD == 0:
                    sanitizer._check_pcie()
                orig_deliver(event)
            return _deliver

        self._patch(Event, "succeed", succeed)
        self._patch(Event, "fail", fail)
        self._patch(Event, "_deliver", checked(Event._deliver))
        self._patch(Continuation, "_deliver", checked(Continuation._deliver))
        self._patch(Simulator, "_schedule", _schedule)

    # -- resources: slot conservation -------------------------------------

    def _install_resources(self) -> None:
        sanitizer = self
        orig_init = Resource.__init__
        orig_acquire = Resource.acquire
        orig_release = Resource.release

        def __init__(resource: Resource, *args, **kwargs) -> None:
            orig_init(resource, *args, **kwargs)
            sanitizer._resources[id(resource)] = (
                resource,
                {"acquired": 0, "released": 0},
            )
            sanitizer._bump("resources")

        def acquire(resource: Resource, waiter: Any) -> None:
            # request() and every continuation grant come through here; a
            # queued waiter is counted at the release that hands it over.
            in_use = resource._in_use
            orig_acquire(resource, waiter)
            entry = sanitizer._resources.get(id(resource))
            if entry is not None and resource._in_use > in_use:
                entry[1]["acquired"] += 1

        def release(resource: Resource) -> None:
            # A release with waiters hands the slot over: one release plus
            # one acquisition, occupancy unchanged.
            handoff = resource._in_use > 0 and len(resource._waiters) > 0
            orig_release(resource)
            entry = sanitizer._resources.get(id(resource))
            if entry is None:
                return
            acct = entry[1]
            acct["released"] += 1
            if handoff:
                acct["acquired"] += 1
            held = acct["acquired"] - acct["released"]
            if resource.in_use != held:
                sanitizer._finding(
                    "resource-conservation",
                    f"resource {resource.name!r}: in_use={resource.in_use} "
                    f"but acquired-released={held}",
                )

        self._patch(Resource, "__init__", __init__)
        self._patch(Resource, "acquire", acquire)
        self._patch(Resource, "release", release)

    # -- queue pairs: state machine + recv WQE conservation ---------------

    def _install_qp(self) -> None:
        sanitizer = self
        orig_init = QueuePair.__init__
        orig_prop = QueuePair.state

        def __init__(qp: QueuePair, *args, **kwargs) -> None:
            orig_init(qp, *args, **kwargs)
            sanitizer._qps[id(qp)] = qp
            sanitizer._bump("qps")

        def set_state(qp: QueuePair, new_state) -> None:
            old = qp._state
            if new_state is not old:
                sanitizer._bump("qp_transitions")
                if (old, new_state) not in ALLOWED_TRANSITIONS:
                    sanitizer._finding(
                        "qp-transition",
                        f"QP {qp.qp_num}: illegal {old.value} -> {new_state.value}",
                    )
            # The property setter re-validates and raises; the finding
            # above survives in the report even if the caller swallows it.
            orig_prop.fset(qp, new_state)

        self._patch(QueuePair, "__init__", __init__)
        self._patch(QueuePair, "state", property(orig_prop.fget, set_state))

    # -- completion queues: double push/poll, overflow, accounting --------

    def _install_cq(self) -> None:
        sanitizer = self
        orig_init = CompletionQueue.__init__
        orig_push = CompletionQueue.push
        orig_poll = CompletionQueue.poll
        orig_get_event = CompletionQueue.get_event

        def __init__(cq: CompletionQueue, *args, **kwargs) -> None:
            orig_init(cq, *args, **kwargs)
            sanitizer._cqs[id(cq)] = (cq, {"outstanding": set(), "drained": 0})
            sanitizer._bump("cqs")

        def push(cq: CompletionQueue, completion) -> None:
            entry = sanitizer._cqs.get(id(cq))
            if entry is not None and id(completion) in entry[1]["outstanding"]:
                sanitizer._finding(
                    "cq-double-push",
                    f"CQ {cq.name!r}: completion wr_id={completion.wr_id} "
                    f"pushed while still queued",
                )
            accepted_before = cq.pushed
            orig_push(cq, completion)
            if entry is not None:
                # A fatal overrun drops the completion (cq.pushed does not
                # advance): nothing to track, and the overrun itself is the
                # modelled hardware behaviour, not an accounting violation.
                if cq.pushed > accepted_before:
                    entry[1]["outstanding"].add(id(completion))
                if len(cq) > cq.depth:
                    sanitizer._finding(
                        "cq-overflow",
                        f"CQ {cq.name!r}: {len(cq)} completions exceed "
                        f"depth {cq.depth}",
                    )

        def _consume(cq: CompletionQueue, acct: dict, completion, how: str) -> None:
            outstanding = acct["outstanding"]
            if id(completion) in outstanding:
                outstanding.discard(id(completion))
            else:
                sanitizer._finding(
                    "cq-double-poll",
                    f"CQ {cq.name!r}: completion wr_id={completion.wr_id} "
                    f"{how} twice (or never pushed)",
                )

        def poll(cq: CompletionQueue, max_entries: int = 16):
            out = orig_poll(cq, max_entries)
            entry = sanitizer._cqs.get(id(cq))
            if entry is not None:
                for completion in out:
                    _consume(cq, entry[1], completion, "polled")
            return out

        def get_event(cq: CompletionQueue) -> Event:
            event = orig_get_event(cq)
            entry = sanitizer._cqs.get(id(cq))
            if entry is not None:
                acct = entry[1]

                def drained(ev: Event, cq=cq, acct=acct) -> None:
                    if ev.ok:
                        acct["drained"] += 1
                        _consume(cq, acct, ev.value, "drained")

                event.add_callback(drained)
            return event

        self._patch(CompletionQueue, "__init__", __init__)
        self._patch(CompletionQueue, "push", push)
        self._patch(CompletionQueue, "poll", poll)
        self._patch(CompletionQueue, "get_event", get_event)

    # -- memory system: PCIe monotonicity + LLC occupancy -----------------

    def _install_memsys(self) -> None:
        sanitizer = self
        orig_node_init = Node.__init__
        orig_reset = PcieCounters.reset
        orig_cpu_access = LastLevelCache.cpu_access

        def node_init(node: Node, *args, **kwargs) -> None:
            orig_node_init(node, *args, **kwargs)
            sanitizer._pcie[id(node.counters)] = [node.counters, None]
            sanitizer._llcs[id(node.llc)] = node.llc
            sanitizer._bump("nodes")

        def reset(counters: PcieCounters) -> None:
            orig_reset(counters)
            entry = sanitizer._pcie.get(id(counters))
            if entry is not None:
                entry[1] = None  # rebase monotonicity after a legal reset

        def cpu_access(llc: LastLevelCache, addr: int, size: int, write: bool = False):
            result = orig_cpu_access(llc, addr, size, write)
            node_id = sanitizer._llc_nodes.get(id(llc))
            if node_id is not None:
                live = sanitizer._live.get(node_id)
                if live:
                    end = addr + size
                    dead = [
                        a for a, (_epoch, sz) in live.items() if a < end and a + sz > addr
                    ]
                    for a in dead:
                        del live[a]
            return result

        self._patch(Node, "__init__", node_init)
        self._patch(PcieCounters, "reset", reset)
        self._patch(LastLevelCache, "cpu_access", cpu_access)

    def _check_pcie(self) -> None:
        self._bump("pcie_samples")
        for entry in self._pcie.values():
            counters, last = entry
            current = (
                counters.pcie_rd_cur,
                counters.rfo,
                counters.itom,
                counters.pcie_itom,
            )
            if last is not None and any(c < p for c, p in zip(current, last)):
                self._finding(
                    "pcie-monotone",
                    f"PCIe counters decreased: {last} -> {current}",
                )
            entry[1] = current

    # -- message pools: overwrite-while-live ------------------------------

    def _install_msgpool(self) -> None:
        sanitizer = self
        orig_pair_init = PoolPair.__init__
        orig_deliver = Node.deliver_write
        orig_route = ScaleRpcServer._route
        orig_base_init = BaseRpcServer.__init__
        orig_dispatch = BaseRpcServer.dispatch

        def pair_init(pair: PoolPair, node: Node, config) -> None:
            orig_pair_init(pair, node, config)
            entry = sanitizer._node_pools.setdefault(id(node), (node, []))
            entry[1].append(pair)
            sanitizer._llc_nodes[id(node.llc)] = id(node)
            sanitizer._bump("pool_pairs")

        def _route(server: ScaleRpcServer, item) -> None:
            # A routed request is *live*: the pool bytes at item.addr must
            # survive untouched until a worker's cpu_access consumes them.
            # Writes the server drops (stale, raced the switch) never
            # become live — the client reposts them, so overwriting their
            # bytes is the stateless-pool behaviour the paper relies on.
            orig_route(server, item)
            if id(server.node) in sanitizer._node_pools:
                live = sanitizer._live.setdefault(id(server.node), {})
                size = getattr(item.request, "wire_bytes", None) or 64
                live[item.addr] = (item.epoch, size)
                sanitizer._bump("msgpool_routed")

        def base_init(server: BaseRpcServer, node: Node, *args, **kwargs) -> None:
            orig_base_init(server, node, *args, **kwargs)
            sanitizer._baseline_nodes[id(node)] = node
            sanitizer._llc_nodes[id(node.llc)] = id(node)
            sanitizer._bump("baseline_servers")

        def dispatch(server: BaseRpcServer, request, addr) -> None:
            # Same contract as _route, for the static-mapping baselines:
            # a dispatched request is live until a worker's cpu_access
            # consumes it.  Static regions have no epochs (None sentinel):
            # any overwrite of a live message is a violation.
            orig_dispatch(server, request, addr)
            if addr is not None and id(server.node) in sanitizer._baseline_nodes:
                live = sanitizer._live.setdefault(id(server.node), {})
                live[addr] = (None, request.wire_bytes)
                sanitizer._bump("baseline_dispatched")

        def deliver_write(node: Node, event) -> None:
            # Check before delivering: the original call runs the server's
            # watcher, which may route (and thus mark live) this very write.
            entry = sanitizer._node_pools.get(id(node))
            if entry is not None:
                for pair in entry[1]:
                    if pair.pool_of_addr(event.addr) is None:
                        continue
                    sanitizer._bump("msgpool_writes")
                    live = sanitizer._live.get(id(node))
                    previous = live.get(event.addr) if live else None
                    if previous is not None and previous[0] == pair.epoch:
                        sanitizer._finding(
                            "msgpool-overwrite-live",
                            f"node {node.name}: write to {event.addr:#x} "
                            f"overwrites a routed, unread message of epoch "
                            f"{pair.epoch}",
                        )
                    break
            elif id(node) in sanitizer._baseline_nodes:
                sanitizer._bump("msgpool_writes")
                live = sanitizer._live.get(id(node))
                previous = live.get(event.addr) if live else None
                if previous is not None and previous[0] is None:
                    sanitizer._finding(
                        "msgpool-overwrite-live",
                        f"node {node.name}: write to {event.addr:#x} "
                        f"overwrites a dispatched, unread message in a "
                        f"static region",
                    )
            orig_deliver(node, event)

        self._patch(PoolPair, "__init__", pair_init)
        self._patch(Node, "deliver_write", deliver_write)
        self._patch(ScaleRpcServer, "_route", _route)
        self._patch(BaseRpcServer, "__init__", base_init)
        self._patch(BaseRpcServer, "dispatch", dispatch)

    # -- end-of-run conservation checks -----------------------------------

    def finish(self) -> None:
        """Run the end-of-run conservation checks (once)."""
        if self._finished:
            return
        self._finished = True
        if self._delivered:
            self.report.stats["deliveries"] = self._delivered
        for resource, acct in self._resources.values():
            held = acct["acquired"] - acct["released"]
            if resource.in_use != held:
                self._finding(
                    "resource-conservation",
                    f"at finish: resource {resource.name!r} in_use="
                    f"{resource.in_use} but acquired-released={held}",
                )
        for qp in self._qps.values():
            if qp.recvs_posted != qp.recvs_consumed + len(qp.recv_queue):
                self._finding(
                    "qp-recv-conservation",
                    f"QP {qp.qp_num}: posted={qp.recvs_posted} != "
                    f"consumed={qp.recvs_consumed} + queued={len(qp.recv_queue)}",
                )
        inflight = 0
        for cq, acct in self._cqs.values():
            gap = cq.pushed - cq.polled - acct["drained"] - len(acct["outstanding"])
            if gap != 0:
                self._finding(
                    "cq-conservation",
                    f"CQ {cq.name!r}: pushed={cq.pushed} != polled={cq.polled} "
                    f"+ drained={acct['drained']} + "
                    f"outstanding={len(acct['outstanding'])}",
                )
            inflight += len(acct["outstanding"])
        if inflight:
            self.report.stats["cq_inflight_at_finish"] = inflight
        for llc in self._llcs.values():
            # No set over its ways means no cache over its capacity.
            params = llc.params
            for index, lines in llc.built_sets().items():
                if len(lines) > params.ways:
                    self._finding(
                        "llc-occupancy",
                        f"LLC set {index} holds {len(lines)} lines > "
                        f"{params.ways} ways",
                    )
                    break
        self._check_pcie()
        leaked = sum(len(live) for live in self._live.values())
        if leaked:
            # In-flight messages at run end are legal; surface as a stat.
            self.report.stats["msgpool_live_at_finish"] = leaked


def sanitized_run(body: Callable[[], Any]) -> tuple[Any, SanitizerReport]:
    """Run ``body()`` under a fresh sanitizer; return (result, report)."""
    sanitizer = SimSanitizer()
    sanitizer.install()
    try:
        result = body()
    finally:
        report = sanitizer.uninstall()
    return result, report
