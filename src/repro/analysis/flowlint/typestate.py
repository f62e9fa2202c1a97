"""Interprocedural layer, part 3: resource-typestate checking.

A :class:`ResourceProtocol` names the lifecycle of one scarce resource
class — how it is acquired, released, and which operations are invalid
after release.  The engine runs each function through the CFG in
*exception mode* (``build_cfg(..., raises=...)``): every statement whose
calls may raise — decided by the bottom-up ``may_raise`` summaries —
gets an edge from the pre-statement state to the innermost handler
scope, and a dedicated ``exc_exit`` block collects the paths on which an
exception escapes the function.  The dataflow state tracks, per
resource (identified by its acquire site), a status powerset over
``HELD`` / ``RELEASED`` / ``ESCAPED``:

- acquiring binds the result local to a fresh ``HELD`` resource
  (acquire-on-success: the exception edge of the acquiring statement
  carries the *pre*-bind state);
- releasing through the bound local (or an attribute chain rooted at
  it: ``ctx.qp.close()``) moves ``HELD`` to ``RELEASED``; two releases
  through the *same* chain on a definitely-released resource are
  ``resource-typestate: double-release`` (different chains release
  different sub-objects — no finding);
- passing the local to any call, storing it on ``self``/a global,
  returning it, or awaiting a ``wait_for``-style wrapper marks it
  ``ESCAPED`` *on that path* — ownership moved somewhere this function
  cannot see, so later checks on that path stay quiet (this is what
  keeps release-via-helper and ownership-transfer shapes clean).  Two
  transfers keep ownership visible instead of escaping: wrapping the
  resource in a constructor (``Extent(addr)``) rebinds the result, and
  ``local_list.append(x)`` binds the container, so ``return extents``
  still reads as a transfer but an exception mid-loop still reads as a
  leak;
- a protocol ``use`` method on a definitely-``RELEASED`` resource is
  ``resource-typestate: use-after-close``;
- at ``exc_exit``, any resource still possibly ``HELD`` is
  ``resource-leak`` — some path unwound past a live resource.  A
  status is one of the three values *per path* (escape/release
  replace ``HELD`` rather than accumulate), so a later escape on the
  happy path cannot mask the held-at-raise path;
- at a normal exit, a possibly-``HELD`` resource is a leak only when
  the function releases *some* resource of the same protocol on
  another path — a function that never releases is a constructor
  handing ownership out, not a leak site.

Two deliberate asymmetries keep the noise floor down: methods whose
name is any protocol's release (``close``/``stop``/``cancel``/``free``)
are assumed not to raise for exception-edge purposes (a throwing
destructor is the simulator's assertion domain, and treating it as an
edge would flag every ``finally: x.close()``), and calls *on*
``self``/``cls`` never arm or track — a method re-arming its own object
(``await self.connect()`` inside ``reconnect``) is lifecycle
delegation, not a fresh resource.

Findings are scoped: each protocol names the source trees whose
lifecycle it owns, and only ``src/`` files are checked (test code's
teardown discipline belongs to pytest fixtures, not this engine).
Suppress with the usual ``ignore[resource-leak]`` /
``ignore[resource-typestate]`` pragma comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from . import cfg as C
from .callgraph import CallGraph
from .pragmas import Finding
from .summaries import external_may_raise

__all__ = [
    "ResourceProtocol",
    "PROTOCOLS",
    "check_typestate",
    "HELD",
    "RELEASED",
    "ESCAPED",
]

HELD = "held"
RELEASED = "released"
ESCAPED = "escaped"


@dataclass(frozen=True)
class ResourceProtocol:
    """Declared lifecycle of one resource class.

    ``acquires`` entries are call names whose *result* is the resource;
    a dotted ``Owner.method`` entry additionally requires the call to
    resolve to that class's method (gating generic names like
    ``allocate``).  ``arms`` entries mark the *receiver* acquired
    (connect-style protocols with no separate handle).  ``releases``
    are methods on the resource (or an attribute chain under it);
    ``release_args`` are calls that release a resource passed to them
    as an argument; ``uses`` are receiver methods invalid after
    release.
    """

    name: str
    #: Path components (under ``src/``) whose findings this protocol owns.
    scope: tuple
    acquires: tuple = ()
    arms: tuple = ()
    releases: tuple = ()
    release_args: tuple = ()
    uses: tuple = ()


#: The declared protocols: each maps a lifecycle named in the paper's
#: resource-sharing story onto the concrete API of this codebase.
PROTOCOLS = (
    # QP create -> connect/RTS -> close (rdma/qp.py, rdma/node.py).
    ResourceProtocol(
        name="qp",
        scope=("core", "rdma", "dfs"),
        acquires=("create_qp",),
        releases=("close",),
        uses=("connect", "to_rts", "post_send", "post_recv"),
    ),
    # Dataserver extent allocate -> free (dfs/dataserver.py).  The
    # dotted entry gates the generic name `allocate` to the allocator.
    ResourceProtocol(
        name="extent",
        scope=("dfs",),
        acquires=("allocate_extent", "ExtentAllocator.allocate"),
        release_args=("free_extent", "free"),
        uses=(),
    ),
    # Net transport/client connect -> close, listener start -> stop
    # (net/transport.py, net/procserver.py).
    ResourceProtocol(
        name="netconn",
        scope=("net",),
        arms=("connect", "start"),
        releases=("close", "stop"),
        uses=("send", "flush", "async_call"),
    ),
    # asyncio task create -> cancel/await (net/).  Awaiting the bare
    # task consumes it; wait_for/gather wrappers count as escapes.
    ResourceProtocol(
        name="task",
        scope=("net",),
        acquires=("create_task", "ensure_future"),
        releases=("cancel",),
        uses=(),
    ),
    # Server lease eviction: `remove_client` hands back the evicted
    # ClientContext, whose QPs the caller must dispose (core/server.py).
    ResourceProtocol(
        name="lease",
        scope=("core",),
        acquires=("remove_client",),
        releases=("close",),
        uses=(),
    ),
    # Membership view subscription: subscribe -> notify* -> unsubscribe
    # (replica/membership.py).  A runner that subscribes must release on
    # every exit path or the callback outlives its world.
    ResourceProtocol(
        name="view-subscription",
        scope=("replica",),
        acquires=("subscribe",),
        releases=("unsubscribe",),
        uses=("deliver",),
    ),
    # Replica log append: the pending tail entry must be resolved by
    # exactly one ack (durable) or abort (withdrawn) before the next
    # append (replica/log.py).  Acquisition requires the call result to
    # be bound, so bare list.append statements never participate.
    ResourceProtocol(
        name="replica-log",
        scope=("replica",),
        acquires=("append",),
        releases=("ack", "abort"),
        uses=(),
    ),
)

#: Awaited wrappers whose argument ownership moves into the wrapper.
_ESCAPE_AWAITS = frozenset({"wait_for", "gather", "shield", "wait"})

#: Container methods that transfer ownership *into* a local container
#: (the container then carries the binding) rather than escaping.
_CONTAINER_ADDS = frozenset({"append", "add", "insert", "appendleft"})


def _scoped(path: str, protocol: ResourceProtocol) -> bool:
    parts = set(path.replace("\\", "/").split("/"))
    return "src" in parts and bool(parts & set(protocol.scope))


def _callee_simple(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _receiver_chain(node: ast.AST) -> Optional[tuple]:
    """``ctx.qp.peer`` -> ("ctx", "qp", "peer"); None when not a pure
    Name/Attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


# ---------------------------------------------------------------------------
# Dataflow state
# ---------------------------------------------------------------------------
# State = (bindings, statuses, released_chains, fn-facts are external):
#   bindings: frozenset of (var, rid) — var currently names resource rid
#   statuses: frozenset of (rid, status)
#   chains:   frozenset of (rid, chain) — receiver chains already used
#             to release rid (double-release identity)
# rid = (protocol name, acquire (line, col)).

_EMPTY = (frozenset(), frozenset(), frozenset())


def _join(states):
    bindings, statuses, chains = set(), set(), set()
    for state in states:
        bindings |= state[0]
        statuses |= state[1]
        chains |= state[2]
    return (frozenset(bindings), frozenset(statuses), frozenset(chains))


class _Mut:
    """Mutable unpacking of one state for the transfer function."""

    def __init__(self, state):
        self.bindings: dict = {}
        for var, rid in state[0]:
            self.bindings.setdefault(var, set()).add(rid)
        self.statuses: dict = {}
        for rid, status in state[1]:
            self.statuses.setdefault(rid, set()).add(status)
        self.chains: set = set(state[2])

    def freeze(self):
        return (
            frozenset(
                (var, rid)
                for var, rids in self.bindings.items() for rid in rids
            ),
            frozenset(
                (rid, status)
                for rid, stats in self.statuses.items() for status in stats
            ),
            frozenset(self.chains),
        )

    def status_of(self, rid) -> set:
        return self.statuses.get(rid, set())

    def mark(self, rid, status) -> None:
        self.statuses[rid] = {status}


class _Engine:
    """Typestate over one function (all applicable protocols at once)."""

    def __init__(self, graph: CallGraph, summaries: dict, finfo,
                 protocols: tuple):
        self.graph = graph
        self.summaries = summaries
        self.finfo = finfo
        self.protocols = protocols
        self.findings: list[Finding] = []
        self._reported: set = set()
        self._release_names = frozenset(
            name for p in protocols for name in p.releases + p.release_args
        )

    # -- raise predicate ---------------------------------------------------

    def may_raise_call(self, call: ast.Call) -> bool:
        name = _callee_simple(call)
        if name in self._release_names:
            # Release calls are assumed not to raise: a throwing `close`
            # would turn every `finally: x.close()` into a leak edge.
            return False
        site = self.graph.site_by_call.get(id(call))
        if site is None:
            return True  # a call the graph never saw: assume the worst
        if site.target is not None:
            summary = self.summaries.get(site.target)
            return summary.may_raise if summary else True
        return external_may_raise(site.external or "?", call)

    # -- protocol matching -------------------------------------------------

    def _acquired_protocol(self, value: Optional[ast.AST]):
        """(protocol, call) when the value expression acquires."""
        if isinstance(value, ast.Await):
            value = value.value
        if not isinstance(value, ast.Call):
            return None
        name = _callee_simple(value)
        if name is None:
            return None
        site = self.graph.site_by_call.get(id(value))
        for protocol in self.protocols:
            for entry in protocol.acquires:
                owner, _, method = entry.rpartition(".")
                if method != name:
                    continue
                if owner:
                    if site is None or site.target is None:
                        continue
                    target_cls = site.target.rsplit(".", 2)[-2]
                    if target_cls != owner:
                        continue
                return (protocol, value)
        return None

    # -- the transfer function --------------------------------------------

    def transfer(self, block: C.Block, state, sink=None):
        mut = _Mut(state)
        for op in block.ops:
            if op.kind == C.ASSIGN:
                self._assign(mut, op)
            elif op.kind == C.CALL:
                if op.exc_shim:
                    self._shim_escape(mut, op)
                else:
                    self._call(mut, op, sink)
            elif op.kind == C.AWAIT:
                self._await(mut, op)
            elif op.kind == C.WRITE:
                self._escape_deps(mut, op.deps)
            elif op.kind == C.RETURN:
                self._escape_deps(mut, op.deps)
                if sink is not None:
                    self._check_exit(mut, op, at_return=True, sink=sink)
        return mut.freeze()

    def _assign(self, mut: _Mut, op: C.Op) -> None:
        acquired = self._acquired_protocol(op.value)
        if acquired is not None:
            protocol, call = acquired
            rid = (protocol.name, C._loc(call))
            mut.bindings[op.name] = {rid}
            mut.mark(rid, HELD)
            return
        value = op.value
        if isinstance(value, ast.Await):
            value = value.value
        if isinstance(value, ast.Name) and value.id in mut.bindings:
            # Plain alias: both names track the same resource.
            mut.bindings[op.name] = set(mut.bindings[value.id])
            return
        wrapped = self._wrapped_rids(mut, value)
        if wrapped:
            # `ext = Extent(addr)` / `pair = (a_qp, b_qp)`: the result
            # *wraps* the resources, so the binding follows it instead
            # of escaping — `return ext` still reads as a transfer.
            mut.bindings[op.name] = wrapped
            return
        mut.bindings.pop(op.name, None)

    def _wrapped_rids(self, mut: _Mut, value) -> set:
        """Resource ids a constructor call / container literal wraps."""
        names: list = []
        if isinstance(value, ast.Call):
            site = self.graph.site_by_call.get(id(value))
            if site is None or site.constructs is None:
                return set()
            names = [a for a in list(value.args)
                     + [kw.value for kw in value.keywords]
                     if isinstance(a, ast.Name)]
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            names = [e for e in value.elts if isinstance(e, ast.Name)]
        rids: set = set()
        for name in names:
            rids |= mut.bindings.get(name.id, set())
        return rids

    def _call(self, mut: _Mut, op: C.Op, sink) -> None:
        call = op.node
        if not isinstance(call, ast.Call):
            return
        name = _callee_simple(call)
        chain = (
            _receiver_chain(call.func.value)
            if isinstance(call.func, ast.Attribute) else None
        )
        if chain and chain[0] in ("self", "cls"):
            # A method never tracks its own object: `self.connect()` is
            # lifecycle delegation, not a fresh resource.
            chain = None
        # Ownership transfer into a function-local container:
        # `extents.append(ext)` binds the container to ext's resources.
        if (name in _CONTAINER_ADDS and chain and len(chain) == 1
                and chain[0] not in self.params):
            rids: set = set()
            for dep in op.deps:
                if dep[0] == "local":
                    rids |= mut.bindings.get(dep[1], set())
            if rids:
                mut.bindings.setdefault(chain[0], set()).update(rids)
                return
        # Receiver-rooted release / re-arm / use-after-close.
        if chain and chain[0] in mut.bindings and name is not None:
            var = chain[0]
            for rid in list(mut.bindings[var]):
                protocol = self._protocol_of(rid)
                if protocol is None:
                    continue
                if name in protocol.releases:
                    self._release(mut, op, rid, chain, sink)
                elif name in protocol.arms:
                    mut.mark(rid, HELD)  # reconnect after close
                elif (len(chain) == 1 and name in protocol.uses
                      and mut.status_of(rid) == {RELEASED}):
                    self._report(
                        sink, op, "resource-typestate",
                        f"[{protocol.name}] `{var}.{name}(...)` after "
                        f"`{var}` was released (acquired at line "
                        f"{rid[1][0]}): use-after-close",
                    )
        elif (chain and len(chain) == 1 and name is not None
                and chain[0] not in self.params):
            # Arm-style acquire: `client.connect()` marks the receiver
            # (params stay untracked — the caller owns those).
            for protocol in self.protocols:
                if name in protocol.arms:
                    rid = (protocol.name, C._loc(call))
                    mut.bindings.setdefault(chain[0], set()).add(rid)
                    mut.mark(rid, HELD)
        # Argument-passed release, wrap, or escape.
        site = self.graph.site_by_call.get(id(call))
        constructs = site is not None and site.constructs is not None
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            if isinstance(arg, ast.Name):
                if arg.id not in mut.bindings:
                    continue
                for rid in list(mut.bindings[arg.id]):
                    protocol = self._protocol_of(rid)
                    if protocol is None:
                        continue
                    if name is not None and name in protocol.release_args:
                        self._release(mut, op, rid, (arg.id,), sink)
                    elif not constructs:
                        # Constructor args are wraps (the _assign that
                        # binds the result keeps tracking them); any
                        # other call takes ownership.
                        self._escape(mut, rid)
            else:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in mut.bindings:
                        for rid in mut.bindings[sub.id]:
                            self._escape(mut, rid)

    def _shim_escape(self, mut: _Mut, op: C.Op) -> None:
        """On a handler edge, a raising call still *received* its
        arguments — those resources are the callee's problem, not a
        leak here.  Receivers and results stay untouched (acquire and
        arm remain on-success-only)."""
        call = op.node
        if not isinstance(call, ast.Call):
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id in mut.bindings:
                    for rid in list(mut.bindings[sub.id]):
                        self._escape(mut, rid)

    def _await(self, mut: _Mut, op: C.Op) -> None:
        node = op.node
        if not isinstance(node, ast.Await):
            return
        if isinstance(node.value, ast.Name):
            # `await task` consumes the resource outright.
            for rid in mut.bindings.get(node.value.id, set()):
                status = mut.status_of(rid)
                mut.statuses[rid] = {
                    RELEASED if s == HELD else s for s in status
                } or {RELEASED}
        elif isinstance(node.value, ast.Call):
            callee = _callee_simple(node.value)
            if callee in _ESCAPE_AWAITS:
                return  # args already escaped at the CALL op

    def _release(self, mut: _Mut, op: C.Op, rid, chain, sink) -> None:
        protocol = self._protocol_of(rid)
        status = mut.status_of(rid)
        key = (rid, chain)
        if status == {RELEASED} and key in mut.chains:
            self._report(
                sink, op, "resource-typestate",
                f"[{protocol.name}] `{'.'.join(chain)}` released twice "
                f"(resource acquired at line {rid[1][0]}): double-release",
            )
        mut.chains.add(key)
        # Per-path: HELD paths become RELEASED; ESCAPED paths released
        # ownership elsewhere already and stay ESCAPED (quiet).
        mut.statuses[rid] = {
            RELEASED if s == HELD else s for s in status
        } or {RELEASED}

    def _escape(self, mut: _Mut, rid) -> None:
        status = mut.status_of(rid)
        mut.statuses[rid] = {
            ESCAPED if s == HELD else s for s in status
        } or {ESCAPED}

    def _escape_deps(self, mut: _Mut, deps: tuple) -> None:
        for dep in deps:
            if dep[0] == "local" and dep[1] in mut.bindings:
                for rid in list(mut.bindings[dep[1]]):
                    self._escape(mut, rid)

    # -- exit checks -------------------------------------------------------

    def _protocol_of(self, rid) -> Optional[ResourceProtocol]:
        for protocol in self.protocols:
            if protocol.name == rid[0]:
                return protocol
        return None

    def _releases_protocol(self, name: str) -> bool:
        """Does this function release *any* resource of the protocol on
        some path?  (Gates normal-exit leak reports: a function that
        never releases is handing ownership out, not leaking.)"""
        return name in self._released_protocols

    def _check_exit(self, mut: _Mut, op, at_return: bool, sink) -> None:
        for rid, status in mut.statuses.items():
            if HELD not in status:
                continue  # every path released or transferred ownership
            protocol = self._protocol_of(rid)
            if protocol is None:
                continue
            if at_return and not self._releases_protocol(rid[0]):
                continue
            where = ("returns" if at_return else
                     "lets an exception escape")
            self._report(
                sink, op, "resource-leak",
                f"[{protocol.name}] resource acquired at line {rid[1][0]} "
                f"is still held when the function {where}; release it on "
                "this path (finally/except) or transfer ownership",
                loc=rid[1],
            )

    def _report(self, sink, op, rule: str, message: str,
                loc: Optional[tuple] = None) -> None:
        if sink is None:
            return
        loc = loc or op.loc
        key = (rule, loc, message)
        if key in self._reported:
            return
        self._reported.add(key)
        sink(Finding(
            path=self.finfo.path, line=loc[0], col=loc[1] + 1,
            rule=rule, message=message,
        ))

    # -- driver ------------------------------------------------------------

    def run(self, aliases: dict) -> list:
        func = self.finfo.node
        args = func.args.args
        has_self = bool(args) and args[0].arg == "self"
        a = func.args
        self.params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        if a.vararg:
            self.params.add(a.vararg.arg)
        if a.kwarg:
            self.params.add(a.kwarg.arg)
        locals_ = C.function_locals(func)

        def resolver(node):
            if isinstance(node, ast.Name):
                return None if node.id in locals_ else None
            if isinstance(node, ast.Attribute) and has_self:
                parts = _receiver_chain(node)
                if parts and parts[0] == "self":
                    return ".".join(parts)
            return None

        graph = C.build_cfg(func, aliases, resolver,
                            raises=self.may_raise_call)
        # Pre-compute which protocols this function ever releases
        # (syntactic, any-path: gates normal-exit leak reports).
        self._released_protocols = set()
        for block in graph.blocks:
            for op in block.ops:
                if op.kind != C.CALL or not isinstance(op.node, ast.Call):
                    continue
                name = _callee_simple(op.node)
                for protocol in self.protocols:
                    if name in protocol.releases or (
                        name in protocol.release_args
                    ):
                        self._released_protocols.add(protocol.name)
        entry_states = C.dataflow(graph, self.transfer, _join, _EMPTY)

        def sink(finding: Finding) -> None:
            self.findings.append(finding)

        terminal = {
            block.bid for block in graph.blocks
            if not block.succs and block.bid != graph.exc_exit
        }
        for block in graph.blocks:
            if block.bid not in entry_states:
                continue  # unreachable
            out = self.transfer(block, entry_states[block.bid], sink=sink)
            if block.bid in terminal:
                mut = _Mut(out)
                self._check_exit(mut, block.ops[-1] if block.ops else None,
                                 at_return=True, sink=sink)
        exc_state = entry_states.get(graph.exc_exit)
        if exc_state is not None:
            mut = _Mut(exc_state)
            self._check_exit(mut, None, at_return=False, sink=sink)
        return self.findings


def check_typestate(
    graph: CallGraph,
    summaries: dict,
    aliases_by_path: dict,
) -> list:
    """Run every declared protocol over every in-scope function."""
    findings: list[Finding] = []
    for finfo in graph.functions.values():
        protocols = tuple(
            p for p in PROTOCOLS if _scoped(finfo.path, p)
        )
        if not protocols:
            continue
        engine = _Engine(graph, summaries, finfo, protocols)
        findings.extend(engine.run(aliases_by_path.get(finfo.path, {})))
    return findings
