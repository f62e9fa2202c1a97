"""The flowlint pass catalog.

Every pass consumes the one-parse-per-file :class:`ModuleContext` the
driver builds (tree, import aliases, module globals) and appends
:class:`~.pragmas.Finding` records.  The five determinism rules
(``rng-call``, ``wall-clock``, ``set-iter``, ``mutable-default``,
``float-time-eq``) are one pass of their own, :mod:`.determinism`.  The
flow rule IDs:

``yield-race``       (pass 1, CFG + dataflow)
    A read-modify-write of shared state (``self.*`` attributes, module
    globals) whose read and write are separated by an ``await`` — the
    canonical asyncio lost-update — including the check-then-act form
    where the "act" is an in-place container mutation.  Sim-generator
    ``yield`` points are not interleaving edges here: the sim kernel's
    interleavings are explored exhaustively by ``repro.analysis.mc``,
    which owns that territory.
``async-blocking``   (pass 2)
    A loop-stalling synchronous call (``time.sleep``, blocking
    socket/subprocess/urllib entry points, ``input``) inside an
    ``async def``.
``task-orphan``      (pass 3a)
    An ``asyncio.create_task`` / ``ensure_future`` result that is
    discarded, or never awaited / cancelled / given a done-callback.
    Attribute-stored tasks must attach a done-callback at the creation
    site: awaiting at shutdown observes a mid-run crash only after every
    caller has hung on its pending futures.
``await-no-timeout`` (pass 3b)
    A direct ``await`` of an unbounded network receive/connect
    (``.recv()``, ``.readexactly()``, ``asyncio.open_connection``)
    outside ``asyncio.wait_for``.  Sites a watchdog or EOF contract
    covers carry a suppression naming that contract.
``stage-name``       (pass 4a)
    A string literal passed to an ``rpc_stage`` hook that is not in the
    canonical lifecycle vocabulary (:data:`repro.obs.critical.STAGE_ORDER`)
    the critical-path analyzer attributes over.
``stage-parity``     (pass 4b, cross-file)
    A stage the ``repro.net`` backend emits that no sim-path file in the
    same lint run emits — the two backends must speak one stage
    vocabulary for ``fig_real`` artifacts to be comparable.
``proto-transition`` (pass 5)
    An activation-state mutation outside the declarative protocol table:
    a ``client_transition(...)`` call whose literal (state, event) pair
    is illegal per :data:`repro.core.protocol.CLIENT_TRANSITIONS`, or a
    direct ``<x>.state = ClientState.S`` store that bypasses the table
    (initializing IDLE in ``__init__``/``reset*`` is the one legal form).

Three further rule IDs in :data:`FLOW_RULES` — ``nondet-transitive``,
``resource-leak``, and ``resource-typestate`` — belong to the
interprocedural stage, which runs once over the whole batch rather than
per file; see :mod:`.callgraph`, :mod:`.summaries`, and
:mod:`.typestate`.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import Optional

from . import cfg as C
from .determinism import pass_determinism
from .pragmas import Finding

__all__ = ["FLOW_RULES", "ModuleContext", "run_passes"]

FLOW_RULES = {
    "yield-race": "read-modify-write of shared state spans an await/yield "
                  "interleaving point (asyncio lost-update shape)",
    "async-blocking": "blocking synchronous call inside `async def` stalls "
                      "the event loop",
    "task-orphan": "create_task/ensure_future result never awaited, "
                   "cancelled, or given a done-callback",
    "await-no-timeout": "unbounded await on a network receive/connect "
                        "outside asyncio.wait_for",
    "stage-name": "rpc_stage literal outside the canonical STAGE_ORDER "
                  "vocabulary (repro.obs.critical)",
    "stage-parity": "repro.net stage vocabulary diverges from the sim path",
    "proto-transition": "activation-state mutation not in the declarative "
                        "CLIENT_TRANSITIONS table (repro.core.protocol)",
    # Interprocedural passes (callgraph + summaries + typestate).
    "nondet-transitive": "call into a function that transitively reaches a "
                         "raw RNG/wall-clock leaf (callgraph summaries)",
    "resource-leak": "acquired resource still held when the function raises "
                     "or returns (typestate over the exception-mode CFG)",
    "resource-typestate": "double-release or use-after-close of a tracked "
                          "resource (declared lifecycle protocols)",
}

#: Dotted call targets that block the event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.create_connection", "socket.getaddrinfo", "socket.gethostbyname",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid", "os.wait",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.patch",
    "requests.delete", "requests.head", "requests.request",
    "input", "select.select",
})

#: Awaitable method names that block until the peer sends bytes (or a
#: connection is established) with no inherent bound.
UNBOUNDED_NET_AWAITS = frozenset({"recv", "readexactly", "open_connection"})

TASK_FACTORIES = frozenset({"create_task", "ensure_future"})


@dataclass
class ModuleContext:
    """Everything the passes need from one parsed file."""

    path: str
    tree: ast.Module
    aliases: dict = field(default_factory=dict)
    globals_: frozenset = field(default_factory=frozenset)
    #: (def node, enclosing class or None) for every function in the file.
    functions: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    #: stage literal -> first (line, col) site in this file (pass 4).
    stage_sites: dict = field(default_factory=dict)

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        ))


def make_context(source_tree: ast.Module, path: str) -> ModuleContext:
    return ModuleContext(
        path=path,
        tree=source_tree,
        aliases=C.collect_aliases(source_tree),
        globals_=C.module_globals(source_tree),
        functions=_functions(source_tree),
    )


def _functions(tree: ast.Module):
    """Every function in the module, with its enclosing class (or None)."""
    out = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, cls))
                walk(child, None)  # nested defs lose the method context
            else:
                walk(child, cls)

    walk(tree, None)
    return out


# ---------------------------------------------------------------------------
# Pass 1: yield-point races (the dataflow client)
# ---------------------------------------------------------------------------

# Lattice values are triples of insertion-ordered dicts keyed by name
# (shared name or local), each mapping to a frozenset of source locs:
#   fresh — reads of a shared name since the last interleaving point
#   stale — reads that some await/yield has crossed (still live)
#   taint — (shared name, read loc) pairs a local's value derives from
_EMPTY_STATE = ({}, {}, {})


def _thaw(d):
    return {key: set(values) for key, values in d.items()}


def _freeze(d):
    return {key: frozenset(values) for key, values in d.items() if values}


def _race_transfer(block: C.Block, state, interleave_kinds, sink=None):
    fresh, stale, taint = _thaw(state[0]), _thaw(state[1]), _thaw(state[2])

    def resolve(deps):
        """Dependence atoms -> {shared name: read locs} via local taint."""
        out = {}
        for dep in deps:
            if dep[0] == "shared":
                out.setdefault(dep[1], set()).add(dep[2])
            else:
                for name, loc in taint.get(dep[1], frozenset()):
                    out.setdefault(name, set()).add(loc)
        return out

    for op in block.ops:
        if op.kind == C.READ:
            fresh.setdefault(op.name, set()).add(op.loc)
        elif op.kind in interleave_kinds:
            for name, locs in fresh.items():
                stale.setdefault(name, set()).update(locs)
            fresh = {}
        elif op.kind == C.ASSIGN:
            taint[op.name] = {
                (name, loc)
                for name, locs in resolve(op.deps).items()
                for loc in locs
            }
        elif op.kind == C.WRITE:
            if sink is not None:
                stale_locs = stale.get(op.name, set())
                bad = resolve(op.deps).get(op.name, set()) & stale_locs
                if op.mutator and stale_locs:
                    bad = bad | stale_locs
                if bad:
                    sink(op, min(bad))
            fresh.pop(op.name, None)
            stale.pop(op.name, None)
    return (_freeze(fresh), _freeze(stale), _freeze(taint))


def _race_join(states):
    fresh, stale, taint = {}, {}, {}
    for state in states:
        for merged, incoming in ((fresh, state[0]), (stale, state[1]),
                                 (taint, state[2])):
            for key, values in incoming.items():
                merged.setdefault(key, set()).update(values)
    return (_freeze(fresh), _freeze(stale), _freeze(taint))


def pass_yield_race(ctx: ModuleContext) -> None:
    interleave = {C.AWAIT}
    for func, cls in ctx.functions:
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        args = func.args.args
        has_self = bool(args) and args[0].arg == "self"
        locals_ = C.function_locals(func)

        def resolver(node, _has_self=has_self, _locals=locals_):
            if isinstance(node, ast.Name):
                if node.id in ctx.globals_ and node.id not in _locals:
                    return node.id
                return None
            if isinstance(node, ast.Attribute) and _has_self:
                parts = []
                cur = node
                while isinstance(cur, ast.Attribute):
                    parts.append(cur.attr)
                    cur = cur.value
                if isinstance(cur, ast.Name) and cur.id == "self":
                    return ".".join(["self"] + list(reversed(parts)))
            return None

        graph = C.build_cfg(func, ctx.aliases, resolver)
        entry_states = C.dataflow(
            graph,
            lambda block, state: _race_transfer(block, state, interleave),
            _race_join,
            _EMPTY_STATE,
        )
        reported = set()

        def sink(op, read_loc, _reported=reported):
            key = (op.name, op.loc)
            if key in _reported:
                return
            _reported.add(key)
            ctx.report(
                op.node, "yield-race",
                f"`{op.name}` is read at line {read_loc[0]} and written "
                "here with an await in between; another task can "
                "interleave and this write loses its update — re-read "
                "after the await, or mutate before it",
            )

        for block in graph.blocks:
            if block.bid in entry_states:
                _race_transfer(block, entry_states[block.bid], interleave,
                               sink=sink)


# ---------------------------------------------------------------------------
# Pass 2: blocking calls in async functions
# ---------------------------------------------------------------------------

def pass_async_blocking(ctx: ModuleContext) -> None:
    for func, _cls in ctx.functions:
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        todo = list(func.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # nested scopes judged on their own
            if isinstance(node, ast.Call):
                dotted = C.dotted_name(node.func, ctx.aliases)
                if dotted in BLOCKING_CALLS:
                    ctx.report(
                        node, "async-blocking",
                        f"`{dotted}(...)` blocks the event loop inside "
                        f"`async def {func.name}`; use the asyncio "
                        "equivalent or run_in_executor",
                    )
            todo.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Pass 3: orphan tasks and unbounded network awaits
# ---------------------------------------------------------------------------

def _is_task_factory(call: ast.AST, aliases: dict) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in TASK_FACTORIES
    if isinstance(func, ast.Name):
        dotted = C.dotted_name(func, aliases) or func.id
        return dotted.split(".")[-1] in TASK_FACTORIES
    return False


def _name_uses(func: ast.AST, name: str):
    """(node, parent) pairs for every Load of ``name`` in ``func``."""
    parents = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name and isinstance(
            node.ctx, ast.Load
        ):
            yield node, parents


def _local_task_owned(func: ast.AST, name: str, created: ast.AST) -> bool:
    for node, parents in _name_uses(func, name):
        cur, parent = node, parents.get(node)
        # Climb one hop at a time looking for an owning construct.
        while parent is not None:
            if isinstance(parent, ast.Await):
                return True
            if isinstance(parent, ast.Attribute) and parent.value is cur:
                if parent.attr in ("cancel", "add_done_callback", "result",
                                   "exception"):
                    return True
            if isinstance(parent, ast.Call) and cur in parent.args:
                return True  # handed to gather/wait/a collection/...
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(parent, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                return True  # stored in a structure: assume owned
            if isinstance(parent, ast.Assign) and parent.value is created:
                break  # the creating assignment itself is not a use
            if isinstance(parent, (ast.stmt,)):
                break
            cur, parent = parent, parents.get(parent)
    return False


def _attr_task_owned(func: ast.AST, attr: str) -> bool:
    """Is ``self.<attr>.add_done_callback(...)`` called in this function?"""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_done_callback"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == attr
        ):
            return True
    return False


def pass_task_audit(ctx: ModuleContext) -> None:
    for func, _cls in ctx.functions:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Expr) and _is_task_factory(
                stmt.value, ctx.aliases
            ):
                ctx.report(
                    stmt, "task-orphan",
                    "task result is discarded: a crash in it is never "
                    "observed (and the task may be garbage-collected "
                    "mid-flight); keep a reference and await, cancel, or "
                    "attach a done-callback",
                )
            elif isinstance(stmt, ast.Assign) and _is_task_factory(
                stmt.value, ctx.aliases
            ):
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if not _local_task_owned(func, target.id, stmt.value):
                        ctx.report(
                            stmt, "task-orphan",
                            f"task `{target.id}` is never awaited, "
                            "cancelled, or given a done-callback; its "
                            "exception is silently lost",
                        )
                elif isinstance(target, ast.Attribute):
                    if not _attr_task_owned(func, target.attr):
                        ctx.report(
                            stmt, "task-orphan",
                            f"background task `{_attr_repr(target)}` has "
                            "no done-callback at the creation site; a "
                            "mid-run crash is only observed at shutdown, "
                            "after every pending caller has hung — attach "
                            "one that surfaces the exception",
                        )
        if isinstance(func, ast.AsyncFunctionDef):
            _audit_unbounded_awaits(ctx, func)


def _attr_repr(node: ast.Attribute) -> str:
    base = node.value
    if isinstance(base, ast.Name):
        return f"{base.id}.{node.attr}"
    return node.attr


def _audit_unbounded_awaits(ctx: ModuleContext, func: ast.AST) -> None:
    for node in ast.walk(func):
        if not isinstance(node, ast.Await) or not isinstance(
            node.value, ast.Call
        ):
            continue
        call = node.value
        target: Optional[str] = None
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in UNBOUNDED_NET_AWAITS:
                target = call.func.attr
        elif isinstance(call.func, ast.Name):
            dotted = C.dotted_name(call.func, ctx.aliases) or call.func.id
            if dotted.split(".")[-1] in UNBOUNDED_NET_AWAITS:
                target = dotted
        if target is not None:
            ctx.report(
                node, "await-no-timeout",
                f"`await ...{target}(...)` can block forever if the peer "
                "goes silent without closing; wrap in asyncio.wait_for or "
                "suppress citing the watchdog/EOF contract that bounds it",
            )


# ---------------------------------------------------------------------------
# Pass 4: obs stage-name parity
# ---------------------------------------------------------------------------

def _stage_literals(node: ast.AST) -> list[str]:
    """String literals an rpc_stage's stage argument can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _stage_literals(node.body) + _stage_literals(node.orelse)
    return []


def pass_stage_names(ctx: ModuleContext) -> None:
    from ...obs.critical import STAGE_VOCABULARY

    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "rpc_stage"
            and len(node.args) >= 2
        ):
            continue
        for literal in _stage_literals(node.args[1]):
            ctx.stage_sites.setdefault(
                literal, (node.lineno, node.col_offset + 1)
            )
            if literal not in STAGE_VOCABULARY:
                ctx.report(
                    node, "stage-name",
                    f"stage {literal!r} is not in STAGE_ORDER "
                    "(repro.obs.critical); the critical-path breakdown "
                    "will order it last and fig_real comparisons will "
                    "not line up — use a canonical stage name",
                )


def check_stage_parity(contexts: list[ModuleContext]) -> list[Finding]:
    """Cross-file half of pass 4: the net backend's emitted vocabulary
    must be a subset of the sim path's (same run, same artifact schema)."""
    net_sites: dict[str, tuple] = {}
    sim_vocab: set[str] = set()
    for ctx in contexts:
        parts = ctx.path.replace("\\", "/").split("/")
        if "net" in parts:
            for stage, site in ctx.stage_sites.items():
                net_sites.setdefault(stage, (ctx.path, site))
        else:
            sim_vocab.update(ctx.stage_sites)
    if not net_sites or not sim_vocab:
        return []  # nothing to compare in this run
    out = []
    for stage in sorted(set(net_sites) - sim_vocab):
        path, (line, col) = net_sites[stage]
        out.append(Finding(
            path=path, line=line, col=col, rule="stage-parity",
            message=(
                f"the net backend emits stage {stage!r} but no sim-path "
                "file in this run does; the two backends must share one "
                "stage vocabulary for cross-backend artifacts to compare"
            ),
        ))
    return out


# ---------------------------------------------------------------------------
# Pass 5: protocol conformance
# ---------------------------------------------------------------------------

def _enum_member(node: ast.AST, enum_name: str) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == enum_name
    ):
        return node.attr
    return None


def pass_protocol(ctx: ModuleContext) -> None:
    from ...core.protocol import ClientState, ProtocolEvent, is_legal_transition

    in_protocol_module = ctx.path.replace("\\", "/").endswith(
        "repro/core/protocol.py"
    )
    if in_protocol_module:
        return  # the table itself is the definition, not a use

    def check_call(node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        state_name = _enum_member(node.args[0], "ClientState")
        event_name = _enum_member(node.args[1], "ProtocolEvent")
        if state_name is None or event_name is None:
            return  # dynamic arguments: the runtime ProtocolError guards
        try:
            state = ClientState[state_name]
            event = ProtocolEvent[event_name]
        except KeyError:
            ctx.report(
                node, "proto-transition",
                f"unknown protocol member in client_transition("
                f"ClientState.{state_name}, ProtocolEvent.{event_name})",
            )
            return
        if not is_legal_transition(state, event):
            ctx.report(
                node, "proto-transition",
                f"({state_name}, {event_name}) is not in "
                "CLIENT_TRANSITIONS: this call raises ProtocolError on "
                "every execution",
            )

    func_stack: list[str] = []

    def walk(node) -> None:
        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_func:
            func_stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            walk(child)
        if is_func:
            func_stack.pop()
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name == "client_transition":
                check_call(node)
        elif isinstance(node, ast.Assign):
            member = _enum_member(node.value, "ClientState")
            if member is None:
                return
            for target in node.targets:
                is_state_store = (
                    isinstance(target, ast.Attribute) and target.attr == "state"
                ) or (isinstance(target, ast.Name) and target.id == "state")
                if not is_state_store:
                    continue
                enclosing = func_stack[-1] if func_stack else None
                if member == "IDLE" and enclosing is not None and (
                    enclosing == "__init__" or enclosing.startswith("reset")
                ):
                    continue  # initializing the machine is not a transition
                ctx.report(
                    node, "proto-transition",
                    f"direct store of ClientState.{member} bypasses "
                    "client_transition(); every activation-state change "
                    "must go through the declarative table (or carry a "
                    "justified suppression if it deliberately breaks it)",
                )

    walk(ctx.tree)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: (timing key, pass) — the per-file passes in catalog order.
PASS_TABLE = (
    ("determinism", pass_determinism),
    ("yield-race", pass_yield_race),
    ("async-blocking", pass_async_blocking),
    ("task-orphan", pass_task_audit),
    ("stage-name", pass_stage_names),
    ("proto-transition", pass_protocol),
)


def run_passes(
    ctx: ModuleContext, timings: Optional[dict] = None
) -> ModuleContext:
    """All per-file passes, in catalog order.  ``timings`` (pass name ->
    seconds) accumulates across files for the JSON report's budget
    breakdown."""
    for name, pass_fn in PASS_TABLE:
        if timings is None:
            pass_fn(ctx)
            continue
        started = time.perf_counter()  # flowlint: ignore[wall-clock] — lint self-profiling, not sim state
        pass_fn(ctx)
        timings[name] = timings.get(name, 0.0) + (
            time.perf_counter() - started  # flowlint: ignore[wall-clock] — lint self-profiling
        )
    return ctx
