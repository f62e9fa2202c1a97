"""Interprocedural layer, part 2: bottom-up function summaries.

Each function in the :class:`~.callgraph.CallGraph` gets a small
:class:`FunctionSummary` computed callees-first over the SCC
condensation (one fixpoint loop per recursive component):

``nondet_chain``
    Non-empty when the function transitively reaches a nondeterminism
    leaf — a raw :mod:`random`-module call or a wall-clock read from
    :data:`~.determinism.WALL_CLOCK_CALLS` — through sync or async
    calls.  The chain is the witness call path, leaf last, so the
    ``nondet-transitive`` report can say *why* a caller is tainted.
    Functions living in ``sim/rng.py`` (the sanctioned RNG seam)
    summarize as clean, and a direct leaf call whose line
    carries an ``ignore[rng-call]``/``ignore[wall-clock]`` suppression
    does not taint its function — a justified leaf stays justified at
    every caller.
``blocking_chain``
    Non-empty when a *sync* function transitively reaches a
    loop-stalling call (:data:`~.passes.BLOCKING_CALLS`).  Propagation
    stops at ``async def`` boundaries: an async callee that blocks is
    its own finding at its own site, so only the sync fan-in is carried
    upward (this is what upgrades the ``async-blocking`` pass from
    direct calls to transitive ones).
``may_raise`` / ``raises``
    Whether an exception can escape a call to this function, plus a
    bounded set of exception type names seen on ``raise`` statements.
    Calls lexically protected by a catch-all handler (``except:``,
    ``except Exception``/``BaseException``) do not contribute.  External
    calls count as raising unless they are known-total builtins — the
    typestate engine uses exactly this predicate to decide which
    statements get exception edges, so "unknown" erring on the raising
    side keeps leak detection sound.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .callgraph import CallGraph, FunctionInfo, SiteTarget
from .cfg import dotted_name
from .determinism import WALL_CLOCK_CALLS, in_rng_file, is_rng_call
from .passes import BLOCKING_CALLS
from .pragmas import Finding, is_suppressed

__all__ = [
    "FunctionSummary",
    "compute_summaries",
    "report_transitive",
    "NO_RAISE_BUILTINS",
    "external_may_raise",
]

#: External callables assumed never to raise under lint-relevant use
#: (totality, not typos: ``len`` on a list, ``append`` on a list, ...).
#: Everything external and *not* here is assumed to possibly raise.
NO_RAISE_BUILTINS = frozenset({
    "len", "min", "max", "sum", "abs", "sorted", "reversed", "enumerate",
    "zip", "range", "id", "repr", "str", "bytes", "bool", "float",
    "isinstance", "issubclass", "hasattr", "getattr", "callable", "print",
    "format", "hash", "iter", "list", "tuple", "dict", "set", "frozenset",
    "type", "vars", "round", "divmod",
    # container/method leaves (receiver-unknown spellings included)
    "?.append", "?.extend", "?.add", "?.discard", "?.clear", "?.update",
    "?.get", "?.setdefault", "?.items", "?.keys", "?.values", "?.copy",
    "?.sort", "?.reverse", "?.count", "?.join", "?.split", "?.strip",
    "?.startswith", "?.endswith", "?.replace", "?.encode", "?.decode",
    "?.lower", "?.upper", "?.format",
})


def external_may_raise(dotted: str, call: Optional[ast.Call] = None) -> bool:
    """May an unresolved external call raise?  The ``?.method`` entries
    match any receiver spelling (``self._ids.discard`` ends the same
    way), so normalize to the attribute suffix before the lookup."""
    if dotted in NO_RAISE_BUILTINS:
        return False
    if "." in dotted:
        attr = dotted.rpartition(".")[2]
        if attr == "pop":
            # `d.pop(key, default)` is total; bare/one-arg pop can raise.
            return call is None or len(call.args) < 2
        return ("?." + attr) not in NO_RAISE_BUILTINS
    return True


#: How many exception type names a summary keeps before collapsing.
_RAISES_CAP = 8

#: How many links a witness chain keeps (leaf excluded).
_CHAIN_CAP = 4


@dataclass
class FunctionSummary:
    """What a call into this function can transitively do."""

    qname: str
    #: Witness call path to a nondeterminism leaf, leaf (dotted external
    #: name) last; empty when deterministic.
    nondet_chain: tuple = ()
    #: Witness call path to a blocking leaf; empty when non-blocking.
    blocking_chain: tuple = ()
    may_raise: bool = False
    #: Exception type simple names from raise statements (bounded).
    raises: frozenset = frozenset()


def _chain(head: str, tail: tuple) -> tuple:
    if len(tail) >= _CHAIN_CAP:
        return (head,) + tail[: _CHAIN_CAP - 1] + (tail[-1],)
    return (head,) + tail


def _catch_all_protected(func: ast.AST) -> set:
    """ids of Call/Raise/Assert nodes whose exception cannot escape the
    function because a lexically enclosing try has a catch-all handler."""
    protected: set[int] = set()

    def handler_catches_all(handler: ast.excepthandler) -> bool:
        if handler.type is None:
            return True
        names = []
        if isinstance(handler.type, ast.Tuple):
            names = [dotted_name(e, {}) for e in handler.type.elts]
        else:
            names = [dotted_name(handler.type, {})]
        return any(
            name and name.rsplit(".", 1)[-1] in ("Exception", "BaseException")
            for name in names
        )

    def walk(node: ast.AST, covered: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Try):
                body_covered = covered or any(
                    handler_catches_all(h) for h in child.handlers
                )
                for stmt in child.body + child.orelse:
                    walk_mark(stmt, body_covered)
                for handler in child.handlers:
                    for stmt in handler.body:
                        walk_mark(stmt, covered)
                for stmt in child.finalbody:
                    walk_mark(stmt, covered)
                continue
            walk_mark(child, covered)

    def walk_mark(node: ast.AST, covered: bool) -> None:
        if covered and isinstance(node, (ast.Call, ast.Raise, ast.Assert)):
            protected.add(id(node))
        walk(node, covered)

    walk(func, False)
    return protected


def _direct_facts(finfo: FunctionInfo, suppressions: dict) -> FunctionSummary:
    """Leaf-level facts of one function (no callee summaries applied)."""
    summary = FunctionSummary(qname=finfo.qname)
    protected = _catch_all_protected(finfo.node)
    raises: set[str] = set()
    for node in ast.walk(finfo.node):
        if isinstance(node, ast.Raise) and id(node) not in protected:
            summary.may_raise = True
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc, {}) if exc is not None else None
            raises.add(name.rsplit(".", 1)[-1] if name else "Exception")
        elif isinstance(node, ast.Assert) and id(node) not in protected:
            summary.may_raise = True
            raises.add("AssertionError")
    for site in finfo.sites:
        dotted = site.external
        if dotted is None:
            continue
        line = getattr(site.call, "lineno", 0)
        if is_rng_call(dotted) and not summary.nondet_chain:
            if not is_suppressed(suppressions, line, "rng-call"):
                summary.nondet_chain = (dotted,)
        if dotted in WALL_CLOCK_CALLS and not summary.nondet_chain:
            if not is_suppressed(suppressions, line, "wall-clock"):
                summary.nondet_chain = (dotted,)
        if dotted in BLOCKING_CALLS and not summary.blocking_chain:
            if not is_suppressed(suppressions, line, "async-blocking"):
                summary.blocking_chain = (dotted,)
        if id(site.call) not in protected and external_may_raise(
                dotted, site.call):
            summary.may_raise = True
    if in_rng_file(finfo.path):
        # The sanctioned RNG seam: callers draw from registry substreams,
        # which is the deterministic discipline, not a violation of it.
        summary.nondet_chain = ()
    summary.raises = frozenset(raises)
    return summary


def compute_summaries(
    graph: CallGraph,
    suppressions_by_path: Optional[dict] = None,
) -> dict:
    """Summaries for every function, bottom-up over the SCC DAG.

    ``suppressions_by_path`` maps file path -> pragma suppression map
    (line -> None | rule set); suppressed leaf sites do not taint.
    """
    suppressions_by_path = suppressions_by_path or {}
    summaries: dict[str, FunctionSummary] = {}
    protected_cache: dict[str, set] = {}
    for component in graph.sccs():
        for qname in component:
            finfo = graph.functions[qname]
            summaries[qname] = _direct_facts(
                finfo, suppressions_by_path.get(finfo.path, {})
            )
            protected_cache[qname] = _catch_all_protected(finfo.node)
        # Propagate through calls; loop to fixpoint within the SCC
        # (cross-SCC callees are already final, so non-recursive
        # components settle in one round).
        for _ in range(len(component) + 1):
            changed = False
            for qname in component:
                summary = summaries[qname]
                finfo = graph.functions[qname]
                for site in finfo.sites:
                    if site.target is None:
                        continue
                    callee = summaries.get(site.target)
                    if callee is None:
                        continue
                    if callee.nondet_chain and not summary.nondet_chain:
                        if not in_rng_file(finfo.path):
                            summary.nondet_chain = _chain(
                                site.target, callee.nondet_chain
                            )
                            changed = True
                    if (callee.blocking_chain and not summary.blocking_chain
                            and not graph.functions[site.target].is_async):
                        # Sync fan-in only: an async callee that blocks
                        # is reported at its own definition.
                        summary.blocking_chain = _chain(
                            site.target, callee.blocking_chain
                        )
                        changed = True
                    if callee.may_raise and not summary.may_raise:
                        if id(site.call) not in protected_cache[qname]:
                            summary.may_raise = True
                            changed = True
                    if callee.raises - summary.raises and summary.may_raise:
                        merged = summary.raises | callee.raises
                        if len(merged) > _RAISES_CAP:
                            merged = frozenset({"Exception"})
                        if merged != summary.raises:
                            summary.raises = merged
                            changed = True
            if not changed:
                break
    return summaries


# ---------------------------------------------------------------------------
# Reporting: the summaries turned into findings
# ---------------------------------------------------------------------------

def _under_src(path: str) -> bool:
    return "src" in path.replace("\\", "/").split("/")


def _render_chain(chain: tuple) -> str:
    pretty = [link.rsplit(".", 2)[-1] if link.count(".") > 1 else link
              for link in chain[:-1]]
    return " -> ".join(pretty + [chain[-1]])


def report_transitive(graph: CallGraph, summaries: dict) -> list:
    """``nondet-transitive`` and transitive ``async-blocking`` findings.

    Only call sites in ``src/`` are reported (mirroring the determinism
    pass's scoping: tests and benchmarks may read the wall clock), and
    only calls to *internal* tainted functions — the direct leaf inside
    the callee is the determinism pass's finding, at its own site.
    """
    findings: list[Finding] = []
    for finfo in graph.functions.values():
        if not _under_src(finfo.path) or in_rng_file(finfo.path):
            continue
        for site in finfo.sites:
            if site.target is None:
                continue
            callee = summaries.get(site.target)
            if callee is None:
                continue
            line = getattr(site.call, "lineno", 1)
            col = getattr(site.call, "col_offset", 0) + 1
            if callee.nondet_chain:
                chain = _chain(site.target, callee.nondet_chain)
                findings.append(Finding(
                    path=finfo.path, line=line, col=col,
                    rule="nondet-transitive",
                    message=(
                        f"`{site.target.rsplit('.', 1)[-1]}(...)` "
                        f"transitively reaches `{chain[-1]}` "
                        f"({_render_chain(chain)}); same-seed runs will "
                        "diverge — route through the registry substreams "
                        "or the sim clock"
                    ),
                ))
            if (callee.blocking_chain
                    and finfo.is_async
                    and not graph.functions[site.target].is_async):
                chain = _chain(site.target, callee.blocking_chain)
                findings.append(Finding(
                    path=finfo.path, line=line, col=col,
                    rule="async-blocking",
                    message=(
                        f"`{site.target.rsplit('.', 1)[-1]}(...)` "
                        f"transitively blocks the event loop "
                        f"({_render_chain(chain)}) inside "
                        f"`async def {finfo.node.name}`; use the asyncio "
                        "equivalent or run_in_executor"
                    ),
                ))
    return findings
