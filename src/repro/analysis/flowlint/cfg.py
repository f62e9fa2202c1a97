"""The control-flow / dataflow substrate of flowlint.

One function body at a time, this module lowers Python AST into a small
intraprocedural CFG whose blocks hold a linear stream of abstract *ops*:

``READ name``
    A load of a piece of shared state (``self.x`` attribute chains, or a
    module global), recorded with its source location.
``WRITE name``
    A store to shared state.  Carries the *dependence set* of the stored
    value (which shared reads, directly or through tainted locals, the
    value derives from) and a ``mutator`` bit for in-place container
    mutation (``d[k] = v``, ``d.pop(k)``, ``del d[k]``, ...), which is
    the "act" half of a check-then-act sequence.
``AWAIT``
    An interleaving point: other asyncio tasks may run here and mutate
    any shared state.
``ASSIGN local``
    A local binding, carrying the dependence set of its value so later
    writes can be traced back to the shared reads they derive from (the
    reaching-definitions half of the lattice).
``CALL dotted``
    A call site with its best-effort resolved dotted target (imports and
    aliases honoured) — what the blocking-call and task-audit passes
    match on.

Ops are emitted in approximate evaluation order (in-order traversal of
the expression tree), so a read that is syntactically left of an
``await`` in the same statement lands before the AWAIT op and a read to
its right lands after — which is exactly the distinction the race
analysis needs.

On top of the CFG, :func:`dataflow` runs a standard forward worklist
fixpoint (any-path, union join) for a caller-supplied transfer function.
The lattice values are per-block-entry states; termination follows from
the finite universes (source locations, local names) and the monotone
transfer functions the passes use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "Op",
    "Block",
    "Cfg",
    "build_cfg",
    "dataflow",
    "collect_aliases",
    "dotted_name",
    "module_globals",
    "function_locals",
    "MUTATING_METHODS",
]

#: Container methods that mutate their receiver in place.  A call to one
#: of these on shared state is modelled as an atomic READ+WRITE pair.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "discard",
    "add", "clear", "update", "pop", "popitem", "popleft", "setdefault",
    "sort", "reverse",
})

# Op kinds.
READ = "read"
WRITE = "write"
AWAIT = "await"
ASSIGN = "assign"
CALL = "call"
RETURN = "return"


@dataclass(frozen=True)
class Op:
    """One abstract step inside a basic block."""

    kind: str
    #: Canonical shared name (READ/WRITE), local name (ASSIGN), or
    #: dotted call target (CALL); None for AWAIT.
    name: Optional[str]
    #: Source location of the step, for findings and read identity.
    loc: tuple
    #: Dependence atoms of the value: ("shared", name, loc) for a direct
    #: shared read, ("local", name) for a local whose taint applies.
    deps: tuple = ()
    #: WRITE only: in-place container mutation (check-then-act "act").
    mutator: bool = False
    #: The AST node the op came from (message rendering).
    node: Optional[ast.AST] = None
    #: Exception-mode only: this CALL op sits on a handler edge and
    #: models just the ownership transfer of a raising statement (the
    #: callee received its arguments even if it then raised) — the
    #: typestate engine applies escapes and nothing else.
    exc_shim: bool = False
    #: ASSIGN only: the value expression being bound, when the binding
    #: comes from a statement-level assignment (the typestate engine
    #: matches acquire calls through this).
    value: Optional[ast.AST] = None


class Block:
    """A basic block: a linear op stream plus successor edges."""

    __slots__ = ("bid", "ops", "succs")

    def __init__(self, bid: int):
        self.bid = bid
        self.ops: list[Op] = []
        self.succs: list[int] = []

    def edge(self, other: "Block") -> None:
        if other.bid not in self.succs:
            self.succs.append(other.bid)


@dataclass
class Cfg:
    """The CFG of one function body."""

    func: ast.AST
    blocks: list[Block] = field(default_factory=list)
    entry: int = 0
    #: Block collecting every path on which an exception escapes the
    #: function (only present when the CFG was built with a ``raises``
    #: predicate — the typestate engine's exception-exit).
    exc_exit: Optional[int] = None

    def preds(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {b.bid: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                out[succ].append(block.bid)
        return out


# ---------------------------------------------------------------------------
# Name utilities (shared with the passes)
# ---------------------------------------------------------------------------

def collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Local alias -> canonical dotted prefix, from every import in the
    file (computed once per parse and shared by every pass)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a canonical dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def module_globals(tree: ast.Module) -> frozenset[str]:
    """Names bound by assignment at module top level (shared state for
    every function in the file)."""
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(
                    elt.id for elt in target.elts if isinstance(elt, ast.Name)
                )
    return frozenset(names)


def function_locals(func: ast.AST) -> frozenset[str]:
    """Names the function binds locally (assignments, loop/with/except
    targets, comprehension variables, parameters) *without* a ``global``
    declaration — these shadow any same-named module global."""
    bound: set[str] = set()
    declared_global: set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    return frozenset(bound - declared_global)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

#: Resolves an AST node to a canonical *shared* name, or None when the
#: node does not denote shared state.  Supplied per function by the
#: race pass (self-attribute chains, unshadowed module globals).
SharedResolver = Callable[[ast.AST], Optional[str]]


def _loc(node: ast.AST) -> tuple:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


class _Builder:
    def __init__(
        self,
        aliases: dict[str, str],
        resolver: SharedResolver,
        raises: Optional[Callable[[ast.Call], bool]] = None,
    ):
        self.aliases = aliases
        self.resolver = resolver
        self.blocks: list[Block] = []
        self.current = self._new_block()
        #: (continue_target, break_target) stack.
        self._loops: list[tuple[Block, Block]] = []
        #: Entry blocks of except handlers currently in scope.
        self._handlers: list[list[Block]] = []
        #: Exception-tracking mode: ``raises(call)`` decides whether a
        #: call site can raise; statements containing such calls get an
        #: edge from the *pre-statement* block to the innermost handler
        #: scope (or the dedicated exception-exit block), so any-path
        #: analyses see the state a mid-statement raise leaves behind.
        self.raises = raises
        self.exc_block: Optional[Block] = None
        if raises is not None:
            self.exc_block = self._new_block()

    # -- block plumbing ----------------------------------------------------

    def _new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _emit(self, op: Op) -> None:
        self.current.ops.append(op)

    # -- expressions -------------------------------------------------------

    def _shared_read(self, node: ast.AST) -> Optional[frozenset]:
        name = self.resolver(node)
        if name is None:
            return None
        loc = _loc(node)
        self._emit(Op(READ, name, loc, node=node))
        return frozenset({("shared", name, loc)})

    def expr(self, node: Optional[ast.AST]) -> frozenset:
        """Emit ops for evaluating ``node``; returns its dependence set."""
        if node is None:
            return frozenset()
        deps: frozenset = frozenset()
        if isinstance(node, ast.Await):
            deps = self.expr(node.value)
            # The awaited value's deps ride on the op so the typestate
            # engine can see `await task` consume a tracked resource.
            self._emit(Op(AWAIT, None, _loc(node), deps=tuple(sorted(deps)),
                          node=node))
            return deps
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                shared = self._shared_read(node)
                if shared is not None:
                    return shared
                return frozenset({("local", node.id)})
            return frozenset()
        if isinstance(node, ast.Attribute):
            shared = self._shared_read(node)
            if shared is not None:
                return shared
            return self.expr(node.value)
        if isinstance(node, ast.Subscript):
            return self.expr(node.value) | self.expr(node.slice)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Lambda):
            return frozenset()  # deferred body: no ops now
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                deps |= self.expr(gen.iter)
                for cond in gen.ifs:
                    deps |= self.expr(cond)
            for part in ("key", "value", "elt"):
                sub = getattr(node, part, None)
                if sub is not None:
                    deps |= self.expr(sub)
            return deps
        if isinstance(node, ast.NamedExpr):
            deps = self.expr(node.value)
            self._emit(Op(ASSIGN, node.target.id, _loc(node),
                          deps=tuple(sorted(deps)), node=node,
                          value=node.value))
            return deps
        # Generic in-order fallback: BinOp, BoolOp, Compare, IfExp,
        # containers, f-strings, Starred, slices, ...
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.slice)) or isinstance(
                child, ast.keyword
            ):
                sub = child.value if isinstance(child, ast.keyword) else child
                deps |= self.expr(sub)
        return deps

    def _call(self, node: ast.Call) -> frozenset:
        deps: frozenset = frozenset()
        mutated: Optional[tuple] = None
        if isinstance(node.func, ast.Attribute):
            # Receiver evaluation (its read, if shared, is part of deps).
            deps |= self.expr(node.func.value)
            if node.func.attr in MUTATING_METHODS:
                base = self.resolver(node.func.value)
                if base is not None:
                    mutated = (base, _loc(node))
        elif isinstance(node.func, ast.Name):
            shared = self.resolver(node.func)
            if shared is not None:
                deps |= frozenset({("shared", shared, _loc(node.func))})
                self._emit(Op(READ, shared, _loc(node.func), node=node.func))
        else:
            deps |= self.expr(node.func)
        for arg in node.args:
            deps |= self.expr(arg)
        for kw in node.keywords:
            deps |= self.expr(kw.value)
        dotted = dotted_name(node.func, self.aliases)
        self._emit(Op(CALL, dotted, _loc(node), deps=tuple(sorted(deps)),
                      node=node))
        if mutated is not None:
            base, loc = mutated
            self._emit(Op(READ, base, loc, node=node))
            self._emit(Op(WRITE, base, loc, deps=tuple(sorted(deps)),
                          mutator=True, node=node))
        return deps

    # -- exception edges (typestate mode) ----------------------------------

    def _calls_in(self, node: ast.AST):
        todo = [node]
        while todo:
            sub = todo.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue  # deferred bodies do not run here
            if isinstance(sub, ast.Call):
                yield sub
            todo.extend(ast.iter_child_nodes(sub))

    def _stmt_can_raise(self, node: ast.stmt) -> bool:
        """Can evaluating this statement (compound statements: just the
        header expression) raise out of it?"""
        if isinstance(node, ast.Assert):
            return True
        if isinstance(node, (ast.Raise, ast.Try, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            return False  # Raise routes itself; the rest defer/nest
        if isinstance(node, (ast.If, ast.While)):
            headers: list[ast.AST] = [node.test]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            headers = [node.iter]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            headers = [item.context_expr for item in node.items]
        elif node.__class__.__name__ == "Match":
            headers = [node.subject]
        else:
            headers = [node]
        return any(
            self.raises(call) for header in headers
            for call in self._calls_in(header)
        )

    # -- assignment targets ------------------------------------------------

    def target(
        self, node: ast.AST, deps: frozenset,
        value: Optional[ast.AST] = None,
    ) -> None:
        if isinstance(node, ast.Name):
            self._emit(Op(ASSIGN, node.id, _loc(node),
                          deps=tuple(sorted(deps)), node=node, value=value))
            shared = self.resolver(node)
            if shared is not None:
                self._emit(Op(WRITE, shared, _loc(node),
                              deps=tuple(sorted(deps)), node=node))
            return
        if isinstance(node, ast.Attribute):
            shared = self.resolver(node)
            if shared is not None:
                self._emit(Op(WRITE, shared, _loc(node),
                              deps=tuple(sorted(deps)), node=node))
            else:
                self.expr(node.value)
                if self.raises is not None:
                    # Exception mode: a store through any attribute is an
                    # ownership transfer the typestate engine must see,
                    # even when the chain is not shared state.
                    self._emit(Op(WRITE, None, _loc(node),
                                  deps=tuple(sorted(deps)), node=node))
            return
        if isinstance(node, ast.Subscript):
            slice_deps = self.expr(node.slice)
            shared = self.resolver(node.value)
            if shared is not None:
                loc = _loc(node)
                self._emit(Op(READ, shared, loc, node=node))
                self._emit(Op(WRITE, shared, loc,
                              deps=tuple(sorted(deps | slice_deps)),
                              mutator=True, node=node))
            else:
                self.expr(node.value)
                if self.raises is not None:
                    self._emit(Op(WRITE, None, _loc(node),
                                  deps=tuple(sorted(deps)), node=node))
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self.target(elt, deps)
            return
        if isinstance(node, ast.Starred):
            self.target(node.value, deps)

    # -- statements --------------------------------------------------------

    def body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:  # noqa: C901 - one big dispatch
        if self.raises is not None and self._stmt_can_raise(node):
            # Seal the pre-statement state and give it an exception
            # edge: a raise mid-statement leaves *that* state behind
            # (acquire-on-success: `x = alloc()` raising binds nothing).
            # The edge runs through a shim block holding escape-only
            # copies of the statement's calls: a callee received its
            # arguments even if it raised, so ownership passed to it is
            # not "still held" on the unwind path.
            pre = self.current
            following = self._new_block()
            pre.edge(following)
            shim = self._new_block()
            pre.edge(shim)
            for call in self._calls_in(node):
                shim.ops.append(Op(CALL, None, _loc(call), node=call,
                                   exc_shim=True))
            self._to_handlers(shim)
            self.current = following
        if isinstance(node, ast.Expr):
            self.expr(node.value)
        elif isinstance(node, ast.Assign):
            deps = self.expr(node.value)
            for target in node.targets:
                self.target(target, deps, value=node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.target(node.target, self.expr(node.value),
                            value=node.value)
        elif isinstance(node, ast.AugAssign):
            # LOAD target, evaluate value, STORE target: the load is a
            # read-dependence of the store even without a temp local.
            target_deps: frozenset = frozenset()
            if isinstance(node.target, ast.Name):
                shared = self.resolver(node.target)
                if shared is not None:
                    loc = _loc(node.target)
                    self._emit(Op(READ, shared, loc, node=node.target))
                    target_deps = frozenset({("shared", shared, loc)})
                else:
                    target_deps = frozenset({("local", node.target.id)})
            elif isinstance(node.target, ast.Attribute):
                shared = self.resolver(node.target)
                if shared is not None:
                    loc = _loc(node.target)
                    self._emit(Op(READ, shared, loc, node=node.target))
                    target_deps = frozenset({("shared", shared, loc)})
                else:
                    target_deps = self.expr(node.target.value)
            elif isinstance(node.target, ast.Subscript):
                target_deps = self.expr(node.target.value) | self.expr(
                    node.target.slice
                )
            self.target(node.target, target_deps | self.expr(node.value))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self.expr(target.slice)
                    shared = self.resolver(target.value)
                    if shared is not None:
                        loc = _loc(target)
                        self._emit(Op(READ, shared, loc, node=target))
                        self._emit(Op(WRITE, shared, loc, mutator=True,
                                      node=target))
                elif isinstance(target, ast.Attribute):
                    shared = self.resolver(target)
                    if shared is not None:
                        self._emit(Op(WRITE, shared, _loc(target),
                                      node=target))
        elif isinstance(node, ast.Return):
            deps = self.expr(node.value)
            self._emit(Op(RETURN, None, _loc(node), deps=tuple(sorted(deps)),
                          node=node))
            self.current = self._new_block()  # unreachable continuation
        elif isinstance(node, ast.Raise):
            self.expr(node.exc)
            self._to_handlers(self.current)
            self.current = self._new_block()
        elif isinstance(node, ast.Assert):
            self.expr(node.test)
            self.expr(node.msg)
        elif isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, (ast.While,)):
            self._while(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Try):
            self._try(node)
        elif isinstance(node, ast.Break):
            if self._loops:
                self.current.edge(self._loops[-1][1])
            self.current = self._new_block()
        elif isinstance(node, ast.Continue):
            if self._loops:
                self.current.edge(self._loops[-1][0])
            self.current = self._new_block()
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested scopes get their own CFGs
        elif node.__class__.__name__ == "Match":  # py3.10+
            self._match(node)
        # Import/Global/Nonlocal/Pass: no ops.

    def _if(self, node: ast.If) -> None:
        self.expr(node.test)
        before = self.current
        then_entry = self._new_block()
        before.edge(then_entry)
        self.current = then_entry
        self.body(node.body)
        then_exit = self.current
        join = self._new_block()
        then_exit.edge(join)
        if node.orelse:
            else_entry = self._new_block()
            before.edge(else_entry)
            self.current = else_entry
            self.body(node.orelse)
            self.current.edge(join)
        else:
            before.edge(join)
        self.current = join

    def _while(self, node: ast.While) -> None:
        head = self._new_block()
        self.current.edge(head)
        self.current = head
        self.expr(node.test)
        body_entry = self._new_block()
        after = self._new_block()
        head.edge(body_entry)
        head.edge(after)
        self._loops.append((head, after))
        self.current = body_entry
        self.body(node.body)
        self.current.edge(head)
        self._loops.pop()
        self.current = after
        if node.orelse:
            self.body(node.orelse)

    def _for(self, node) -> None:
        iter_deps = self.expr(node.iter)
        head = self._new_block()
        self.current.edge(head)
        self.current = head
        if isinstance(node, ast.AsyncFor):
            self._emit(Op(AWAIT, None, _loc(node), node=node))
        self.target(node.target, iter_deps)
        body_entry = self._new_block()
        after = self._new_block()
        head.edge(body_entry)
        head.edge(after)
        self._loops.append((head, after))
        self.current = body_entry
        self.body(node.body)
        self.current.edge(head)
        self._loops.pop()
        self.current = after
        if node.orelse:
            self.body(node.orelse)

    def _with(self, node) -> None:
        is_async = isinstance(node, ast.AsyncWith)
        for item in node.items:
            deps = self.expr(item.context_expr)
            if is_async:
                self._emit(Op(AWAIT, None, _loc(node), node=node))
            if item.optional_vars is not None:
                self.target(item.optional_vars, deps, value=item.context_expr)
        self.body(node.body)
        if is_async:
            self._emit(Op(AWAIT, None, _loc(node), node=node))

    def _to_handlers(self, block: Block) -> None:
        if self.raises is not None:
            # Exception mode: the innermost scope that can actually
            # observe the exception — the nearest non-empty handler list
            # (a try/finally pushes its finally's exceptional copy) —
            # else the exception leaves the function.
            for handlers in reversed(self._handlers):
                if handlers:
                    for handler in handlers:
                        block.edge(handler)
                    return
            block.edge(self.exc_block)
            return
        if self._handlers:
            for handler in self._handlers[-1]:
                block.edge(handler)

    def _try(self, node: ast.Try) -> None:
        if self.raises is not None:
            self._try_exc(node)
            return
        handler_entries = [self._new_block() for _ in node.handlers]
        first_body_index = len(self.blocks)
        self._handlers.append(handler_entries)
        body_entry = self._new_block()
        self.current.edge(body_entry)
        self.current = body_entry
        self.body(node.body)
        body_exit = self.current
        self._handlers.pop()
        # Any block created while inside the try body may raise into any
        # handler — an edge per (body block, handler) keeps the any-path
        # analysis sound for reads that crossed an await mid-try.
        for block in self.blocks[first_body_index:]:
            for handler in handler_entries:
                block.edge(handler)
        join = self._new_block()
        if node.orelse:
            self.current = body_exit
            self.body(node.orelse)
            self.current.edge(join)
        else:
            body_exit.edge(join)
        for entry, handler in zip(handler_entries, node.handlers):
            self.current = entry
            if handler.name and handler.type is not None:
                self.expr(handler.type)
            self.body(handler.body)
            self.current.edge(join)
        self.current = join
        if node.finalbody:
            self.body(node.finalbody)

    def _try_exc(self, node: ast.Try) -> None:
        """Exception-mode lowering of ``try``.

        No blanket body-block->handler edges here: the per-statement
        pre-splits in :meth:`stmt` already carry the precise pre-raise
        states to the handler scope.  A ``finally`` contributes *two*
        lowered copies of its body — the normal one at the join, and an
        exceptional copy (``fin_exc``) through which in-flight
        exceptions propagate to the enclosing scope — so a release in a
        ``finally`` is visible on the exception path.
        """
        fin_exc: Optional[Block] = None
        if node.finalbody:
            fin_exc = self._new_block()
            saved = self.current
            self.current = fin_exc
            self.body(node.finalbody)
            self._to_handlers(self.current)
            self.current = saved
        handler_entries = [self._new_block() for _ in node.handlers]
        scope = list(handler_entries)
        if fin_exc is not None:
            scope.append(fin_exc)
        self._handlers.append(scope)
        body_entry = self._new_block()
        self.current.edge(body_entry)
        self.current = body_entry
        self.body(node.body)
        body_exit = self.current
        self._handlers.pop()
        # Handler and orelse bodies run outside the try's protection;
        # only the exceptional finally (if any) still applies to them.
        inner = [fin_exc] if fin_exc is not None else []
        join = self._new_block()
        if node.orelse:
            self._handlers.append(inner)
            self.current = body_exit
            self.body(node.orelse)
            self._handlers.pop()
            self.current.edge(join)
        else:
            body_exit.edge(join)
        for entry, handler in zip(handler_entries, node.handlers):
            self.current = entry
            self._handlers.append(inner)
            if handler.name and handler.type is not None:
                self.expr(handler.type)
            self.body(handler.body)
            self._handlers.pop()
            self.current.edge(join)
        self.current = join
        if node.finalbody:
            self.body(node.finalbody)

    def _match(self, node) -> None:
        subject_deps = self.expr(node.subject)
        before = self.current
        join = self._new_block()
        for case in node.cases:
            entry = self._new_block()
            before.edge(entry)
            self.current = entry
            for sub in ast.walk(case.pattern):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    self._emit(Op(ASSIGN, sub.id, _loc(sub),
                                  deps=tuple(sorted(subject_deps)), node=sub))
            if case.guard is not None:
                self.expr(case.guard)
            self.body(case.body)
            self.current.edge(join)
        before.edge(join)  # no case matched
        self.current = join


def build_cfg(
    func: ast.AST,
    aliases: dict[str, str],
    resolver: SharedResolver,
    raises: Optional[Callable[[ast.Call], bool]] = None,
) -> Cfg:
    """Lower one function body to a CFG of abstract-op basic blocks.

    With a ``raises`` predicate, the CFG additionally models exception
    flow: statements whose calls may raise get an edge from the
    pre-statement state to the innermost handler scope, and a dedicated
    ``exc_exit`` block collects every path on which an exception leaves
    the function.
    """
    builder = _Builder(aliases, resolver, raises)
    builder.body(func.body)
    exc_exit = builder.exc_block.bid if builder.exc_block is not None else None
    return Cfg(func=func, blocks=builder.blocks, entry=0, exc_exit=exc_exit)


# ---------------------------------------------------------------------------
# The fixpoint engine
# ---------------------------------------------------------------------------

def dataflow(
    cfg: Cfg,
    transfer: Callable,
    join: Callable,
    initial,
):
    """Forward any-path dataflow to fixpoint.

    ``transfer(block, state) -> state`` must be pure and monotone;
    ``join(states) -> state`` is the (union) lattice join; ``initial``
    seeds the entry block.  Returns ``{block id: entry state}`` — run
    one more transfer per block to inspect exit states or report.
    """
    preds = cfg.preds()
    entry_states = {cfg.entry: initial}
    worklist = [cfg.entry]
    exit_states: dict[int, object] = {}
    blocks = {b.bid: b for b in cfg.blocks}
    guard = 0
    limit = max(64, 16 * len(cfg.blocks) * (1 + sum(
        len(b.ops) for b in cfg.blocks
    )))
    while worklist:
        guard += 1
        if guard > limit:  # pathological input: bail, never hang the lint
            break
        bid = worklist.pop(0)
        incoming = [
            exit_states[p] for p in preds.get(bid, []) if p in exit_states
        ]
        if bid == cfg.entry:
            incoming.append(initial)
        state = join(incoming) if incoming else initial
        entry_states[bid] = state
        out = transfer(blocks[bid], state)
        if exit_states.get(bid) != out:
            exit_states[bid] = out
            for succ in blocks[bid].succs:
                if succ not in worklist:
                    worklist.append(succ)
    return entry_states
