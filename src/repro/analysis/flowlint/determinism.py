"""The determinism pass: the repository's same-seed contract as AST rules.

Every figure the reproduction emits is only meaningful because a fixed
seed yields a bit-identical run.  That property is easy to break with a
one-line change (a private ``random.Random``, a wall-clock read, an
iteration over a ``set`` that feeds :meth:`Simulator.schedule`), and such
breaks are invisible to ruff and to the test suite until a baseline
silently shifts.  Rule IDs:

``rng-call``
    No calls into the :mod:`random` module outside ``sim/rng.py``.  Every
    stochastic component draws from a named :class:`RngRegistry` stream,
    so adding a client or reordering setup never perturbs unrelated draws.
``wall-clock``
    No ``time.time``/``datetime.now``/``os.urandom``/``uuid.uuid4`` outside
    ``tests``/``benchmarks``: simulated time is the only clock (wall-clock
    use in CLI timing code carries an explicit suppression).
``set-iter``
    No iteration over values that are statically sets (literals,
    ``set()`` calls, set comprehensions, or names/attributes assigned
    sets): set order is hash-dependent, and any event posted from such a
    loop reaches the scheduler in nondeterministic order.  Wrap the
    iterable in ``sorted(...)`` instead.  (Dict iteration is
    insertion-ordered and therefore allowed.)
``mutable-default``
    No mutable default arguments — shared defaults leak state between
    runs that must be independent.
``float-time-eq``
    No ``==``/``!=`` between simulated timestamps and float expressions;
    timestamps are integers by contract and float arithmetic on them
    invites platform-dependent equality.

The RNG and wall-clock leaf predicates are shared with the
interprocedural summaries (:mod:`.summaries`), which carry the same
leaves transitively through the call graph.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional

from . import cfg as C

__all__ = [
    "DETERMINISM_RULES",
    "WALL_CLOCK_CALLS",
    "in_rng_file",
    "is_rng_call",
    "pass_determinism",
]

DETERMINISM_RULES = {
    "rng-call": "call into the random module outside sim/rng.py "
                "(use RngRegistry.stream)",
    "wall-clock": "wall-clock / entropy read inside src/repro "
                  "(time.time, datetime.now, os.urandom, uuid.uuid4, ...)",
    "set-iter": "iteration over a set (hash order); wrap in sorted(...)",
    "mutable-default": "mutable default argument",
    "float-time-eq": "float ==/!= against a simulated timestamp",
}

#: Files (path suffixes, ``/``-separated) where ``rng-call`` is allowed:
#: the registry itself is the one place that constructs ``random.Random``.
RNG_ALLOWED_SUFFIXES = ("sim/rng.py",)

#: ``wall-clock`` only applies to simulation code, not to test harnesses
#: or benchmark drivers that legitimately measure wall time.
WALL_CLOCK_EXEMPT_PARTS = frozenset({"tests", "benchmarks"})

#: Dotted call targets that read the wall clock or the OS entropy pool.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
})

#: Module roots whose dynamic ``__import__`` would dodge the alias
#: tracking the rng-call / wall-clock rules depend on.
_IMPORT_DENY = frozenset({"random", "time", "datetime", "os", "uuid", "secrets"})

_TIME_NAME_RE = re.compile(r"(?:^now$|_ns$|_time$|^timestamp|_timestamp)")


def is_rng_call(dotted: Optional[str]) -> bool:
    """Is a call to the resolved target ``dotted`` a raw RNG draw?"""
    if not dotted:
        return False
    return (
        dotted in ("random.Random", "random.SystemRandom")
        or (dotted.startswith("random.") and dotted.count(".") == 1)
    )


def in_rng_file(path: str) -> bool:
    """Is ``path`` the sanctioned RNG seam (the registry module)?"""
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in RNG_ALLOWED_SUFFIXES)


# ---------------------------------------------------------------------------
# Set-type inference (deliberately conservative)
# ---------------------------------------------------------------------------

def _is_set_expr(node: ast.AST, known_sets: frozenset[str]) -> bool:
    """Is ``node`` statically a set?  ``known_sets`` holds inferred names
    (``x`` for locals, ``self.x`` for attributes of the current class)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return f"self.{node.attr}" in known_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, known_sets) or _is_set_expr(
            node.right, known_sets
        )
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet")
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotations (from __future__ import annotations).
        head = annotation.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "typing.Set")
    return False


def _collect_set_names(scope: ast.AST) -> frozenset[str]:
    """Names assigned a set anywhere inside ``scope`` (one function body or
    one class body including all its methods, for ``self.*``)."""
    names: set[str] = set()
    for node in ast.walk(scope):
        targets: list[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation):
                targets, value = [node.target], None
                for target in targets:
                    name = _target_name(target)
                    if name:
                        names.add(name)
                continue
            targets, value = [node.target], node.value
        else:
            continue
        if value is not None and _is_set_expr(value, frozenset(names)):
            for target in targets:
                name = _target_name(target)
                if name:
                    names.add(name)
    return frozenset(names)


def _target_name(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return f"self.{target.attr}"
    return None


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx):
        self.ctx = ctx
        parts = frozenset(Path(ctx.path.replace("\\", "/")).parts)
        self.check_wall_clock = not (parts & WALL_CLOCK_EXEMPT_PARTS)
        self.allow_rng = in_rng_file(ctx.path)
        #: Stack of inferred set-typed names (outermost first).
        self._set_scopes: list[frozenset[str]] = [frozenset()]

    def _known_sets(self) -> frozenset[str]:
        merged: set[str] = set()
        for scope in self._set_scopes:
            merged |= scope
        return frozenset(merged)

    # -- calls: rng-call + wall-clock --------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        report = self.ctx.report
        dotted = C.dotted_name(node.func, self.ctx.aliases)
        if dotted is not None:
            if not self.allow_rng and is_rng_call(dotted):
                report(
                    node, "rng-call",
                    f"`{dotted}(...)`: derive a stream from RngRegistry "
                    "instead of seeding ad hoc",
                )
            if self.check_wall_clock and dotted in WALL_CLOCK_CALLS:
                report(
                    node, "wall-clock",
                    f"`{dotted}()` reads the wall clock / OS entropy; "
                    "simulation code must use sim.now and RngRegistry",
                )
        # `__import__("random")`-style evasion defeats the alias tracking
        # the rules above rely on; flag denylisted (or dynamic) targets.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "__import__"
            and not self.allow_rng
        ):
            arg = node.args[0] if node.args else None
            modname = (
                arg.value
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                else None
            )
            if modname is None or modname.split(".")[0] in _IMPORT_DENY:
                report(
                    node, "rng-call",
                    "`__import__(...)` hides an import from the determinism "
                    "lint; import statically",
                )
        # list(s) / tuple(s) / enumerate(s) materialize hash order too.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and len(node.args) == 1
            and _is_set_expr(node.args[0], self._known_sets())
        ):
            report(
                node, "set-iter",
                f"`{node.func.id}(...)` over a set materializes hash order; "
                "use sorted(...)",
            )
        self.generic_visit(node)

    # -- set iteration -----------------------------------------------------

    def _check_iter(self, node: ast.AST, iterable: ast.AST) -> None:
        if _is_set_expr(iterable, self._known_sets()):
            self.ctx.report(
                node, "set-iter",
                "iterating a set yields hash order; wrap the iterable in "
                "sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iter(node, generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- mutable defaults --------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray",
                                        "deque", "defaultdict", "OrderedDict")
            ):
                mutable = True
            if mutable:
                self.ctx.report(
                    node, "mutable-default",
                    f"mutable default argument in `{node.name}` is shared "
                    "between calls; default to None",
                )

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self._set_scopes.append(_collect_set_names(node))
        self.generic_visit(node)
        self._set_scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._set_scopes.append(_collect_set_names(node))
        self.generic_visit(node)
        self._set_scopes.pop()

    # -- float == timestamp ------------------------------------------------

    @staticmethod
    def _mentions_time(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and _TIME_NAME_RE.search(sub.id):
                return True
            if isinstance(sub, ast.Attribute) and _TIME_NAME_RE.search(sub.attr):
                return True
        return False

    @staticmethod
    def _mentions_float(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._mentions_time(o) for o in operands) and any(
                self._mentions_float(o) for o in operands
            ):
                self.ctx.report(
                    node, "float-time-eq",
                    "float equality against a simulated timestamp; "
                    "timestamps are integers — compare exactly or use a "
                    "tolerance",
                )
        self.generic_visit(node)


def pass_determinism(ctx) -> None:
    """Run the five determinism rules over ``ctx.tree``."""
    _Visitor(ctx).visit(ctx.tree)
