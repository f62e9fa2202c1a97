"""flowlint — the one lint for this repository.

Every function is lowered to a small CFG (:mod:`.cfg`) whose ``await``
points are interleaving edges, a forward dataflow runs over it, and the
per-file passes (:mod:`.passes`) sit on top: the five determinism rules
that guard the same-seed contract (:mod:`.determinism` — ``rng-call``,
``wall-clock``, ``set-iter``, ``mutable-default``, ``float-time-eq``),
then ``yield-race``, ``async-blocking``, ``task-orphan`` +
``await-no-timeout``, ``stage-name`` + ``stage-parity``, and
``proto-transition``.  Each file is parsed once and every pass reads
the same tree and import aliases.

On top of the per-file passes sits an *interprocedural* stage run once
over the whole linted batch: a module-resolution call graph
(:mod:`.callgraph`), bottom-up per-function summaries over its SCC
condensation (:mod:`.summaries` — transitive nondeterminism and
blocking, may-raise sets), and a resource-typestate engine
(:mod:`.typestate`) that re-lowers each function with exception edges
and checks declared lifecycles (QPs, extents, net connections, tasks,
leases) for ``resource-leak`` and ``resource-typestate`` violations.
The suppression *ratchet* (:mod:`.ratchet`) counts every pragma and
fails CI when any rule's count grows past the checked-in baseline.

Pragmas are comments (:mod:`.pragmas`): ``# flowlint: ignore[rule]`` on
the offending line, ``# flowlint: skip-file`` for a whole file.

Usage::

    python -m repro.analysis.flowlint src tests benchmarks examples
    python -m repro.analysis.flowlint --json report.json src
    python -m repro.analysis.flowlint --callgraph-out graph.json src
    python -m repro.analysis.flowlint --baseline tests/analysis/lint_baseline.json src
    python -m repro.analysis.flowlint --list-rules
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import ratchet
from .callgraph import CallGraph, build_callgraph
from .determinism import DETERMINISM_RULES
from .passes import FLOW_RULES, ModuleContext, check_stage_parity, make_context, run_passes
from .pragmas import Finding, apply_suppressions, iter_python_files, read_pragmas
from .summaries import compute_summaries, report_transitive
from .typestate import check_typestate

__all__ = [
    "ALL_RULES",
    "FLOW_RULES",
    "Finding",
    "FileResult",
    "lint_source",
    "lint_paths",
    "main",
]

#: The full catalog: the determinism rules plus the flow rules.
ALL_RULES = {**DETERMINISM_RULES, **FLOW_RULES}


@dataclass
class FileResult:
    """One file's worth of lint state (parity checking needs the
    per-file stage vocabularies and suppressions after the per-file
    findings are already filtered)."""

    path: str
    findings: list = field(default_factory=list)
    stage_sites: dict = field(default_factory=dict)
    suppressions: dict = field(default_factory=dict)
    context: Optional[ModuleContext] = None


def lint_file(
    source: str, path: str, *, timings: Optional[dict] = None
) -> FileResult:
    """Parse once, run every per-file pass, and return the
    suppression-filtered result."""
    result = FileResult(path=path)
    skip, result.suppressions = read_pragmas(source)
    if skip:
        return result
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(Finding(
            path, exc.lineno or 1, (exc.offset or 0) + 1,
            "syntax-error", str(exc.msg),
        ))
        return result
    ctx = run_passes(make_context(tree, path), timings=timings)
    ctx.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    result.findings = apply_suppressions(ctx.findings, result.suppressions)
    result.stage_sites = ctx.stage_sites
    result.context = ctx
    return result


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one file's source; returns unsuppressed findings (the
    cross-file ``stage-parity`` pass needs :func:`lint_paths`)."""
    return lint_file(source, path).findings


def lint_paths(
    paths: Iterable[str],
    *,
    timings: Optional[dict] = None,
    artifacts: Optional[dict] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``: the per-file passes, the
    cross-file stage-parity check, and the interprocedural stage
    (call graph -> bottom-up summaries -> transitive nondet/blocking +
    resource typestate) over the whole batch.

    ``timings`` accumulates per-pass seconds; ``artifacts`` (if given)
    receives the built :class:`~.callgraph.CallGraph` under
    ``"callgraph"``.
    """
    results = [
        lint_file(file_path.read_text(encoding="utf-8"), str(file_path),
                  timings=timings)
        for file_path in iter_python_files(paths)
    ]
    findings = [f for r in results for f in r.findings]
    by_path = {r.path: r for r in results}

    def cross_file(batch: list[Finding]) -> None:
        for finding in batch:
            owner = by_path.get(finding.path)
            suppressions = owner.suppressions if owner else {}
            findings.extend(apply_suppressions([finding], suppressions))

    cross_file(check_stage_parity([r.context for r in results if r.context]))

    # Interprocedural stage: one call graph over the whole batch, then
    # bottom-up summaries, then the reporting passes that need them.
    def timed(key: str, thunk):
        started = time.perf_counter()  # flowlint: ignore[wall-clock] — lint self-profiling
        value = thunk()
        if timings is not None:
            timings[key] = timings.get(key, 0.0) + (
                time.perf_counter() - started  # flowlint: ignore[wall-clock] — lint self-profiling
            )
        return value

    with_trees = [r for r in results if r.context is not None]
    graph = timed("callgraph", lambda: build_callgraph(
        [(r.path, r.context.tree) for r in with_trees]
    ))
    if artifacts is not None:
        artifacts["callgraph"] = graph
    summaries = timed("summaries", lambda: compute_summaries(
        graph, {r.path: r.suppressions for r in with_trees}
    ))
    cross_file(timed("nondet-transitive",
                     lambda: report_transitive(graph, summaries)))
    cross_file(timed("resource-typestate", lambda: check_typestate(
        graph, summaries,
        {r.path: r.context.aliases for r in with_trees},
    )))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _as_json(
    findings: list[Finding],
    timings: Optional[dict] = None,
    suppression_counts: Optional[dict] = None,
) -> str:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    payload = {
        "tool": "flowlint",
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
            }
            for f in findings
        ],
        "counts": dict(sorted(counts.items())),
        "total": len(findings),
    }
    if timings is not None:
        payload["timings_s"] = {
            key: round(value, 4) for key, value in sorted(timings.items())
        }
    if suppression_counts is not None:
        payload["suppressions"] = suppression_counts
    return json.dumps(payload, indent=2)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flowlint",
        description="Determinism and CFG/dataflow lint for the ScaleRPC "
                    "reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint (default: src tests)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write a JSON report ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--callgraph-out", metavar="FILE", default=None,
                        help="write the resolved call graph (functions, "
                             "edges, SCCs) as a JSON artifact")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="suppression-ratchet baseline to check "
                             "(tests/analysis/lint_baseline.json in CI)")
    parser.add_argument("--update-baseline", metavar="FILE", nargs="?",
                        const="tests/analysis/lint_baseline.json",
                        default=None,
                        help="rewrite the ratchet baseline from the "
                             "current suppression counts and exit")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="fail if the whole run exceeds this wall-time "
                             "budget (CI uses 120)")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, description in ALL_RULES.items():
            print(f"{rule:18} {description}")
        return 0
    if args.update_baseline:
        counts = ratchet.count_suppressions(args.paths)
        ratchet.write_baseline(counts, args.update_baseline)
        print(f"flowlint: baseline written to {args.update_baseline}")
        return 0
    started = time.perf_counter()  # flowlint: ignore[wall-clock] — lint self-profiling
    timings: dict[str, float] = {}
    artifacts: dict = {}
    findings = lint_paths(args.paths, timings=timings, artifacts=artifacts)
    elapsed = time.perf_counter() - started  # flowlint: ignore[wall-clock] — lint self-profiling
    timings["total"] = elapsed
    for finding in findings:
        print(finding.render())
    problems: list[str] = []
    suppression_counts = None
    if args.baseline:
        suppression_counts = ratchet.count_suppressions(args.paths)
        problems.extend(ratchet.check_baseline(
            suppression_counts, args.baseline
        ))
    if args.callgraph_out:
        graph: Optional[CallGraph] = artifacts.get("callgraph")
        if graph is not None:
            with open(args.callgraph_out, "w", encoding="utf-8") as fh:
                json.dump(graph.to_json(), fh, indent=2)
                fh.write("\n")
    if args.json == "-":
        print(_as_json(findings, timings, suppression_counts))
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(_as_json(findings, timings, suppression_counts) + "\n")
    if args.max_seconds is not None and elapsed > args.max_seconds:
        problems.append(
            f"lint-runtime budget exceeded: {elapsed:.1f}s > "
            f"{args.max_seconds:.0f}s — see timings_s in the JSON report "
            "for the per-pass breakdown"
        )
    for problem in problems:
        print(problem)
    if findings:
        print(f"flowlint: {len(findings)} finding(s)")
        return 1
    return 1 if problems else 0
