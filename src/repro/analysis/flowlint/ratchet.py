"""The suppression ratchet: lint debt only shrinks.

Every ``ignore[...]`` pragma comment is a justified exception, but
exceptions accumulate silently — nothing in the finding count moves
when a PR adds three new suppressions.  The ratchet counts
them per rule across the linted trees and compares against a checked-in
baseline (``tests/analysis/lint_baseline.json``): any rule whose count
*grows* fails the lint job unless the baseline is updated in the same
PR, which makes new suppressions a reviewed, deliberate act.  Counts
shrinking is always fine (and worth re-baselining to lock in).

Blanket ``ignore`` pragmas (no rule list) count under ``"*"``;
``skip-file`` pragmas count under ``"skip-file"``.
"""

from __future__ import annotations

import json
from typing import Iterable

from .pragmas import iter_python_files, read_pragmas

__all__ = ["count_suppressions", "check_baseline", "write_baseline"]


def count_suppressions(paths: Iterable[str]) -> dict:
    """Per-rule suppression counts over every ``*.py`` under ``paths``."""
    counts: dict[str, int] = {}
    for file_path in iter_python_files(paths):
        skip, suppressions = read_pragmas(file_path.read_text(encoding="utf-8"))
        if skip:
            counts["skip-file"] = counts.get("skip-file", 0) + 1
            continue
        for rules in suppressions.values():
            if rules is None:
                counts["*"] = counts.get("*", 0) + 1
            else:
                for rule in sorted(rules):
                    counts[rule] = counts.get(rule, 0) + 1
    return dict(sorted(counts.items()))


def check_baseline(counts: dict, baseline_path: str) -> list:
    """Lines describing every rule whose count grew (empty = pass)."""
    try:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh).get("suppressions", {})
    except FileNotFoundError:
        return [
            f"lint baseline {baseline_path} is missing; create it with "
            "--update-baseline"
        ]
    problems = []
    for rule, count in counts.items():
        allowed = baseline.get(rule, 0)
        if count > allowed:
            problems.append(
                f"suppression ratchet: {count} `{rule}` suppressions vs "
                f"{allowed} in the baseline — remove the new pragma(s) or "
                f"update {baseline_path} in this PR with --update-baseline"
            )
    return problems


def write_baseline(counts: dict, baseline_path: str) -> None:
    payload = {
        "_comment": (
            "Per-rule lint-suppression counts; CI fails when any rule "
            "grows past its entry.  Regenerate deliberately with: "
            "python -m repro.analysis.flowlint src tests benchmarks "
            "examples --update-baseline"
        ),
        "suppressions": counts,
    }
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
