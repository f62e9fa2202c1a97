"""Findings, pragmas, and file discovery — shared by every flowlint layer.

A pragma is a *comment*: ``# flowlint: ignore[rule, ...]`` on the
offending line (a bare ``# flowlint: ignore`` covers every rule), or
``# flowlint: skip-file`` anywhere in a file.  Only ``tokenize``
COMMENT tokens are read, so a docstring or a fixture string that spells
a pragma neither suppresses nor skips anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "Finding",
    "apply_suppressions",
    "is_suppressed",
    "iter_python_files",
    "read_pragmas",
]

_IGNORE_RE = re.compile(r"#\s*flowlint:\s*ignore(?:\[([a-z0-9\-,\s]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*flowlint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _comments(source: str) -> Iterable[tokenize.TokenInfo]:
    """COMMENT tokens of ``source``, up to the first tokenize error (a
    broken file is the ``syntax-error`` finding's job, not ours)."""
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token
    except (tokenize.TokenError, SyntaxError):
        return


def read_pragmas(source: str) -> tuple[bool, dict[int, Optional[set[str]]]]:
    """``(skip_file, suppressions)`` for one file.  ``suppressions`` maps
    line number -> suppressed rule IDs (None = all rules)."""
    skip = False
    suppressions: dict[int, Optional[set[str]]] = {}
    if "flowlint:" not in source:
        return skip, suppressions
    for token in _comments(source):
        if _SKIP_FILE_RE.search(token.string):
            skip = True
        match = _IGNORE_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        if match.group(1) is None:
            suppressions[line] = None
        else:
            suppressions[line] = {
                r.strip() for r in match.group(1).split(",") if r.strip()
            }
    return skip, suppressions


def is_suppressed(
    suppressions: dict[int, Optional[set[str]]], line: int, rule: str
) -> bool:
    """Does line ``line`` carry an ``ignore`` pragma covering ``rule``?"""
    if line not in suppressions:
        return False
    rules = suppressions[line]
    return rules is None or rule in rules


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: dict[int, Optional[set[str]]],
) -> list[Finding]:
    """Drop findings whose line carries a matching ``ignore`` pragma."""
    return [f for f in findings
            if not is_suppressed(suppressions, f.line, f.rule)]


def iter_python_files(paths: Iterable[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
