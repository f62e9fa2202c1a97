"""Paper-style result tables.

Every experiment in :mod:`repro.bench.experiments` returns a
:class:`FigureResult` — a set of labelled series plus notes — which
renders as an aligned text table, the closest terminal-friendly analogue
of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["FigureResult", "format_table"]


@dataclass
class FigureResult:
    """One reproduced table/figure."""

    figure: str  # e.g. "Figure 8 (left)"
    title: str
    x_label: str
    x_values: Sequence
    series: dict[str, Sequence[float]]  # label -> values aligned with x
    unit: str = "Mops/s"
    notes: list[str] = field(default_factory=list)

    def __getitem__(self, label: str) -> Sequence[float]:
        return self.series[label]

    def value(self, label: str, x) -> float:
        """Look up one measurement by series label and x value."""
        index = list(self.x_values).index(x)
        return self.series[label][index]

    def render(self) -> str:
        return format_table(self)

    def as_dict(self) -> dict:
        """JSON-serializable form (for --json output and archival)."""
        return {
            "figure": self.figure,
            "title": self.title,
            "unit": self.unit,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": {k: list(v) for k, v in self.series.items()},
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        return self.render()


def format_table(result: FigureResult) -> str:
    """Render a FigureResult as an aligned text table."""
    label_width = max(
        [len(result.x_label), *(len(label) for label in result.series)]
    )
    value_width = max(
        8,
        max(
            (len(_fmt(v)) for values in result.series.values() for v in values),
            default=8,
        ),
        max((len(str(x)) for x in result.x_values), default=8),
    )
    lines = [f"== {result.figure}: {result.title} [{result.unit}] =="]
    header = f"{result.x_label:<{label_width}} | " + " ".join(
        f"{x!s:>{value_width}}" for x in result.x_values
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, values in result.series.items():
        row = f"{label:<{label_width}} | " + " ".join(
            f"{_fmt(v):>{value_width}}" for v in values
        )
        lines.append(row)
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
