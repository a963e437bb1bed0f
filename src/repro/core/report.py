"""Report rendering: plain-text and markdown tables, series, aggregates.

The benchmark harness prints "the same rows/series the paper reports";
these helpers do the formatting so every bench looks alike.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from ..errors import ModelError

__all__ = [
    "format_table",
    "markdown_table",
    "format_series",
    "geometric_mean",
    "system_geomean",
]


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        if magnitude >= 100:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _normalise_rows(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None
) -> tuple[list[str], list[list[str]]]:
    if not rows:
        raise ModelError("cannot format an empty table")
    if columns is None:
        columns = list(rows[0].keys())
    body = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    return list(columns), body


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Aligned plain-text table from a list of dict rows."""
    headers, body = _normalise_rows(rows, columns)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def markdown_table(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None
) -> str:
    """GitHub-flavoured markdown table from a list of dict rows."""
    headers, body = _normalise_rows(rows, columns)
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def format_series(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    x_label: str = "x",
    y_label: str = "y",
    title: str | None = None,
) -> str:
    """Two-column series rendering (one figure line = one series)."""
    if len(xs) != len(ys):
        raise ModelError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    rows = [{x_label: float(x), y_label: float(y)} for x, y in zip(xs, ys)]
    return format_table(rows, title=title)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's Figure 6 aggregate)."""
    if not values:
        raise ModelError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ModelError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def system_geomean(rows: Sequence[Mapping[str, Any]], prefix: str) -> float:
    """Geomean ``normalized_runtime`` of the rows whose ``system`` name
    starts with ``prefix`` (Figure 6's per-system aggregate), in row order."""
    return geometric_mean(
        [r["normalized_runtime"] for r in rows if r["system"].startswith(prefix)]
    )
