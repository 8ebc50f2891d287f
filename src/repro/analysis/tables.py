"""Plain-text table rendering and CSV emission for the benchmark harness.

The paper's figures are line plots and its tables are latency formulas;
without a plotting stack in the offline environment, every benchmark
prints the underlying series as an aligned text table (the same rows a
plot would show) and optionally writes a CSV next to it for external
plotting.  Numbers are formatted with engineering-friendly precision.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = ["format_table", "write_csv", "format_value", "format_seconds"]


def format_value(value: Any, precision: int = 4) -> str:
    """Human-friendly scalar formatting: significant digits for floats,
    plain text for the rest."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if math.isinf(value) or math.isnan(value):
            return str(value)
        magnitude = abs(value)
        if 1e-3 <= magnitude < 1e7:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}e}"
    return str(value)


def format_seconds(us: float | None) -> str:
    """Format a microsecond quantity with an adaptive unit."""
    if us is None:
        return "-"
    if us < 1_000:
        return f"{us:.0f} us"
    if us < 1_000_000:
        return f"{us / 1_000:.3g} ms"
    return f"{us / 1_000_000:.4g} s"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render an aligned monospace table."""
    rendered_rows = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> Path:
    """Write rows to a CSV file, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
    return path
