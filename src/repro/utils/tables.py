"""Plain-text rendering of experiment tables and figure series.

The paper reports its evaluation as figures; the experiments runner prints
the same information as aligned ASCII tables (one row per x-axis value, one
column per series) so the shape of each figure can be read off a terminal.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def _format_cell(value: object, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_format_cell(c, precision) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Optional[Number]]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render a figure as a table: x-axis column plus one column per series.

    ``series`` maps a legend label to y-values aligned with ``x_values``;
    missing points may be ``None``.
    """
    for label, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {label!r} has {len(ys)} points for {len(x_values)} x values"
            )
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(series[label][i] for label in series)]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, precision=precision, title=title)


def sparkline(values: Sequence[Number]) -> str:
    """A one-line unicode sparkline, handy for eyeballing trends in logs."""
    blocks = "▁▂▃▄▅▆▇█"
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return blocks[0] * len(vals)
    span = hi - lo
    return "".join(blocks[min(7, int((v - lo) / span * 8))] for v in vals)


__all__ = ["format_table", "format_series", "sparkline"]
