"""Terminal chart rendering for the examples and benchmark harness.

The real tool renders with a JavaScript charting stack; the examples here
print the same series as aligned ASCII so a figure's *shape* is visible in
a terminal transcript (and in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Sequence

from .charts import ChartData

_GLYPHS = "o*x+#@%&"


def render_table(chart: ChartData, *, value_format: str = "{:,.0f}") -> str:
    """Aligned table: one row per x label, one column per series."""
    xs = list(dict.fromkeys(x for s in chart.series for x, _ in s.points))
    columns = {s.label: dict(s.points) for s in chart.series}
    width = max([len("period")] + [len(x) for x in xs]) + 2
    col_widths = {
        label: max(len(label), 14) + 2 for label in chart.labels
    }
    lines = [chart.title, "=" * len(chart.title)]
    header = "period".ljust(width) + "".join(
        label.rjust(col_widths[label]) for label in chart.labels
    )
    lines.append(header)
    for x in xs:
        row = x.ljust(width)
        for label in chart.labels:
            v = columns[label].get(x)
            cell = "-" if v is None else value_format.format(v)
            row += cell.rjust(col_widths[label])
        lines.append(row)
    return "\n".join(lines)


def render_lines(chart: ChartData, *, height: int = 12, width: int | None = None) -> str:
    """Rough multi-series line plot in ASCII."""
    xs = list(dict.fromkeys(x for s in chart.series for x, _ in s.points))
    if not xs:
        return chart.title + "\n(no data)"
    values = [
        v
        for s in chart.series
        for _, v in s.points
        if v is not None
    ]
    if not values:
        return chart.title + "\n(no data)"
    vmax = max(values) or 1.0
    ncols = width or len(xs)
    grid = [[" "] * ncols for _ in range(height)]
    for si, series in enumerate(chart.series):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        col_of = {x: int(i * (ncols - 1) / max(len(xs) - 1, 1)) for i, x in enumerate(xs)}
        for x, v in series.points:
            if v is None:
                continue
            row = height - 1 - int((v / vmax) * (height - 1))
            grid[row][col_of[x]] = glyph
    lines = [chart.title, "=" * len(chart.title)]
    lines.append(f"max = {vmax:,.0f} {chart.y_label}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * ncols)
    legend = "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={label}"
        for i, label in enumerate(chart.labels)
    )
    lines.append(legend)
    return "\n".join(lines)


_SPARK_LEVELS = " .:-=+*#%@"


def render_sparkline(values: Sequence[float], *, width: int = 32) -> str:
    """One-line trend strip for a metrics-history series.

    Values are downsampled to ``width`` columns (last value per column)
    and scaled to the series maximum; all-zero or empty input renders as
    a flat line.  Pure ASCII like the rest of the module, so sparkline
    panels survive cron email and CI log transcripts.
    """
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [values[min(int((i + 1) * step) - 1, len(values) - 1)]
                  for i in range(width)]
    vmax = max(values)
    if vmax <= 0:
        return _SPARK_LEVELS[0] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[max(0, min(top, int(round((v / vmax) * top))))]
        for v in values
    )


def render_bars(
    labels: Sequence[str], values: Sequence[float], *, title: str = "", width: int = 50
) -> str:
    """Horizontal bar chart for aggregate-view comparisons."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    vmax = max(values) if values else 1.0
    label_w = max((len(l) for l in labels), default=5) + 1
    lines = []
    if title:
        lines += [title, "=" * len(title)]
    for label, value in zip(labels, values):
        bar = "#" * int(round((value / vmax) * width)) if vmax else ""
        lines.append(f"{label.ljust(label_w)}|{bar} {value:,.1f}")
    return "\n".join(lines)
