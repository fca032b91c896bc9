"""Data export: CSV and JSON renditions of query results and charts.

"It also provides reporting capabilities that include data export and
custom report generation."
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from ..realms.base import RealmResult
from .charts import ChartData


def result_to_csv(result: RealmResult) -> str:
    """CSV with one row per (group, period) cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group", "period", "metric", "unit", "value"])
    for row in sorted(
        result.rows, key=lambda r: (r.group, r.period_start or 0)
    ):
        writer.writerow(
            [
                row.group,
                row.period_label or "all",
                result.metric.name,
                result.metric.unit,
                "" if row.value is None else f"{row.value:.6f}",
            ]
        )
    return buf.getvalue()


def result_to_json(result: RealmResult) -> str:
    """JSON document mirroring the UI's chart-store payload."""
    return json.dumps(
        {
            "metric": result.metric.name,
            "label": result.metric.label,
            "unit": result.metric.unit,
            "dimension": result.dimension,
            "rows": [
                {
                    "group": r.group,
                    "period_start": r.period_start,
                    "period": r.period_label,
                    "value": r.value,
                }
                for r in result.rows
            ],
        },
        indent=2,
    )


def chart_to_csv(chart: ChartData) -> str:
    """CSV matrix: one column per series, one row per x label."""
    xs = list(dict.fromkeys(x for s in chart.series for x, _ in s.points))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["period"] + chart.labels)
    columns = {
        s.label: {x: v for x, v in s.points} for s in chart.series
    }
    for x in xs:
        row: list[Any] = [x]
        for label in chart.labels:
            v = columns[label].get(x)
            row.append("" if v is None else f"{v:.6f}")
        writer.writerow(row)
    return buf.getvalue()


def chart_to_json(chart: ChartData) -> str:
    return json.dumps(chart.to_dict(), indent=2)
