"""Edge cases across smaller surfaces: ascii rendering, chart helpers,
engine column access, predicate descriptions, schema helpers."""

from __future__ import annotations

import pytest

from repro.realms.base import Metric, RealmResult, ResultRow
from repro.ui.ascii import render_lines, render_table
from repro.ui.charts import ChartData, Series, chart_from_result
from repro.warehouse import (
    ColumnType,
    Database,
    SchemaError,
    TableSchema,
    make_columns,
)

C = ColumnType


class TestAsciiEdges:
    def test_render_lines_empty_chart(self):
        chart = ChartData(title="empty", x_label="x", y_label="y")
        assert "(no data)" in render_lines(chart)

    def test_render_lines_all_none_values(self):
        chart = ChartData(
            title="nones", x_label="x", y_label="y",
            series=[Series("s", [("a", None), ("b", None)])],
        )
        assert "(no data)" in render_lines(chart)

    def test_render_table_missing_points_dash(self):
        chart = ChartData(
            title="gaps", x_label="x", y_label="y",
            series=[
                Series("s1", [("jan", 1.0), ("feb", 2.0)]),
                Series("s2", [("feb", 3.0)]),
            ],
        )
        text = render_table(chart)
        assert "-" in text


class TestChartFromResult:
    def _result(self, *, timeseries=True):
        metric = Metric("m", "Metric", "units", "m")
        result = RealmResult(metric=metric, dimension="g")
        for i, group in enumerate(("a", "b")):
            result.rows.append(
                ResultRow(
                    group=group,
                    period_start=100 if timeseries else None,
                    period_label="2017-01" if timeseries else None,
                    value=float(10 - i),
                )
            )
        return result

    def test_timeseries_detection(self):
        chart = chart_from_result(self._result(), title="t")
        assert chart.view == "timeseries"
        chart = chart_from_result(self._result(timeseries=False), title="t")
        assert chart.view == "aggregate"

    def test_order_and_top_n(self):
        chart = chart_from_result(self._result(), title="t", top_n=1)
        assert chart.labels == ["a"]  # the larger total

    def test_y_label_includes_unit(self):
        chart = chart_from_result(self._result(), title="t")
        assert "[units]" in chart.y_label


class TestRealmResultHelpers:
    def test_series_ordering_by_period(self):
        """Rows come in (group, period) order, so each group's series is
        in period order as it stands."""
        metric = Metric("m", "M", "", "m")
        result = RealmResult(metric=metric, dimension=None)
        result.rows = [
            ResultRow("g", 100, "jan", 1.0),
            ResultRow("g", 200, "feb", 2.0),
            ResultRow("h", 200, "feb", 3.0),
        ]
        assert result.series() == {
            "g": [("jan", 1.0), ("feb", 2.0)], "h": [("feb", 3.0)],
        }

    def test_totals_skip_none(self):
        metric = Metric("m", "M", "", "m")
        result = RealmResult(metric=metric, dimension=None)
        result.rows = [
            ResultRow("g", 100, "jan", None),
            ResultRow("g", 200, "feb", 5.0),
        ]
        assert result.totals() == {"g": 5.0}

    def test_metric_ratio_none_on_zero_denominator(self):
        metric = Metric("r", "R", "", "num", denominator="den")
        assert metric.value(10.0, 0.0) is None
        assert metric.value(10.0, 2.0) == 5.0

    def test_metric_scale(self):
        metric = Metric("r", "R", "TB", "gb", scale=1e-3)
        assert metric.value(1500.0, 0.0) == pytest.approx(1.5)


class TestEngineColumnAccess:
    def test_column_values_and_multi(self):
        db = Database()
        schema = db.create_schema("s")
        table = schema.create_table(
            TableSchema(
                "t",
                make_columns([("a", C.INT, False), ("b", C.STR, False)]),
                primary_key=("a",),
            )
        )
        table.upsert_columns({"a": list(range(4)), "b": [f"x{i}" for i in range(4)]})
        table.delete_where(lambda r: r["a"] == 2)
        assert table.column_values("a") == [0, 1, 3]
        assert table.columns_values(["b", "a"]) == [
            ("x0", 0), ("x1", 1), ("x3", 3),
        ]

    def test_row_at_tombstone(self):
        db = Database()
        schema = db.create_schema("s")
        table = schema.create_table(
            TableSchema("t", make_columns([("a", C.INT, False)]),
                        primary_key=("a",))
        )
        table.upsert_columns({"a": [1]})
        table.delete_where(lambda r: True)
        from repro.warehouse import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            table.row_at(0)


class TestSchemaHelpers:
    def test_make_columns_mixed_arity(self):
        cols = make_columns([("a", C.INT), ("b", C.STR, False)])
        assert cols[0].nullable and not cols[1].nullable

    def test_table_schema_requires_valid_name(self):
        with pytest.raises(SchemaError):
            TableSchema("bad name", make_columns([("a", C.INT)]))
