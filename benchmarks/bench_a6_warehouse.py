"""Ablation A6: warehouse query-engine scaling.

Not a paper artifact — a substrate sanity bench.  Group-by aggregation
latency over the embedded warehouse as row count grows, plus an indexed
point lookup.
"""

from __future__ import annotations

import pytest

from repro.warehouse import (
    Agg,
    ColumnType,
    Database,
    P,
    Query,
    TableSchema,
    make_columns,
)

from conftest import emit, emit_metrics

C = ColumnType


def _table(n: int):
    schema = Database().create_schema("modw")
    table = schema.create_table(
        TableSchema(
            "facts",
            make_columns([
                ("id", C.INT, False),
                ("resource", C.STR, False),
                ("value", C.FLOAT, False),
            ]),
            primary_key=("id",),
            indexes=("resource",),
        )
    )
    for i in range(n):
        table.insert(
            {"id": i, "resource": f"r{i % 8}", "value": float(i % 1000)}
        )
    return table


@pytest.mark.parametrize("n_rows", [1000, 10000, 50000])
def test_a6_group_by_latency(benchmark, n_rows):
    table = _table(n_rows)

    def group_query():
        return (
            Query(table)
            .where(P.gt("value", 100.0))
            .group_by("resource")
            .aggregate(total=Agg.sum("value"), n=Agg.count())
            .order_by("total", descending=True)
            .run()
        )

    rows = benchmark(group_query)
    assert len(rows) == 8
    emit(f"a6_groupby_{n_rows}", "\n".join([
        f"A6 group-by over {n_rows} rows -> {len(rows)} groups; "
        f"top group total {rows[0]['total']:,.0f}",
    ]))
    emit_metrics(f"a6_groupby_{n_rows}", {
        "group_by_time": (benchmark.stats.stats.mean, "s"),
    })


def test_a6_index_point_lookup(benchmark):
    table = _table(50000)

    hits = benchmark(table.lookup_index, "resource", "r3")
    assert len(hits) == 50000 // 8
    emit_metrics("a6_index_point_lookup", {
        "index_lookup_time": (benchmark.stats.stats.mean, "s"),
    })
