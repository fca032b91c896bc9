"""Query engine: predicates, aggregation, ordering, joins."""

from __future__ import annotations

import pytest

from repro.warehouse import (
    Agg,
    ColumnType,
    Database,
    P,
    Query,
    QueryError,
    TableSchema,
    hash_join,
    make_columns,
)

C = ColumnType


@pytest.fixture()
def table():
    db = Database()
    schema = db.create_schema("modw")
    t = schema.create_table(
        TableSchema(
            "jobs",
            make_columns([
                ("job_id", C.INT, False),
                ("resource", C.STR, False),
                ("user", C.STR, False),
                ("cpu_hours", C.FLOAT),
                ("cores", C.INT),
            ]),
            primary_key=("job_id",),
        )
    )
    rows = [
        (1, "comet", "alice", 10.0, 4),
        (2, "comet", "bob", 5.0, 8),
        (3, "comet", "alice", None, 2),
        (4, "stampede", "bob", 7.5, 16),
        (5, "stampede", "carol", 2.5, 1),
    ]
    for job_id, resource, user, cpu, cores in rows:
        t.insert(
            {"job_id": job_id, "resource": resource, "user": user,
             "cpu_hours": cpu, "cores": cores}
        )
    return t


class TestPredicates:
    def test_eq_and_combinators(self, table):
        rows = Query(table).where(
            P.eq("resource", "comet") & ~P.eq("user", "bob")
        ).run()
        assert sorted(r["job_id"] for r in rows) == [1, 3]

    def test_or(self, table):
        rows = Query(table).where(
            P.eq("user", "carol") | P.eq("user", "alice")
        ).run()
        assert sorted(r["job_id"] for r in rows) == [1, 3, 5]

    def test_comparisons_ignore_null(self, table):
        rows = Query(table).where(P.gt("cpu_hours", 6.0)).run()
        assert sorted(r["job_id"] for r in rows) == [1, 4]

    def test_between_half_open(self, table):
        rows = Query(table).where(P.between("cores", 4, 16)).run()
        assert sorted(r["job_id"] for r in rows) == [1, 2]

    def test_isin_and_nulls(self, table):
        assert len(Query(table).where(P.isin("user", ["alice"])).run()) == 2
        assert [r["job_id"] for r in Query(table).where(P.isnull("cpu_hours")).run()] == [3]
        assert len(Query(table).where(P.notnull("cpu_hours")).run()) == 4


class TestAggregates:
    def test_group_by_sum_count(self, table):
        rows = Query(table).group_by("resource").aggregate(
            total=Agg.sum("cpu_hours"), n=Agg.count()
        ).order_by("resource").run()
        assert rows == [
            {"resource": "comet", "total": 15.0, "n": 3},
            {"resource": "stampede", "total": 10.0, "n": 2},
        ]

    def test_avg_skips_nulls(self, table):
        value = Query(table).aggregate(avg=Agg.avg("cpu_hours")).scalar("avg")
        assert value == pytest.approx((10 + 5 + 7.5 + 2.5) / 4)

    def test_min_max_count_distinct(self, table):
        row = Query(table).aggregate(
            lo=Agg.min("cores"), hi=Agg.max("cores"),
            users=Agg.count_distinct("user"),
        ).run()[0]
        assert (row["lo"], row["hi"], row["users"]) == (1, 16, 3)

    def test_weighted_avg(self, table):
        value = Query(table).aggregate(
            w=Agg.weighted_avg("cpu_hours", "cores")
        ).scalar()
        expected = (10 * 4 + 5 * 8 + 7.5 * 16 + 2.5 * 1) / (4 + 8 + 16 + 1)
        assert value == pytest.approx(expected)

    def test_empty_group_aggregate_none(self, table):
        rows = Query(table).where(P.eq("resource", "nope")).aggregate(
            total=Agg.sum("cpu_hours")
        ).run()
        assert rows == []

    def test_invalid_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Query([]).aggregate(x=Agg.sum("a").__class__("bogus", "a"))


class TestOrderingAndLimits:
    def test_order_by_descending_and_limit(self, table):
        rows = Query(table).select("job_id", "cpu_hours").order_by(
            "cpu_hours", descending=True
        ).limit(2).run()
        assert [r["job_id"] for r in rows] == [1, 4]

    def test_nulls_sort_last(self, table):
        rows = Query(table).order_by("cpu_hours").run()
        assert rows[-1]["job_id"] == 3

    def test_negative_limit_rejected(self, table):
        with pytest.raises(QueryError):
            Query(table).limit(-1)

    def test_derive(self, table):
        rows = (
            Query(table)
            .derive(per_core=lambda r: (r["cpu_hours"] or 0) / r["cores"])
            .where(P.gt("per_core", 2.0))
            .run()
        )
        assert sorted(r["job_id"] for r in rows) == [1, 5]

    def test_scalar_shape_enforced(self, table):
        with pytest.raises(QueryError):
            Query(table).scalar()


class TestHashJoin:
    def test_inner_join(self):
        facts = [{"rid": 1, "v": 10}, {"rid": 2, "v": 20}, {"rid": 9, "v": 0}]
        dims = [{"rid": 1, "name": "a"}, {"rid": 2, "name": "b"}]
        joined = hash_join(facts, dims, left_key="rid", right_key="rid")
        assert sorted((r["name"], r["v"]) for r in joined) == [("a", 10), ("b", 20)]

    def test_left_join_keeps_unmatched(self):
        facts = [{"rid": 1}, {"rid": 9}]
        dims = [{"rid": 1, "name": "a"}]
        joined = hash_join(facts, dims, left_key="rid", right_key="rid", how="left")
        assert len(joined) == 2

    def test_bad_join_type(self):
        with pytest.raises(QueryError):
            hash_join([], [], left_key="a", right_key="b", how="outer")
