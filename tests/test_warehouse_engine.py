"""Storage engine: CRUD, keys, checksums, event application."""

from __future__ import annotations

import pytest

from repro.warehouse import ColumnType, Database, DuplicateObjectError, PrimaryKeyError, SchemaError, TableSchema, UnknownObjectError, make_columns

C = ColumnType


def jobs_table_schema() -> TableSchema:
    return TableSchema(
        "jobs",
        make_columns([
            ("job_id", C.INT, False),
            ("user", C.STR, False),
            ("cpu_hours", C.FLOAT),
        ]),
        primary_key=("job_id",),
    )


@pytest.fixture()
def table():
    db = Database()
    schema = db.create_schema("modw")
    return schema.create_table(jobs_table_schema())


class TestDatabaseAndSchema:
    def test_create_and_lookup(self):
        db = Database()
        db.create_schema("a")
        assert db.has_schema("a")
        assert "a" in db
        assert db.schema_names() == ["a"]

    def test_duplicate_schema_rejected(self):
        db = Database()
        db.create_schema("a")
        with pytest.raises(DuplicateObjectError):
            db.create_schema("a")

    def test_ensure_schema_idempotent(self):
        db = Database()
        s1 = db.ensure_schema("a")
        assert db.ensure_schema("a") is s1

    def test_unknown_schema(self):
        with pytest.raises(UnknownObjectError):
            Database().schema("nope")

    def test_drop_schema(self):
        db = Database()
        db.create_schema("a")
        db.drop_schema("a")
        assert not db.has_schema("a")
        with pytest.raises(UnknownObjectError):
            db.drop_schema("a")

    def test_invalid_schema_name(self):
        with pytest.raises(SchemaError):
            Database().create_schema("bad name")

    def test_duplicate_table_rejected(self):
        db = Database()
        schema = db.create_schema("modw")
        schema.create_table(jobs_table_schema())
        with pytest.raises(DuplicateObjectError):
            schema.create_table(jobs_table_schema())

    def test_drop_table(self):
        db = Database()
        schema = db.create_schema("modw")
        schema.create_table(jobs_table_schema())
        schema.drop_table("jobs")
        assert not schema.has_table("jobs")
        with pytest.raises(UnknownObjectError):
            schema.table("jobs")


class TestCrud:
    def test_insert_and_len(self, table):
        table.insert({"job_id": 1, "user": "u1", "cpu_hours": 2.0})
        table.insert({"job_id": 2, "user": "u2"})
        assert len(table) == 2

    def test_insert_many(self, table):
        n = table.insert_many(
            {"job_id": i, "user": f"u{i}"} for i in range(5)
        )
        assert n == 5 and len(table) == 5

    def test_duplicate_pk_rejected(self, table):
        table.insert({"job_id": 1, "user": "u1"})
        with pytest.raises(PrimaryKeyError):
            table.insert({"job_id": 1, "user": "other"})

    def test_get_by_key(self, table):
        table.insert({"job_id": 1, "user": "u1", "cpu_hours": 3.5})
        row = table.get((1,))
        assert row["user"] == "u1" and row["cpu_hours"] == 3.5
        assert table.get((99,)) is None

    def test_upsert_updates_in_place(self, table):
        table.insert({"job_id": 1, "user": "u1", "cpu_hours": 1.0})
        table.upsert({"job_id": 1, "user": "u1", "cpu_hours": 9.0})
        assert len(table) == 1
        assert table.get((1,))["cpu_hours"] == 9.0

    def test_update_where(self, table):
        table.insert_many(
            {"job_id": i, "user": "u1" if i < 3 else "u2"} for i in range(5)
        )
        n = table.update_where(
            lambda r: r["user"] == "u1", {"cpu_hours": 7.0}
        )
        assert n == 3
        assert all(
            r["cpu_hours"] == 7.0 for r in table.rows() if r["user"] == "u1"
        )

    def test_update_pk_collision_rejected(self, table):
        table.insert({"job_id": 1, "user": "a"})
        table.insert({"job_id": 2, "user": "b"})
        with pytest.raises(PrimaryKeyError):
            table.update_where(lambda r: r["job_id"] == 2, {"job_id": 1})

    def test_delete_where(self, table):
        table.insert_many({"job_id": i, "user": "u"} for i in range(4))
        assert table.delete_where(lambda r: r["job_id"] % 2 == 0) == 2
        assert sorted(r["job_id"] for r in table.rows()) == [1, 3]
        # deleted keys are reusable
        table.insert({"job_id": 0, "user": "u"})
        assert len(table) == 3

    def test_truncate(self, table):
        table.insert_many({"job_id": i, "user": "u"} for i in range(4))
        table.truncate()
        assert len(table) == 0
        assert table.get((1,)) is None


class TestChecksum:
    def test_checksum_order_independent(self):
        db = Database()
        s1 = db.create_schema("a")
        s2 = db.create_schema("b")
        t1 = s1.create_table(jobs_table_schema())
        t2 = s2.create_table(jobs_table_schema())
        rows = [{"job_id": i, "user": f"u{i}", "cpu_hours": float(i)} for i in range(10)]
        for r in rows:
            t1.insert(r)
        for r in reversed(rows):
            t2.insert(r)
        assert t1.checksum() == t2.checksum()

    def test_checksum_detects_content_change(self, table):
        table.insert({"job_id": 1, "user": "u", "cpu_hours": 1.0})
        before = table.checksum()
        table.update_where(lambda r: True, {"cpu_hours": 2.0})
        assert table.checksum() != before

    def test_schema_checksum_independent_of_schema_name(self):
        db = Database()
        for name in ("x", "y"):
            schema = db.create_schema(name)
            t = schema.create_table(jobs_table_schema())
            t.insert({"job_id": 1, "user": "u"})
        assert db.schema("x").checksum() == db.schema("y").checksum()


class TestApplyEvent:
    def test_full_replay_reproduces_tables(self):
        db = Database()
        source = db.create_schema("src")
        t = source.create_table(jobs_table_schema())
        t.insert({"job_id": 1, "user": "a", "cpu_hours": 1.0})
        t.insert({"job_id": 2, "user": "b", "cpu_hours": 2.0})
        t.update_where(lambda r: r["job_id"] == 1, {"cpu_hours": 5.0})
        t.delete_where(lambda r: r["job_id"] == 2)
        target = db.create_schema("dst")
        for event in source.binlog:
            target.apply_event(event)
        assert target.table("jobs").checksum() == t.checksum()

    def test_insert_event_is_idempotent_for_keyed_tables(self):
        db = Database()
        source = db.create_schema("src")
        t = source.create_table(jobs_table_schema())
        t.insert({"job_id": 1, "user": "a"})
        target = db.create_schema("dst")
        events = list(source.binlog)
        for event in events:
            target.apply_event(event)
        for event in events:  # replay everything again
            target.apply_event(event)
        assert len(target.table("jobs")) == 1

    def test_truncate_event(self):
        db = Database()
        source = db.create_schema("src")
        t = source.create_table(jobs_table_schema())
        t.insert({"job_id": 1, "user": "a"})
        t.truncate()
        target = db.create_schema("dst")
        for event in source.binlog:
            target.apply_event(event)
        assert len(target.table("jobs")) == 0

    def test_keyless_table_delete_by_row_image(self):
        schema_def = TableSchema(
            "log", make_columns([("msg", C.STR, False)])
        )
        db = Database()
        source = db.create_schema("src")
        t = source.create_table(schema_def)
        t.insert({"msg": "a"})
        t.insert({"msg": "b"})
        t.delete_where(lambda r: r["msg"] == "a")
        target = db.create_schema("dst")
        for event in source.binlog:
            target.apply_event(event)
        assert [r["msg"] for r in target.table("log").rows()] == ["b"]
