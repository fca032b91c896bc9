"""Storage engine: CRUD, keys, checksums, event application, column cache."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs import MetricsRegistry
from repro.warehouse import Column, ColumnType, Database, DuplicateObjectError, EventType, PrimaryKeyError, SchemaError, TableSchema, TypeMismatchError, UnknownObjectError, make_columns
from tests.conftest import property_settings

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

    def test_upsert_columns_inserts_a_batch(self, table):
        n = table.upsert_columns(
            {"job_id": list(range(5)), "user": [f"u{i}" for i in range(5)]}
        )
        assert n == 5 and len(table) == 5
        assert table.get((3,))["user"] == "u3"

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
        table.upsert_columns(
            {"job_id": list(range(5)), "user": ["u1"] * 3 + ["u2"] * 2}
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
        table.upsert_columns({"job_id": list(range(4)), "user": ["u"] * 4})
        assert table.delete_where(lambda r: r["job_id"] % 2 == 0) == 2
        assert sorted(r["job_id"] for r in table.rows()) == [1, 3]
        # deleted keys are reusable
        table.insert({"job_id": 0, "user": "u"})
        assert len(table) == 3

    def test_delete_key_is_delete_where_on_the_key(self, table):
        """Same row gone, same version bump, same ``DELETE`` event — found
        through the primary-key index, not a scan."""
        twin = Database().create_schema("modw").create_table(jobs_table_schema())
        for t in (table, twin):
            t.upsert_columns({"job_id": list(range(4)), "user": ["u"] * 4})
        assert table.delete_key((2,)) is True
        assert twin.delete_where(lambda r: r["job_id"] == 2) == 1
        assert table.delete_key([2]) is False  # already gone: nothing happens
        assert list(table.raw_rows()) == list(twin.raw_rows())
        assert table.data_version == twin.data_version
        assert table._owner.binlog.checksum() == twin._owner.binlog.checksum()
        assert table.get((2,)) is None
        table.insert({"job_id": 2, "user": "back"})  # the key is free again
        assert len(table) == 4

    def test_delete_key_needs_a_primary_key(self):
        log = Database().create_schema("modw").create_table(
            TableSchema("log", make_columns([("msg", C.STR, False)]))
        )
        with pytest.raises(SchemaError):
            log.delete_key(("a",))

    def test_truncate(self, table):
        table.upsert_columns({"job_id": list(range(4)), "user": ["u"] * 4})
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

    def test_key_changing_update_moves_the_row_on_replay(self):
        """A replica that replays a primary-key change ends with the row
        under its new key only (replication fidelity, DESIGN §5
        invariant 1) — also when the old key is then taken again, and
        when the whole log is delivered twice."""
        db = Database()
        source = db.create_schema("src")
        t = source.create_table(jobs_table_schema())
        t.insert({"job_id": 1, "user": "a", "cpu_hours": 1.0})
        t.insert({"job_id": 2, "user": "b", "cpu_hours": 2.0})
        t.update_where(lambda r: r["job_id"] == 1, {"job_id": 7, "cpu_hours": 5.0})
        target = db.create_schema("dst")
        for event in source.binlog:
            target.apply_event(event)
        replica = target.table("jobs")
        assert sorted(replica.raw_rows()) == sorted(t.raw_rows())
        assert replica.get((1,)) is None
        assert replica.checksum() == t.checksum()
        t.insert({"job_id": 1, "user": "c"})
        for event in source.binlog:  # redelivery from LSN 0
            target.apply_event(event)
        assert replica.checksum() == t.checksum()
        assert len(replica) == 3

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

    def test_replicated_delete_and_key_change_never_scan(self, monkeypatch):
        """A keyed ``DELETE`` and a key-changing ``UPDATE`` go through the
        primary-key index (``Table.delete_key``), not ``delete_where``."""
        source = Database().create_schema("src")
        t = source.create_table(jobs_table_schema())
        t.upsert_columns({"job_id": list(range(6)), "user": ["u"] * 6})
        t.delete_where(lambda r: r["job_id"] == 2)
        t.update_where(lambda r: r["job_id"] == 3, {"job_id": 30})
        target = Database().create_schema("dst")

        def no_scan(self, predicate):
            raise AssertionError("replicated delete scanned the table")

        monkeypatch.setattr(type(t), "delete_where", no_scan)
        for event in source.binlog:
            target.apply_event(event)
        assert sorted(target.table("jobs").raw_rows()) == sorted(t.raw_rows())

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


# -- the batch write equals the row-by-row writes it replaces -------------------


def batch_table_schema(keyed: bool) -> TableSchema:
    return TableSchema(
        "batch",
        (
            Column("k1", C.INT, nullable=False),
            Column("k2", C.STR, nullable=False),
            Column("f", C.FLOAT),
            Column("n", C.INT, default=5),
            Column("at", C.TIMESTAMP),
            Column("flag", C.BOOL),
            Column("doc", C.JSON),
        ),
        primary_key=("k1", "k2") if keyed else (),
    )


#: per column, values ``upsert`` accepts — a small key domain, so a batch
#: repeats keys within itself and hits keys already stored
BATCH_VALUES = {
    "k1": st.integers(0, 3),
    "k2": st.sampled_from(["a", "b"]),
    "f": st.one_of(st.none(), st.integers(-3, 3), st.floats(allow_nan=False, width=32)),
    "n": st.one_of(st.none(), st.integers(-9, 9), st.sampled_from([2.0, -4.0])),
    "at": st.one_of(st.none(), st.integers(0, 2**40)),
    "flag": st.one_of(st.none(), st.booleans()),
    "doc": st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=2),
                     st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3))),
}
OPTIONAL_COLUMNS = ["f", "n", "at", "flag", "doc"]


@st.composite
def column_batches(draw, max_rows=8):
    """A column batch: the key columns plus any subset of the rest, each
    column a list or a NumPy array (typed when NumPy can, else object)."""
    n_rows = draw(st.integers(0, max_rows))
    names = ["k1", "k2"] + draw(st.lists(st.sampled_from(OPTIONAL_COLUMNS), unique=True))
    batch = {}
    for name in draw(st.permutations(names)):
        values = draw(st.lists(BATCH_VALUES[name], min_size=n_rows, max_size=n_rows))
        if name != "doc" and draw(st.booleans()):
            typed = np.array(values)
            values = typed if typed.ndim == 1 else np.array(values, dtype=object)
        batch[name] = values
    return batch


def batch_rows(batch):
    """The batch as the row dicts a caller of ``upsert`` would pass."""
    plain = {
        name: col.tolist() if isinstance(col, np.ndarray) else col
        for name, col in batch.items()
    }
    return [dict(zip(plain, values)) for values in zip(*plain.values())]


def twin_tables(keyed: bool):
    tables = []
    for _ in range(2):
        registry = MetricsRegistry()
        schema = Database(metrics=registry).create_schema("modw")
        tables.append((schema.create_table(batch_table_schema(keyed)), registry))
    return tables


def observable_state(table, registry):
    schema = table._owner
    return {
        "rows": list(table.raw_rows()),
        "row_types": [[type(v) for v in row] for row in table.raw_rows()],
        "len": len(table),
        "table_version": table.data_version,
        "schema_version": schema.data_version,
        "binlog": schema.binlog.checksum(),
        "events_total": registry.value("warehouse_binlog_events_total", schema="modw"),
        "columns": {  # as text: a NULL reads back as NaN, which is not == itself
            name: (array.dtype, repr(array.tolist()))
            for name, array in table.column_arrays(["k1", "k2", "f", "n", "flag"]).items()
        },
    }


class TestUpsertColumns:
    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "keyless"])
    @given(stored=column_batches(), batch=column_batches(), again=column_batches(max_rows=3))
    def test_batch_equals_sequential_upserts(self, keyed, stored, batch, again):
        (batched, batched_metrics), (looped, looped_metrics) = twin_tables(keyed)
        write = looped.upsert if keyed else looped.insert
        for table in (batched, looped):
            for row in batch_rows(stored):
                table.upsert(row)
            table.delete_where(lambda r: r["k1"] == 0)  # leave tombstones behind
            table.column_arrays(["k1", "f"])  # a warm cache the write must drop
        for columns in (batch, again):
            assert batched.upsert_columns(columns) == len(batch_rows(columns))
            for row in batch_rows(columns):
                write(row)
            assert observable_state(batched, batched_metrics) == observable_state(
                looped, looped_metrics
            )
        if keyed:
            for key in itertools.product(range(4), "ab"):
                assert batched.get(key) == looped.get(key)

    def test_rows_come_back_as_plain_python_values(self, table):
        table.upsert_columns({
            "job_id": np.array([1, 2]),
            "user": np.array(["a", "b"]),
            "cpu_hours": np.array([1, 2], dtype=np.int64),
        })
        assert list(table.raw_rows()) == [(1, "a", 1.0), (2, "b", 2.0)]
        assert [[type(v) for v in row] for row in table.raw_rows()] == [[int, str, float]] * 2
        assert [e.data["row"] for e in table._owner.binlog if e.etype is EventType.INSERT] == [
            {"job_id": 1, "user": "a", "cpu_hours": 1.0},
            {"job_id": 2, "user": "b", "cpu_hours": 2.0},
        ]

    @pytest.mark.parametrize("columns", [{}, {"job_id": [], "user": np.array([], dtype=object)}])
    def test_empty_batch_writes_nothing(self, table, columns):
        """No row, no event and no version bump: a fold with nothing new
        leaves the serving cache alone."""
        table.insert({"job_id": 1, "user": "a"})
        schema = table._owner
        before = (table.data_version, schema.data_version, schema.binlog.checksum())
        assert table.upsert_columns(columns) == 0
        assert (table.data_version, schema.data_version, schema.binlog.checksum()) == before

    @pytest.mark.parametrize("bad_row, error", [
        ({"job_id": 3, "user": 7, "cpu_hours": 1.0}, TypeMismatchError),
        ({"job_id": True, "user": "u", "cpu_hours": 1.0}, TypeMismatchError),
        ({"job_id": 3, "user": "u", "cpu_hours": "1.0"}, TypeMismatchError),
        ({"job_id": 3.5, "user": "u", "cpu_hours": 1.0}, TypeMismatchError),
        ({"job_id": 3, "user": None, "cpu_hours": 1.0}, TypeMismatchError),
        ({"job_id": None, "user": "u", "cpu_hours": 1.0}, TypeMismatchError),
    ], ids=["str-type", "bool-as-int", "float-type", "fractional-int", "null-required", "null-key"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_a_bad_value_anywhere_rejects_the_whole_batch(self, table, bad_row, error, position):
        rows = [
            {"job_id": 1, "user": "a", "cpu_hours": 1.0},
            {"job_id": 2, "user": "b", "cpu_hours": 2.0},
        ]
        rows.insert(position, bad_row)
        with pytest.raises(error):
            table.upsert(bad_row)
        self.assert_rejected_untouched(
            table, {name: [row[name] for row in rows] for name in rows[0]}, error
        )

    def test_omitted_required_column_rejects_the_batch(self, table):
        with pytest.raises(TypeMismatchError):
            table.upsert({"job_id": 1})
        self.assert_rejected_untouched(table, {"job_id": [1, 2]}, TypeMismatchError)

    def test_unknown_column_rejects_the_batch(self, table):
        with pytest.raises(SchemaError):
            table.upsert({"job_id": 1, "user": "a", "nope": 0})
        self.assert_rejected_untouched(
            table, {"job_id": [1], "user": ["a"], "nope": [0]}, SchemaError
        )

    def test_ragged_columns_reject_the_batch(self, table):
        self.assert_rejected_untouched(
            table, {"job_id": [1, 2], "user": np.array(["a"], dtype=object)}, SchemaError
        )

    @staticmethod
    def assert_rejected_untouched(table, columns, error):
        schema = table._owner
        table.insert({"job_id": 1, "user": "kept", "cpu_hours": 9.0})
        table.column_array("job_id")
        before = (
            list(table.raw_rows()), table.data_version, schema.data_version,
            schema.binlog.checksum(), dict(table._columnar_cache),
        )
        with pytest.raises(error):
            table.upsert_columns(columns)
        assert (
            list(table.raw_rows()), table.data_version, schema.data_version,
            schema.binlog.checksum(), dict(table._columnar_cache),
        ) == before


# -- the column cache equals a conversion from scratch --------------------------


CACHED = ["k1", "k2", "f", "n", "at", "flag"]
VERBS = [
    "insert", "upsert", "upsert_columns", "apply_events",
    "update_where", "delete_where", "delete_key", "truncate",
]


def converted(table, name):
    """``name``'s live values converted from scratch, typed as
    ``Table.column_array`` documents."""
    values = [row[table.schema.position(name)] for row in table.raw_rows()]
    ctype = table.schema.column(name).ctype
    if ctype in (C.INT, C.TIMESTAMP, C.FLOAT):
        nullable = any(v is None for v in values) or ctype is C.FLOAT
        return np.array(
            [np.nan if v is None else v for v in values],
            dtype=np.float64 if nullable else np.int64,
        )
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def assert_cache_fresh(table):
    for name, got in table.column_arrays(CACHED).items():
        want = converted(table, name)
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:  # NaN positions included
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestColumnCache:
    """An append extends the cached arrays, every other write clears them:
    whatever the writes, a read equals converting the live rows afresh."""

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "keyless"])
    @property_settings(60)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(VERBS), column_batches(max_rows=4),
                  st.integers(0, 3), st.booleans()),
        max_size=12,
    ))
    def test_reads_equal_a_conversion_from_scratch(self, keyed, ops):
        schema = Database().create_schema("modw")
        table = schema.create_table(batch_table_schema(keyed))
        for verb, batch, k, read in ops:
            rows = batch_rows(batch)
            if verb == "insert":
                for row in rows:
                    with contextlib.suppress(PrimaryKeyError):
                        table.insert(row)
            elif verb == "upsert":
                for row in rows:
                    table.upsert(row)
            elif verb == "upsert_columns":
                table.upsert_columns(batch)
            elif verb == "apply_events":  # the hub's batched apply
                source = Database().create_schema("src")
                source.create_table(batch_table_schema(keyed)).upsert_columns(batch)
                schema.apply_events([
                    e for e in source.binlog if e.etype is EventType.INSERT
                ])
            elif verb == "update_where":
                table.update_where(lambda r, k=k: r["k1"] == k, {"f": k / 2, "n": None})
            elif verb == "delete_where":
                table.delete_where(lambda r, k=k: r["k1"] == k)
            elif verb == "delete_key" and keyed:
                table.delete_key((k, "a"))
            elif verb == "truncate":
                table.truncate()
            if read:
                assert_cache_fresh(table)
        assert_cache_fresh(table)

    def test_first_null_in_an_appended_tail_turns_an_int_column_float(self):
        table = Database().create_schema("modw").create_table(batch_table_schema(True))
        table.insert({"k1": 0, "k2": "a", "n": 7})
        assert table.column_array("n").dtype == np.int64
        table.upsert_columns({"k1": [1, 2], "k2": ["a", "a"], "n": [None, 3]})
        got = table.column_array("n")
        assert got.dtype == np.float64
        assert got[0] == 7.0 and np.isnan(got[1]) and got[2] == 3.0
        assert_cache_fresh(table)

    def test_an_append_extends_the_cache_and_an_update_clears_it(self):
        table = Database().create_schema("modw").create_table(batch_table_schema(True))
        table.upsert_columns({"k1": [0, 1], "k2": ["a", "a"], "f": [0.5, 1.5]})
        head = table.column_array("f")
        table.insert({"k1": 2, "k2": "a", "f": 2.5})
        assert table._columnar_cache["f"][2] is head  # kept: only extended on read
        assert table.column_array("f").tolist() == [0.5, 1.5, 2.5]
        table.upsert({"k1": 0, "k2": "a", "f": 9.0})
        assert table._columnar_cache == {}
        assert table.column_array("f").tolist() == [9.0, 1.5, 2.5]
