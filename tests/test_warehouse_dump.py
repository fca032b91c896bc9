"""Dump/load: the loose-federation and backup transport."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.warehouse import (
    ColumnType,
    Database,
    DumpError,
    TableSchema,
    dump_schema,
    load_schema,
    make_columns,
    read_dump_file,
    write_dump_file,
)

C = ColumnType


def populated_schema(db: Database, name: str = "modw"):
    schema = db.create_schema(name)
    t = schema.create_table(
        TableSchema(
            "jobs",
            make_columns([
                ("job_id", C.INT, False),
                ("user", C.STR, False),
                ("payload", C.JSON),
            ]),
            primary_key=("job_id",),
        )
    )
    for i in range(20):
        t.insert({"job_id": i, "user": f"u{i % 3}", "payload": {"tags": [i]}})
    return schema


class TestDumpLoad:
    def test_round_trip_preserves_contents(self):
        db = Database()
        schema = populated_schema(db)
        dump = dump_schema(schema)
        db2 = Database()
        loaded = load_schema(db2, dump)
        assert loaded.checksum() == schema.checksum()
        assert loaded.table("jobs").schema == schema.table("jobs").schema

    def test_dump_written_with_secondary_indexes_still_loads(self):
        schema = populated_schema(Database())
        dump = dump_schema(schema)
        for entry in dump["tables"]:
            entry["schema"]["indexes"] = ["user"]
        loaded = load_schema(Database(), dump)
        assert loaded.checksum() == schema.checksum()
        assert loaded.table("jobs").schema == schema.table("jobs").schema

    def test_rename_on_load(self):
        db = Database()
        schema = populated_schema(db)
        db2 = Database()
        loaded = load_schema(db2, dump_schema(schema), rename_to="fed_site")
        assert loaded.name == "fed_site"
        # contents identical even though the name changed
        assert loaded.checksum() == schema.checksum()

    def test_existing_schema_requires_replace(self):
        db = Database()
        schema = populated_schema(db)
        db2 = Database()
        load_schema(db2, dump_schema(schema))
        with pytest.raises(DumpError):
            load_schema(db2, dump_schema(schema))
        load_schema(db2, dump_schema(schema), replace=True)  # ok

    def test_checksum_verification_catches_tampering(self):
        db = Database()
        schema = populated_schema(db)
        dump = dump_schema(schema)
        dump["tables"][0]["rows"][0][1] = "tampered"
        db2 = Database()
        with pytest.raises(DumpError):
            load_schema(db2, dump)

    @pytest.mark.parametrize("damage", [
        lambda rows: rows.append(list(rows[3])),       # duplicate primary key
        lambda rows: rows[7].pop(),                    # ragged: a row too short
        lambda rows: rows[7].append("extra"),          # ragged: a row too long
        lambda rows: rows[7].__setitem__(1, 99),       # a value the column refuses
        lambda rows: rows[7].__setitem__(0, None),     # NULL primary key
    ], ids=["duplicate-key", "short-row", "long-row", "bad-type", "null-key"])
    def test_malformed_rows_raise_and_leave_no_partial_schema(self, damage):
        """One batch per table: still every check the row-by-row load made,
        and a failure mid-dump drops what was already loaded."""
        source = populated_schema(Database())
        extra = source.create_table(
            TableSchema("first", make_columns([("n", C.INT, False)]), ("n",))
        )
        extra.insert({"n": 1})
        dump = json.loads(json.dumps(dump_schema(source)))
        assert [e["schema"]["name"] for e in dump["tables"]] == ["first", "jobs"]
        damage(dump["tables"][1]["rows"])
        db = Database()
        with pytest.raises(DumpError) as error:
            load_schema(db, dump, verify_checksum=False)
        assert "failed to load" in str(error.value)
        assert db.schema_names() == []

    def test_load_lands_each_table_as_one_batch(self):
        source = populated_schema(Database())
        loaded = load_schema(Database(), dump_schema(source))
        jobs = loaded.table("jobs")
        assert list(jobs.raw_rows()) == list(source.table("jobs").raw_rows())
        assert jobs.data_version == source.table("jobs").data_version
        # same events as the row-by-row load logged: one INSERT per row
        assert loaded.binlog.checksum() == source.binlog.checksum()
        assert jobs.get((7,))["payload"] == {"tags": [7]}
        empty = Database().create_schema("empty")
        empty.create_table(source.table("jobs").schema)
        assert len(load_schema(Database(), dump_schema(empty)).table("jobs")) == 0

    def test_bad_format_version(self):
        db = Database()
        dump = dump_schema(populated_schema(db))
        dump["format_version"] = 99
        with pytest.raises(DumpError):
            load_schema(Database(), dump)

    def test_dump_records_binlog_head(self):
        db = Database()
        schema = populated_schema(db)
        dump = dump_schema(schema)
        assert dump["binlog_head"] == schema.binlog.head_lsn


class TestDumpFiles:
    def test_file_round_trip_gzip(self, tmp_path):
        db = Database()
        schema = populated_schema(db)
        path = write_dump_file(schema, tmp_path / "dump.json.gz")
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        dump = read_dump_file(path)
        loaded = load_schema(Database(), dump)
        assert loaded.checksum() == schema.checksum()

    def test_file_round_trip_plain(self, tmp_path):
        db = Database()
        schema = populated_schema(db)
        path = write_dump_file(schema, tmp_path / "dump.json", compress=False)
        json.loads(path.read_text())  # plain JSON on disk
        loaded = load_schema(Database(), read_dump_file(path))
        assert loaded.checksum() == schema.checksum()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"not json at all{{{")
        with pytest.raises(DumpError):
            read_dump_file(path)

    def test_corrupt_gzip_payload(self, tmp_path):
        path = tmp_path / "bad.json.gz"
        path.write_bytes(gzip.compress(b"nope["))
        with pytest.raises(DumpError):
            read_dump_file(path)
