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
