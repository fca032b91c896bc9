"""Schema dump/load and binlog segments: the transport for loose
federation and backups.

The paper's "loose" federation ships *database dumps or log files*
periodically to the hub instead of live binlog replication.  A dump here is
a JSON-serializable document: schema catalog + all row data + the binlog
head position at dump time (so a hub can later switch a loose channel to
tight replication without gaps — the dump records where the binlog cursor
should start).  A *segment* (:func:`segment_document`) is the log-file
form: the records of one schema's binlog between two positions (a batch
record's column names once, then its rows), which a hub that already
holds everything before the first applies on top.  Segments have their
own format version: saved dumps stay loadable.

Integrity: every dump carries a content checksum (:func:`dump_checksum`)
computed purely from the document, matching what
:meth:`~repro.warehouse.engine.Schema.checksum` would report for the
materialized schema, and a header checksum over the rest (format, kind,
schema name, binlog head, trace).  :func:`load_schema` verifies both
*before* touching the target database, so a damaged shipment is rejected
outright — never half-loaded over the previous good copy, nor loaded with
a wrong head.  A segment's checksum covers the whole document, and
:func:`segment_records` verifies it, then decodes every record, refusing
one no log could hold, before handing over a single one.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .binlog import BinlogEvent, RowBatch
from .engine import Database, Schema, Table, rows_checksum
from .errors import BinlogError, DumpError
from .schema import TableSchema

DUMP_FORMAT_VERSION = 1
SEGMENT_FORMAT_VERSION = 2

#: the ``kind`` of a segment document (a dump document has no ``kind``)
SEGMENT_KIND = "binlog_segment"

_encode_document = json.JSONEncoder(sort_keys=True, default=str).encode


def _header_checksum(dump: dict[str, Any]) -> str:
    """Digest of the keys of a dump outside its content."""
    keys = ("format_version", "kind", "schema_name", "binlog_head", "trace")
    return hashlib.sha256(_encode_document([dump.get(k) for k in keys]).encode()).hexdigest()


def _verify_header(dump: dict[str, Any]) -> None:
    if _header_checksum(dump) != dump.get("header_checksum"):
        raise DumpError(f"dump of {dump.get('schema_name')!r} failed header verification")


def dump_checksum(dump: dict[str, Any]) -> str:
    """Content checksum of a dump document.

    Equals :meth:`Schema.checksum` of the schema the dump describes —
    whether computed satellite-side before shipping or hub-side after —
    so the two sides can agree on integrity without materializing
    anything.  Filtered dumps (loose federation's resource routing)
    recompute this over the *filtered* content.
    """
    h = hashlib.sha256()
    entries = sorted(dump["tables"], key=lambda e: e["schema"]["name"])
    for entry in entries:
        h.update(entry["schema"]["name"].encode())
        h.update(rows_checksum(entry["rows"]).encode())
    return h.hexdigest()


def dump_schema(
    schema: Schema,
    *,
    select: Callable[[Table], Iterable[Sequence[Any]] | None] | None = None,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialize one schema to a plain dict (tables, rows, binlog head).

    ``select`` makes a filtered dump: called with each table, it returns
    the rows of that table to dump, or ``None`` to leave the table out.
    Without it every table is dumped whole.  The content checksum is
    computed once, over exactly the rows the document holds.  ``trace``,
    a trace context payload, goes into the header with the binlog head.
    """
    tables = []
    for name in schema.table_names():
        table = schema.table(name)
        rows = table.raw_rows() if select is None else select(table)
        if rows is None:
            continue
        tables.append(
            {
                "schema": table.schema.to_dict(),
                "rows": [list(row) for row in rows],
            }
        )
    dump = {
        "format_version": DUMP_FORMAT_VERSION,
        "schema_name": schema.name,
        "binlog_head": schema.binlog.head_lsn,
        "tables": tables,
    }
    if trace is not None:
        dump["trace"] = trace
    dump["checksum"] = dump_checksum(dump)
    dump["header_checksum"] = _header_checksum(dump)
    return dump


def load_schema(
    database: Database,
    dump: dict[str, Any],
    *,
    rename_to: str | None = None,
    replace: bool = False,
    verify_checksum: bool = True,
) -> Schema:
    """Materialize a dump into ``database``.

    ``rename_to`` applies the federation hub's schema-renaming convention
    (e.g. satellite ``modw`` becomes ``fed_siteA`` on the hub).  With
    ``replace=True`` an existing schema of the target name is dropped first
    (periodic loose-federation refresh).

    With ``verify_checksum`` (the default) the dump's header and content
    checksums are verified *before* any existing schema is dropped or any
    row inserted: a corrupt dump raises :class:`DumpError` and leaves the
    database — including the previous shipment — untouched.
    """
    version = dump.get("format_version")
    if version != DUMP_FORMAT_VERSION:
        raise DumpError(f"unsupported dump format version {version!r}")
    if "tables" not in dump:
        raise DumpError(
            f"{dump.get('kind', 'document')!r} of {dump.get('schema_name')!r} "
            "is not a dump"
        )
    if verify_checksum:
        _verify_header(dump)
        if dump_checksum(dump) != dump.get("checksum"):
            raise DumpError(f"dump of {dump.get('schema_name')!r} failed checksum verification")
    target = rename_to or dump["schema_name"]
    if database.has_schema(target):
        if not replace:
            raise DumpError(f"schema {target!r} already exists (use replace=True)")
        database.drop_schema(target)
    schema = database.create_schema(target)
    try:
        for entry in dump["tables"]:
            table_schema = TableSchema.from_dict(entry["schema"])
            table = schema.create_table(table_schema)
            # one batch per table; an upsert would fold a repeated key
            table.upsert_rows(table_schema.column_names, entry["rows"])
            if len(table) != len(entry["rows"]):
                raise DumpError(f"table {table.name!r}: duplicate primary key")
    except Exception as exc:
        # malformed row data mid-load: never leave a partial schema behind
        database.drop_schema(target)
        raise DumpError(
            f"dump of {dump.get('schema_name')!r} failed to load: {exc}"
        ) from exc
    return schema


def segment_document(
    schema_name: str,
    base_lsn: int,
    binlog_head: int,
    records: Sequence[BinlogEvent | RowBatch],
    *,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A checksummed binlog segment: ``records`` (as
    :meth:`Binlog.read_records` returns them, or a filtered subset) from
    the log of ``schema_name`` between ``base_lsn`` and ``binlog_head``
    (the position after the last event read, as a dump's is).  The
    checksum covers every other key of the document, ``trace`` included.
    """
    segment: dict[str, Any] = {
        "format_version": SEGMENT_FORMAT_VERSION,
        "kind": SEGMENT_KIND,
        "schema_name": schema_name,
        "base_lsn": base_lsn,
        "binlog_head": binlog_head,
        "records": [record.to_dict() for record in records],
    }
    if trace is not None:
        segment["trace"] = trace
    segment["checksum"] = _segment_checksum(segment)
    return segment


def _segment_checksum(segment: dict[str, Any]) -> str:
    """Digest of a segment document, its ``checksum`` key left out."""
    body = {key: value for key, value in segment.items() if key != "checksum"}
    return hashlib.sha256(_encode_document(body).encode()).hexdigest()


def segment_records(segment: dict[str, Any]) -> list[BinlogEvent | RowBatch]:
    """Verify a segment document and decode its records.

    Raises :class:`DumpError` — before any record is returned, so before
    any is applied — when the document is not a segment of this format,
    its checksum does not match its content, or a record is not one the
    log could hold, in LSN order within ``[base_lsn, binlog_head)``.
    """
    name, version = segment.get("schema_name"), segment.get("format_version")
    if segment.get("kind") != SEGMENT_KIND or version != SEGMENT_FORMAT_VERSION:
        raise DumpError(f"document of {name!r} is no binlog segment of format {version!r}")
    if _segment_checksum(segment) != segment.get("checksum"):
        raise DumpError(f"segment of {name!r} failed checksum verification")
    records: list[BinlogEvent | RowBatch] = []
    try:
        lsn, head = segment["base_lsn"], segment["binlog_head"]
        for payload in segment["records"]:
            record = (RowBatch if "rows" in payload else BinlogEvent).from_dict(payload)
            first = record.lsn if type(record) is BinlogEvent else record.base
            stop = first + (1 if type(record) is BinlogEvent else len(record.rows))
            if not lsn <= first < stop <= head:
                raise BinlogError(f"LSNs [{first}, {stop}) out of order or past {head}")
            records.append(record)
            lsn = stop
    except (BinlogError, KeyError, TypeError, ValueError) as exc:
        raise DumpError(f"segment of {name!r} holds a bad record: {exc}") from exc
    return records


def write_dump_file(
    dump_or_schema: Schema | dict[str, Any],
    path: str | Path,
    *,
    compress: bool = True,
) -> Path:
    """Write a schema (or an already-built dump document) to disk.

    Accepting the document form lets loose federation ship *filtered*
    dumps through the same code path as whole-schema backups.
    """
    path = Path(path)
    dump = (
        dump_or_schema
        if isinstance(dump_or_schema, dict)
        else dump_schema(dump_or_schema)
    )
    payload = json.dumps(dump, default=str).encode()
    if compress:
        path.write_bytes(gzip.compress(payload))
    else:
        path.write_bytes(payload)
    return path


def read_dump_file(path: str | Path) -> dict[str, Any]:
    """Read a dump written by :func:`write_dump_file` (auto-detects gzip).

    Any form of file damage — broken gzip framing, truncation, invalid
    JSON, a non-object payload, a dump header that fails its checksum —
    surfaces as :class:`DumpError`.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise DumpError(f"corrupt dump file {path}: {exc}") from exc
    try:
        dump = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DumpError(f"corrupt dump file {path}: {exc}") from exc
    if not isinstance(dump, dict):
        raise DumpError(f"corrupt dump file {path}: not a dump document")
    if dump.get("kind") != SEGMENT_KIND:  # a segment's checksum covers it all
        _verify_header(dump)
    return dump
