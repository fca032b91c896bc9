"""Embedded data warehouse: the MySQL-equivalent substrate under XDMoD.

Public surface:

- :class:`Database`, :class:`Schema`, :class:`Table` — storage engine;
  filters and group-bys read :meth:`Table.column_arrays` and reduce with
  :func:`repro.aggregation.group_reduce` (there is no row-level query API)
- :class:`TableSchema`, :class:`Column`, :class:`ColumnType` — catalog types
- :class:`Binlog`, :class:`BinlogCursor`, :class:`BinlogEvent`,
  :class:`EventType` — change-data-capture used by federation
- :func:`dump_schema` / :func:`load_schema` and the dump-file helpers —
  loose federation and backup transport
"""

from .binlog import Binlog, BinlogCursor, BinlogEvent, EventType, row_event_filter
from .dump import (
    dump_schema,
    load_schema,
    read_dump_file,
    write_dump_file,
)
from .engine import Database, Schema, Table
from .persist import load_database, save_database, snapshot_info
from .errors import (
    BinlogError,
    DumpError,
    DuplicateObjectError,
    IntegrityError,
    PrimaryKeyError,
    SchemaError,
    TypeMismatchError,
    UnknownObjectError,
    WarehouseError,
)
from .schema import Column, ColumnType, TableSchema, make_columns

__all__ = [
    "Binlog",
    "BinlogCursor",
    "BinlogEvent",
    "BinlogError",
    "Column",
    "ColumnType",
    "Database",
    "DumpError",
    "DuplicateObjectError",
    "EventType",
    "IntegrityError",
    "PrimaryKeyError",
    "Schema",
    "SchemaError",
    "Table",
    "TableSchema",
    "TypeMismatchError",
    "UnknownObjectError",
    "WarehouseError",
    "dump_schema",
    "load_database",
    "load_schema",
    "make_columns",
    "read_dump_file",
    "row_event_filter",
    "save_database",
    "snapshot_info",
    "write_dump_file",
]
