"""Embedded data warehouse: the MySQL-equivalent substrate under XDMoD.

Public surface:

- :class:`Database`, :class:`Schema`, :class:`Table` — storage engine
- :class:`TableSchema`, :class:`Column`, :class:`ColumnType` — catalog types
- :class:`Query`, :class:`P`, :class:`Agg`, :func:`hash_join` — query engine
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
    QueryError,
    SchemaError,
    TypeMismatchError,
    UnknownObjectError,
    WarehouseError,
)
from .query import Agg, AggSpec, P, Predicate, Query, hash_join
from .schema import Column, ColumnType, TableSchema, make_columns

__all__ = [
    "Agg",
    "AggSpec",
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
    "P",
    "Predicate",
    "PrimaryKeyError",
    "Query",
    "QueryError",
    "Schema",
    "SchemaError",
    "Table",
    "TableSchema",
    "TypeMismatchError",
    "UnknownObjectError",
    "WarehouseError",
    "dump_schema",
    "hash_join",
    "load_database",
    "load_schema",
    "make_columns",
    "read_dump_file",
    "row_event_filter",
    "save_database",
    "snapshot_info",
    "write_dump_file",
]
