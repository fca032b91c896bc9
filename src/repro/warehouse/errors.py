"""Exception hierarchy for the embedded data warehouse.

Every error raised by :mod:`repro.warehouse` derives from
:class:`WarehouseError`, so callers can catch one type to shield against any
storage-layer failure.
"""

from __future__ import annotations


class WarehouseError(Exception):
    """Base class for all warehouse errors."""


class SchemaError(WarehouseError):
    """A schema, table, or column definition is invalid or missing."""


class DuplicateObjectError(SchemaError):
    """Attempted to create a schema/table that already exists."""


class UnknownObjectError(SchemaError):
    """Referenced a schema/table/column that does not exist."""


class IntegrityError(WarehouseError):
    """A constraint was violated (type, nullability, primary key)."""


class TypeMismatchError(IntegrityError):
    """A value does not conform to its column's declared type."""


class PrimaryKeyError(IntegrityError):
    """Duplicate or missing primary key."""


class BinlogError(WarehouseError):
    """Binary-log corruption, bad LSN range, or replay failure."""


class DumpError(WarehouseError):
    """Dump/load (serialization) failure."""
