"""Typed schema definitions for the embedded data warehouse.

The warehouse models the subset of a relational catalog that Open XDMoD
actually relies on: named schemas (databases), tables with typed, possibly
nullable columns, and a single- or multi-column primary key.  Types are
deliberately few — the XDMoD data warehouse stores integers, floats,
strings, booleans, epoch timestamps, and JSON blobs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, TypeMismatchError


class ColumnType(enum.Enum):
    """Column storage types supported by the warehouse."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    TIMESTAMP = "timestamp"  # stored as int epoch seconds
    JSON = "json"  # stored as an arbitrary JSON-serializable value

    def validate(self, value: Any, *, column: str = "?") -> Any:
        """Coerce/validate ``value`` for this type, returning the stored form.

        Raises :class:`TypeMismatchError` when the value cannot be stored.
        """
        if value is None:
            return None
        if self in (ColumnType.INT, ColumnType.TIMESTAMP):
            if isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {column!r}: bool is not a valid {self.value}"
                )
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise TypeMismatchError(
                f"column {column!r}: {value!r} is not a valid {self.value}"
            )
        if self is ColumnType.FLOAT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"column {column!r}: bool is not a float")
            if isinstance(value, (int, float)):
                return float(value)
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a float")
        if self is ColumnType.STR:
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a str")
        if self is ColumnType.BOOL:
            if isinstance(value, bool):
                return value
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a bool")
        if self is ColumnType.JSON:
            try:
                json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise TypeMismatchError(
                    f"column {column!r}: value is not JSON-serializable: {exc}"
                ) from exc
            return value
        raise AssertionError(f"unhandled column type {self}")  # pragma: no cover


#: A value of exactly this Python type is what :meth:`ColumnType.validate`
#: would return for it, so :meth:`TableSchema.check_rows` stores it without
#: the call (``bool`` is not ``int`` here: the test is on the exact type).
_STORED_AS_IS: dict[ColumnType, type] = {
    ColumnType.INT: int,
    ColumnType.TIMESTAMP: int,
    ColumnType.FLOAT: float,
    ColumnType.STR: str,
    ColumnType.BOOL: bool,
}

_NONE = type(None)


class CheckedRows(NamedTuple):
    """A batch :meth:`TableSchema.check_rows` accepted: the tuples the
    table stores, in schema order.  Only the validator makes one, and
    :meth:`Table.write <repro.warehouse.engine.Table.write>` writes one
    without another look."""

    schema: "TableSchema"
    rows: list[tuple[Any, ...]]


@dataclass(frozen=True)
class Column:
    """A single typed column.

    Parameters
    ----------
    name:
        Column name; must be a valid identifier-ish string.
    ctype:
        One of :class:`ColumnType`.
    nullable:
        Whether NULL (``None``) is allowed.  Primary-key columns are always
        implicitly non-nullable.
    default:
        Value used when an insert omits the column.  ``None`` with
        ``nullable=False`` means the column is required.
    """

    name: str
    ctype: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.default is not None:
            object.__setattr__(
                self, "default", self.ctype.validate(self.default, column=self.name)
            )


@dataclass(frozen=True)
class TableSchema:
    """Definition of one table: ordered columns and primary key.

    ``primary_key`` is a tuple of column names forming the (composite) key;
    empty means the table has no primary key and duplicate rows are allowed
    (fact tables in XDMoD use surrogate keys; aggregate tables often have
    composite keys).

    ``derived`` declares that the table's rows are recomputed from other
    tables of the same schema (the ``agg_*`` tables and their watermark):
    its row mutations bump versions but write no binlog events, and
    replication never ships it — whoever holds the source tables
    re-derives it.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    derived: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {col.name!r}"
                )
            seen.add(col.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise SchemaError(
                    f"table {self.name!r}: primary key column {key_col!r} undefined"
                )

    # derived once per (immutable) schema: every row written looks these up
    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.column_names)}

    @cached_property
    def _key_positions(self) -> tuple[int, ...]:
        return tuple(self._positions[c] for c in self.primary_key)

    @cached_property
    def _row_plan(self) -> tuple[tuple[str, ColumnType, bool, frozenset[type]], ...]:
        """Per column: name, type, whether NULL is refused, and the value
        types stored without a look (the stored type, and ``NoneType``
        where NULL is allowed)."""
        plan = []
        for col in self.columns:
            required = not col.nullable or col.name in self.primary_key
            kinds = {_STORED_AS_IS.get(col.ctype)} - {None} | (set() if required else {_NONE})
            plan.append((col.name, col.ctype, required, frozenset(kinds)))
        return tuple(plan)

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def check_rows(
        self, names: Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> CheckedRows:
        """The one validator: rows of values under ``names`` as the tuples
        this table stores, in schema order.

        A column ``names`` leaves out takes its default.  An unknown or
        repeated name, or a row not as long as ``names``, is a
        :class:`SchemaError`; a value its column's type refuses
        (:meth:`ColumnType.validate`), or NULL in a NOT NULL column (a
        primary-key column always is one), is a :class:`TypeMismatchError`
        — the first in row order, then schema order.  A value of exactly
        its column's stored Python type is stored as is, any other as
        ``validate`` returns it; a column whose values all have the stored
        type (or are NULLs it allows) costs one type pass and no call.  A
        row needing no change, given as a tuple in schema order, is stored
        as the very tuple.
        """
        names = tuple(names)
        unknown = set(names) - self._positions.keys()
        if unknown:
            raise SchemaError(
                f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
            )
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r}: a column named twice in {names!r}")
        rows = rows if isinstance(rows, list) else list(rows)
        ragged = set(map(len, rows)) - {len(names)}
        if ragged:
            raise SchemaError(
                f"table {self.name!r}: ragged batch: rows of {sorted(ragged)!r} "
                f"values under {len(names)} names"
            )
        if names != self.column_names:  # to schema order, defaults filled in
            given = {name: i for i, name in enumerate(names)}
            rows = list(zip(*(
                map(itemgetter(given[col.name]), rows) if col.name in given
                else repeat(col.default, len(rows))
                for col in self.columns
            )))
        plan = self._row_plan
        # the columns holding a value that needs a look: one not of the
        # column's stored type, nor a NULL the column allows
        fine = map(frozenset.issuperset, map(itemgetter(3), plan), map(map, repeat(type), zip(*rows)))
        look = [i for i, ok in enumerate(fine) if not ok]
        stored = list(map(tuple, rows))  # a tuple stays the very tuple
        for n, row in enumerate(stored if look else ()):
            values = None
            for i in look:
                name, ctype, required, kinds = plan[i]
                if (value := row[i]) is None:
                    if required:
                        raise TypeMismatchError(
                            f"table {self.name!r}: column {name!r} may not be NULL"
                        )
                elif type(value) not in kinds:
                    values = values or list(row)
                    values[i] = ctype.validate(value, column=name)
            if values:
                stored[n] = tuple(values)
        return CheckedRows(self, stored)

    def check_columns(self, columns: Mapping[str, Any]) -> CheckedRows:
        """:meth:`check_rows` of a batch held as equal-length columns (NumPy
        arrays, read through ``tolist()``, or sequences) keyed by name;
        columns of unequal length are a :class:`SchemaError`."""
        given = [
            col.tolist() if isinstance(col, np.ndarray) else list(col)
            for col in columns.values()
        ]
        lengths = set(map(len, given))
        if len(lengths) > 1:
            raise SchemaError(
                f"table {self.name!r}: ragged batch: columns of {sorted(lengths)!r} values"
            )
        return self.check_rows(tuple(columns), zip(*given))

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...] | None:
        """Return the primary-key tuple for a stored row, or None if keyless."""
        if not self.primary_key:
            return None
        return tuple(row[i] for i in self._key_positions)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description (used by dumps and replication).

        ``"derived"`` appears only when true, so the description of every
        other table is what it was before the key existed."""
        description = {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.ctype.value,
                    "nullable": c.nullable,
                    "default": c.default,
                }
                for c in self.columns
            ],
            "primary_key": list(self.primary_key),
        }
        if self.derived:
            description["derived"] = True
        return description

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TableSchema":
        """Inverse of :meth:`to_dict`.  Descriptions written before secondary
        indexes were removed carry an ``"indexes"`` key; it is ignored, so old
        dumps, binlogs and persisted warehouses still load."""
        columns = tuple(
            Column(
                name=c["name"],
                ctype=ColumnType(c["type"]),
                nullable=c.get("nullable", True),
                default=c.get("default"),
            )
            for c in data["columns"]
        )
        return cls(
            name=data["name"],
            columns=columns,
            primary_key=tuple(data.get("primary_key", ())),
            derived=bool(data.get("derived", False)),
        )


def make_columns(spec: Iterable[tuple[str, ColumnType] | tuple[str, ColumnType, bool]]) -> tuple[Column, ...]:
    """Small helper: build columns from ``(name, type[, nullable])`` tuples."""
    cols: list[Column] = []
    for entry in spec:
        if len(entry) == 2:
            name, ctype = entry  # type: ignore[misc]
            cols.append(Column(name, ctype))
        else:
            name, ctype, nullable = entry  # type: ignore[misc]
            cols.append(Column(name, ctype, nullable=nullable))
    return tuple(cols)
