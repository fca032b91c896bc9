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
from typing import Any, Iterable, Mapping, Sequence

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
#: would return for it, so :meth:`TableSchema.normalize_row` stores it
#: without the call (``bool`` is not ``int`` here: the test is on the exact
#: type).
_STORED_AS_IS: dict[ColumnType, type] = {
    ColumnType.INT: int,
    ColumnType.TIMESTAMP: int,
    ColumnType.FLOAT: float,
    ColumnType.STR: str,
    ColumnType.BOOL: bool,
}


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
    def _row_plan(self) -> tuple[tuple[str, ColumnType, type | None, Any, bool], ...]:
        """Per column: name, type, the Python type stored as is, default,
        and whether NULL is refused."""
        return tuple(
            (
                col.name, col.ctype, _STORED_AS_IS.get(col.ctype), col.default,
                not col.nullable or col.name in self.primary_key,
            )
            for col in self.columns
        )

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def _reject_unknown(self, named: Mapping[str, Any]) -> None:
        unknown = named.keys() - self._positions.keys()
        if unknown:
            raise SchemaError(
                f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
            )

    def normalize_row(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Validate a mapping of column values and return the stored tuple.

        Missing columns take their default; unknown keys are an error; NULL
        constraints (including implicit PK non-nullability) are enforced.
        """
        self._reject_unknown(values)
        row: list[Any] = []
        for name, ctype, as_is, default, required in self._row_plan:
            if name in values:
                stored = values[name]
                if type(stored) is not as_is:
                    stored = ctype.validate(stored, column=name)
            else:
                stored = default
            if stored is None and required:
                raise TypeMismatchError(
                    f"table {self.name!r}: column {name!r} may not be NULL"
                )
            row.append(stored)
        return tuple(row)

    def normalize_columns(self, columns: Mapping[str, Any]) -> list[list[Any]]:
        """:meth:`normalize_row` for a batch held as columns.

        ``columns`` maps column names to equal-length NumPy arrays or
        sequences, one value per row.  Returns the stored values as one
        list per schema column, in schema order.  Every check
        :meth:`normalize_row` makes on a row is made on each column — and
        raises the same error — so a batch that comes back would have been
        accepted row by row; columns of unequal length are a
        :class:`SchemaError`.  Arrays are read through ``tolist()``: what
        is stored is a plain ``int`` / ``float`` / ``str``, never a NumPy
        scalar.
        """
        self._reject_unknown(columns)
        given = {
            name: col.tolist() if isinstance(col, np.ndarray) else list(col)
            for name, col in columns.items()
        }
        lengths = {len(values) for values in given.values()}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {self.name!r}: columns of unequal length "
                f"{sorted(lengths)!r}"
            )
        n_rows = lengths.pop() if lengths else 0
        stored: list[list[Any]] = []
        for name, ctype, as_is, default, required in self._row_plan:
            values = given.get(name)
            if values is None:
                values = [default] * n_rows
            elif set(map(type, values)) <= {as_is}:
                # all of the exact stored type: nothing to coerce, no NULL
                stored.append(values)
                continue
            else:
                values = [
                    v if type(v) is as_is else ctype.validate(v, column=name)
                    for v in values
                ]
            if required and any(v is None for v in values):
                raise TypeMismatchError(
                    f"table {self.name!r}: column {name!r} may not be NULL"
                )
            stored.append(values)
        return stored

    def columns_from_rows(
        self, rows: Sequence[Mapping[str, Any]]
    ) -> dict[str, list[Any]]:
        """Row mappings as the column batch :meth:`normalize_columns` takes.

        Rows that all name the same columns are transposed as they are
        (a column none of them names is left to its default); rows that
        differ go through :meth:`normalize_row` first, each taking its own
        defaults.
        """
        if not rows:
            return {}
        names = rows[0].keys()
        if all(row.keys() == names for row in rows):
            return {name: [row[name] for row in rows] for name in names}
        stored = [self.normalize_row(row) for row in rows]
        return dict(zip(self.column_names, map(list, zip(*stored))))

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
