"""Catalog types: columns, tables, the one row validator, constraints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.warehouse import (
    Column,
    ColumnType,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    make_columns,
)

from .conftest import property_settings

C = ColumnType


def simple_schema(**kwargs) -> TableSchema:
    return TableSchema(
        "t",
        make_columns([
            ("id", C.INT, False),
            ("name", C.STR),
            ("score", C.FLOAT),
        ]),
        **kwargs,
    )


class TestColumnTypes:
    def test_int_accepts_int_and_integral_float(self):
        assert C.INT.validate(5) == 5
        assert C.INT.validate(5.0) == 5

    def test_int_rejects_bool_and_fraction(self):
        with pytest.raises(TypeMismatchError):
            C.INT.validate(True)
        with pytest.raises(TypeMismatchError):
            C.INT.validate(5.5)
        with pytest.raises(TypeMismatchError):
            C.INT.validate("5")

    def test_float_coerces_int(self):
        value = C.FLOAT.validate(3)
        assert value == 3.0 and isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            C.FLOAT.validate(False)

    def test_str_strict(self):
        assert C.STR.validate("x") == "x"
        with pytest.raises(TypeMismatchError):
            C.STR.validate(5)

    def test_bool_strict(self):
        assert C.BOOL.validate(True) is True
        with pytest.raises(TypeMismatchError):
            C.BOOL.validate(1)

    def test_timestamp_like_int(self):
        assert C.TIMESTAMP.validate(1483228800) == 1483228800

    def test_json_accepts_serializable(self):
        assert C.JSON.validate({"a": [1, 2]}) == {"a": [1, 2]}

    def test_json_rejects_unserializable(self):
        with pytest.raises(TypeMismatchError):
            C.JSON.validate({"a": object()})

    def test_none_passes_type_validation(self):
        assert C.INT.validate(None) is None


class TestColumn:
    def test_bad_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name", C.INT)
        with pytest.raises(SchemaError):
            Column("", C.INT)

    def test_default_validated(self):
        with pytest.raises(TypeMismatchError):
            Column("x", C.INT, default="nope")
        assert Column("x", C.INT, default=3.0).default == 3


class TestTableSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", make_columns([("a", C.INT), ("a", C.STR)]))

    def test_pk_must_reference_existing_column(self):
        with pytest.raises(SchemaError):
            simple_schema(primary_key=("missing",))

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_position_and_column_lookup(self):
        schema = simple_schema()
        assert schema.position("name") == 1
        assert schema.column("score").ctype is C.FLOAT
        with pytest.raises(SchemaError):
            schema.position("nope")

    def test_check_rows_applies_defaults_and_order(self):
        schema = TableSchema(
            "t",
            (
                Column("id", C.INT, nullable=False),
                Column("kind", C.STR, default="generic"),
                Column("score", C.FLOAT),
            ),
            primary_key=("id",),
        )
        assert schema.check_rows(("id",), [(1,)]).rows == [(1, "generic", None)]
        assert schema.check_rows(("score", "id"), [(2.5, 1), (None, 2)]).rows == [
            (1, "generic", 2.5), (2, "generic", None),
        ]
        assert schema.check_rows(("id",), []).rows == []

    def test_check_rows_stores_what_validate_returns(self):
        # the validator skips the validate call for values already of the
        # stored type; every other value must come out as validate has it
        schema = TableSchema("t", make_columns([
            ("i", C.INT), ("t", C.TIMESTAMP), ("f", C.FLOAT),
            ("s", C.STR), ("b", C.BOOL), ("j", C.JSON),
        ]))
        samples = [1, 2.0, 2.5, "x", True, None, np.float64(1.5), np.int64(3), [1]]
        for col in schema.columns:
            for value in samples:
                try:
                    expected = col.ctype.validate(value, column=col.name)
                except TypeMismatchError:
                    with pytest.raises(TypeMismatchError):
                        schema.check_rows((col.name,), [(value,)])
                    continue
                (row,) = schema.check_rows((col.name,), [(value,)]).rows
                stored = row[schema.position(col.name)]
                assert stored == expected and type(stored) is type(expected)

    def test_check_columns_is_check_rows_over_columns(self):
        """A column batch stores what its rows store, NumPy arrays read as
        plain Python values; unequal columns are refused."""
        schema = simple_schema(primary_key=("id",))
        columns = {"score": np.array([1, 2]), "id": [1, 2]}
        assert schema.check_columns(columns).rows == schema.check_rows(
            ("score", "id"), [(1, 1), (2, 2)]
        ).rows == [(1, None, 1.0), (2, None, 2.0)]
        assert schema.check_columns({}).rows == []
        with pytest.raises(SchemaError, match="ragged batch"):
            schema.check_columns({"id": [1, 2], "name": ["a"]})
        with pytest.raises(SchemaError, match="unknown columns"):
            schema.check_columns({"id": [1], "bogus": [0]})

    def test_a_row_of_stored_types_is_stored_as_given(self):
        schema = simple_schema(primary_key=("id",))
        rows = [(1, "a", 1.0), (2, None, None)]
        checked = schema.check_rows(schema.column_names, rows)
        assert all(s is r for s, r in zip(checked.rows, rows))
        # a list, a coerced value or another order makes a new tuple
        (listed, coerced) = schema.check_rows(
            schema.column_names, [[1, "a", 1.0], (2, "b", 2)]
        ).rows
        assert listed == (1, "a", 1.0) and type(listed) is tuple
        assert coerced == (2, "b", 2.0) and type(coerced[2]) is float

    def test_check_rows_rejects_unknown_columns(self):
        with pytest.raises(SchemaError, match="unknown columns"):
            simple_schema().check_rows(("id", "bogus"), [(1, 2)])
        with pytest.raises(SchemaError, match="named twice"):
            simple_schema().check_rows(("id", "id"), [(1, 2)])
        with pytest.raises(SchemaError, match="ragged batch"):
            simple_schema().check_rows(("id", "name"), [(1, "a"), (2,)])

    def test_check_rows_enforces_not_null(self):
        schema = simple_schema()
        with pytest.raises(TypeMismatchError, match="'id' may not be NULL"):
            schema.check_rows(("name",), [("x",)])  # id is non-nullable
        with pytest.raises(TypeMismatchError, match="'id' may not be NULL"):
            schema.check_rows(("id", "name"), [(1, "x"), (None, "y")])

    def test_pk_column_implicitly_not_null(self):
        schema = TableSchema(
            "t", make_columns([("id", C.INT)]), primary_key=("id",)
        )
        with pytest.raises(TypeMismatchError):
            schema.check_rows((), [()])

    def test_key_of(self):
        schema = simple_schema(primary_key=("id",))
        (row,) = schema.check_rows(("id", "name", "score"), [(9, "n", 1.0)]).rows
        assert schema.key_of(row) == (9,)
        keyless = simple_schema()
        assert keyless.key_of(row) is None

    def test_composite_key(self):
        schema = simple_schema(primary_key=("id", "name"))
        (row,) = schema.check_rows(("id", "name"), [(1, "a")]).rows
        assert schema.key_of(row) == (1, "a")

    def test_dict_round_trip(self):
        schema = simple_schema(primary_key=("id",))
        clone = TableSchema.from_dict(schema.to_dict())
        assert clone == schema

    def test_from_dict_ignores_legacy_indexes_key(self):
        """Descriptions in old dumps, binlogs and persisted warehouses
        were written when tables had secondary indexes."""
        schema = simple_schema(primary_key=("id",))
        legacy = {**schema.to_dict(), "indexes": ["name", "gone_column"]}
        assert TableSchema.from_dict(legacy) == schema
        assert "indexes" not in schema.to_dict()


# -- the row and column entries against a per-value reference ------------------


def reference(schema, names, rows):
    """What the one validator stores for ``rows`` under ``names``, or
    raises, built value by value on ``ColumnType.validate``: names, then
    row lengths, then each row in order, each column in schema order."""
    unknown = set(names) - set(schema.column_names)
    if unknown:
        raise SchemaError(f"table {schema.name!r}: unknown columns {sorted(unknown)!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"table {schema.name!r}: a column named twice in {tuple(names)!r}")
    ragged = {len(row) for row in rows} - {len(names)}
    if ragged:
        raise SchemaError(
            f"table {schema.name!r}: ragged batch: rows of {sorted(ragged)!r} "
            f"values under {len(names)} names"
        )
    stored = []
    for row in rows:
        given_values = dict(zip(names, row))
        out = []
        for col in schema.columns:
            value = given_values.get(col.name, col.default)
            value = col.ctype.validate(value, column=col.name)
            if value is None and (not col.nullable or col.name in schema.primary_key):
                raise TypeMismatchError(
                    f"table {schema.name!r}: column {col.name!r} may not be NULL"
                )
            out.append(value)
        stored.append(tuple(out))
    return stored


def outcome(check, *args):
    """A check's stored rows with every value's type (NaN-safe, via
    ``repr``), or the type and message of what it raised."""
    try:
        rows = check(*args)
    except (SchemaError, TypeMismatchError) as exc:
        return type(exc), str(exc)
    rows = rows.rows if hasattr(rows, "rows") else rows
    assert all(type(row) is tuple for row in rows)
    return [[(type(v), repr(v)) for v in row] for row in rows]


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-5, 5).map(float),  # integral floats
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.int64(3), np.float64(2.5), np.float64(4.0), np.bool_(True)]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    st.sampled_from([{1, 2}, object]),  # not JSON-serializable
)


def typed(ctype):
    """Values of the column's stored type."""
    return {
        C.INT: st.integers(0, 9), C.TIMESTAMP: st.integers(0, 9),
        C.FLOAT: st.floats(0, 9), C.STR: st.text(max_size=2),
        C.BOOL: st.booleans(), C.JSON: st.lists(st.integers(0, 3), max_size=2),
    }[ctype]


@st.composite
def schemas(draw):
    ctypes = draw(st.lists(st.sampled_from(list(C)), min_size=1, max_size=6))
    columns = tuple(
        Column(f"c{i}", ctype, nullable=draw(st.booleans()), default=draw(typed(ctype) | st.none()))
        for i, ctype in enumerate(ctypes)
    )
    names = [col.name for col in columns]
    key = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    return TableSchema("t", columns, primary_key=tuple(key))


@st.composite
def batches(draw):
    """A schema, names over it (some unknown, in any order) and rows, some
    of them ragged."""
    schema = draw(schemas())
    names = draw(st.permutations(schema.column_names))
    names = names[: draw(st.integers(1, len(names)))]
    if draw(st.sampled_from([False] * 7 + [True])):
        names.insert(draw(st.integers(0, len(names))), "zz")  # unknown
    names = tuple(names)
    width = st.just(len(names))
    if draw(st.sampled_from([False] * 7 + [True])):
        width = st.integers(0, len(names) + 1)  # ragged
    # half the batches hold only NULLs and values of the named column's
    # stored type, so that batches also pass
    clean = draw(st.booleans())
    value_of = [
        VALUES if name == "zz" else
        typed(schema.column(name).ctype) | (st.none() if clean else VALUES)
        for name in names
    ]
    rows = draw(st.lists(
        width.flatmap(lambda n: st.tuples(*(value_of + [VALUES] * n)[:n])),
        min_size=draw(st.sampled_from([1, 1, 1, 0])), max_size=5,
    ))
    return schema, names, rows


class TestOneValidator:
    @property_settings(150)
    @given(batch=batches())
    def test_row_and_column_entries_match_the_per_value_reference(self, batch):
        """Every ``ColumnType``: bools, ints, integral and fractional
        floats, NaN and infinities, NumPy scalars, NULL, JSON values and
        unserializable ones, unknown names and ragged rows.  The row entry
        and the column entry store what the reference stores, or raise
        the same exception with the same message."""
        schema, names, rows = batch
        expected = outcome(reference, schema, names, rows)
        assert outcome(schema.check_rows, names, rows) == expected
        assert outcome(schema.check_rows, names, [list(row) for row in rows]) == expected
        columns = {name: [row[i] for row in rows if i < len(row)] for i, name in enumerate(names)}
        if len({len(col) for col in columns.values()}) > 1:
            with pytest.raises(SchemaError, match="ragged batch"):
                schema.check_columns(columns)
        elif all(len(row) == len(names) for row in rows):
            assert outcome(schema.check_columns, columns) == expected
