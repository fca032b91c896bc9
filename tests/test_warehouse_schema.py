"""Catalog types: columns, tables, normalization, constraints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.warehouse import (
    Column,
    ColumnType,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    make_columns,
)

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

    def test_normalize_row_applies_defaults_and_order(self):
        schema = TableSchema(
            "t",
            (
                Column("id", C.INT, nullable=False),
                Column("kind", C.STR, default="generic"),
            ),
            primary_key=("id",),
        )
        assert schema.normalize_row({"id": 1}) == (1, "generic")

    def test_normalize_row_stores_what_validate_returns(self):
        # normalize_row skips the validate call for values already of the
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
                        schema.normalize_row({col.name: value})
                    continue
                stored = schema.normalize_row({col.name: value})[schema.position(col.name)]
                assert stored == expected and type(stored) is type(expected)

    def test_columns_from_rows_is_a_batch_normalize_columns_takes(self):
        """Uniform rows are transposed as given; rows that differ in their
        columns each take their own defaults; either way the batch stores
        what ``normalize_row`` stores row by row."""
        schema = TableSchema(
            "t",
            (
                Column("id", C.INT, nullable=False),
                Column("kind", C.STR, default="generic"),
                Column("score", C.FLOAT),
            ),
            primary_key=("id",),
        )
        assert schema.columns_from_rows([]) == {}
        uniform = [{"id": 1, "score": 1}, {"id": 2, "score": None}]
        assert schema.columns_from_rows(uniform) == {"id": [1, 2], "score": [1, None]}
        ragged = [{"id": 1, "kind": "k"}, {"id": 2, "score": 2.5}, {"id": 3}]
        assert schema.columns_from_rows(ragged) == {
            "id": [1, 2, 3], "kind": ["k", "generic", "generic"],
            "score": [None, 2.5, None],
        }
        for rows in (uniform, ragged):
            stored = schema.normalize_columns(schema.columns_from_rows(rows))
            assert list(zip(*stored)) == [schema.normalize_row(row) for row in rows]
        with pytest.raises(SchemaError):
            schema.columns_from_rows([{"id": 1}, {"id": 2, "bogus": 0}])
        with pytest.raises(SchemaError):
            schema.normalize_columns(schema.columns_from_rows([{"id": 1, "bogus": 0}]))

    def test_normalize_row_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            simple_schema().normalize_row({"id": 1, "bogus": 2})

    def test_normalize_row_enforces_not_null(self):
        schema = simple_schema()
        with pytest.raises(TypeMismatchError):
            schema.normalize_row({"name": "x"})  # id is non-nullable

    def test_pk_column_implicitly_not_null(self):
        schema = TableSchema(
            "t", make_columns([("id", C.INT)]), primary_key=("id",)
        )
        with pytest.raises(TypeMismatchError):
            schema.normalize_row({})

    def test_key_of(self):
        schema = simple_schema(primary_key=("id",))
        row = schema.normalize_row({"id": 9, "name": "n", "score": 1.0})
        assert schema.key_of(row) == (9,)
        keyless = simple_schema()
        assert keyless.key_of(row) is None

    def test_composite_key(self):
        schema = simple_schema(primary_key=("id", "name"))
        row = schema.normalize_row({"id": 1, "name": "a", "score": None})
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
