"""Mini JSON-Schema validator: unit cases, the non-finite rule, the
compile-once cache, and the compiled validator held to the reference
interpreter in ``tests/jsonschema_oracle.py``."""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.etl import IngestPipeline, JsonSchemaError, is_valid, validate
from repro.etl import jsonschema
from repro.etl.cloudevents import CLOUD_EVENT_SCHEMA
from repro.etl.storagefs import STORAGE_SNAPSHOT_SCHEMA
from repro.warehouse import Database

from . import jsonschema_oracle as oracle
from .conftest import property_settings

NAN, INF = math.nan, math.inf


class TestTypes:
    @pytest.mark.parametrize(
        "schema,ok,bad",
        [
            ({"type": "string"}, "x", 5),
            ({"type": "integer"}, 3, 3.5),
            ({"type": "number"}, 3.5, "3.5"),
            ({"type": "boolean"}, True, 1),
            ({"type": "object"}, {}, []),
            ({"type": "array"}, [], {}),
            ({"type": "null"}, None, 0),
        ],
    )
    def test_type_dispatch(self, schema, ok, bad):
        validate(ok, schema)
        with pytest.raises(JsonSchemaError):
            validate(bad, schema)

    def test_bool_is_not_integer(self):
        with pytest.raises(JsonSchemaError):
            validate(True, {"type": "integer"})
        with pytest.raises(JsonSchemaError):
            validate(True, {"type": "number"})

    def test_union_types(self):
        schema = {"type": ["string", "null"]}
        validate("x", schema)
        validate(None, schema)
        with pytest.raises(JsonSchemaError):
            validate(3, schema)


class TestNumericBounds:
    def test_minimum_maximum_inclusive(self):
        schema = {"type": "number", "minimum": 0, "maximum": 10}
        validate(0, schema)
        validate(10, schema)
        with pytest.raises(JsonSchemaError):
            validate(-0.1, schema)
        with pytest.raises(JsonSchemaError):
            validate(10.5, schema)

    def test_exclusive_bounds(self):
        schema = {"exclusiveMinimum": 0, "exclusiveMaximum": 1}
        validate(0.5, schema)
        with pytest.raises(JsonSchemaError):
            validate(0, schema)
        with pytest.raises(JsonSchemaError):
            validate(1, schema)


class TestStrings:
    def test_length_bounds(self):
        schema = {"type": "string", "minLength": 2, "maxLength": 4}
        validate("ab", schema)
        with pytest.raises(JsonSchemaError):
            validate("a", schema)
        with pytest.raises(JsonSchemaError):
            validate("abcde", schema)

    def test_pattern(self):
        schema = {"type": "string", "pattern": "^/"}
        validate("/scratch", schema)
        with pytest.raises(JsonSchemaError):
            validate("scratch", schema)

    def test_enum(self):
        schema = {"enum": ["a", "b"]}
        validate("a", schema)
        with pytest.raises(JsonSchemaError):
            validate("c", schema)


class TestObjectsAndArrays:
    SCHEMA = {
        "type": "object",
        "required": ["name"],
        "additionalProperties": False,
        "properties": {
            "name": {"type": "string"},
            "sizes": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        },
    }

    def test_required_enforced(self):
        with pytest.raises(JsonSchemaError) as exc:
            validate({}, self.SCHEMA)
        assert "name" in str(exc.value)

    def test_additional_properties_false(self):
        with pytest.raises(JsonSchemaError):
            validate({"name": "x", "extra": 1}, self.SCHEMA)

    def test_nested_items_path_in_error(self):
        with pytest.raises(JsonSchemaError) as exc:
            validate({"name": "x", "sizes": [1, "two"]}, self.SCHEMA)
        assert "/sizes/1" in str(exc.value)

    def test_min_items(self):
        with pytest.raises(JsonSchemaError):
            validate({"name": "x", "sizes": []}, self.SCHEMA)

    def test_additional_properties_schema(self):
        schema = {"type": "object", "additionalProperties": {"type": "integer"}}
        validate({"a": 1, "b": 2}, schema)
        with pytest.raises(JsonSchemaError):
            validate({"a": "nope"}, schema)

    def test_valid_document(self):
        validate({"name": "x", "sizes": [1, 2]}, self.SCHEMA)
        assert is_valid({"name": "x"}, self.SCHEMA)
        assert not is_valid({"nope": 1}, self.SCHEMA)


class TestNonFinite:
    """``json.loads`` yields NaN and Infinity; neither is a JSON number."""

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_number_rejects_non_finite(self, value):
        with pytest.raises(JsonSchemaError) as exc:
            validate({"x": value}, {"properties": {"x": {"type": ["number", "null"]}}})
        assert str(exc.value) == f"/x: {value!r} is not a finite number"
        assert exc.value.path == "/x"

    def test_integer_refuses_floats_as_before(self):
        with pytest.raises(JsonSchemaError, match="expected type 'integer', got float"):
            validate(INF, {"type": "integer"})

    def test_a_failing_bound_keeps_its_message(self):
        with pytest.raises(JsonSchemaError, match="inf > maximum 10"):
            validate(INF, {"type": "number", "maximum": 10})
        with pytest.raises(JsonSchemaError, match="nan is not a finite number"):
            validate(NAN, {"type": "number", "minimum": 0, "maximum": 10})

    def test_any_other_failure_comes_first(self):
        # a document the interpreter rejects keeps its message, even when
        # a non-finite number is walked before the value it rejected
        schema = {"properties": {"a": {"type": "number"}, "b": {"type": "string"}}}
        for doc in ({"a": NAN, "b": 1}, {"b": 1, "a": NAN}):
            with pytest.raises(JsonSchemaError, match="^/b: expected type 'string'"):
                validate(doc, schema)
        with pytest.raises(JsonSchemaError, match="^/b: expected type 'string'"):
            validate({"c": [INF], "b": 1}, {**schema, "additionalProperties": {
                "items": {"type": "number"}}})

    def test_first_non_finite_in_walk_order(self):
        schema = {"properties": {"a": {"type": "number"}, "b": {"items": {"type": "number"}}}}
        with pytest.raises(JsonSchemaError) as exc:
            validate({"b": [1, INF, NAN], "a": NAN}, schema, path="/doc")
        assert (str(exc.value), exc.value.path) == ("/doc/b/1: inf is not a finite number",
                                                   "/doc/b/1")

    def test_undeclared_type_is_not_checked(self):
        validate(NAN, {"minimum": 0})

    def test_storage_ingest_rejects_non_finite(self, storage_docs):
        pipe = IngestPipeline(Database())
        doc = dict(storage_docs[0], logical_usage_gb=NAN, physical_usage_gb=INF)
        assert pipe.ingest_storage([doc, storage_docs[1]], strict=False) == (1, 1)
        assert len(pipe.schema.table("fact_storage")) == 1
        with pytest.raises(JsonSchemaError, match="/logical_usage_gb: nan is not a finite"):
            IngestPipeline(Database()).ingest_storage([doc], strict=True)

    def test_cloud_ingest_rejects_non_finite(self, cloud_events):
        vm = cloud_events[0]["vm_id"]
        events = [e for e in cloud_events if e["vm_id"] == vm]
        bad = [dict(events[0], mem_gb=NAN), *events[1:]]
        pipe = IngestPipeline(Database())
        assert pipe.ingest_cloud(bad, strict=False)[1] == 1
        assert all(
            math.isfinite(row["mem_gb"])
            for row in pipe.schema.table("fact_vm_interval").rows()
        )
        with pytest.raises(JsonSchemaError, match="/mem_gb: nan is not a finite"):
            IngestPipeline(Database()).ingest_cloud(bad, strict=True)


class TestCompiledOnce:
    def test_schema_is_read_at_first_use(self):
        schema = {"type": "object", "required": ["a"]}
        validate({"a": 1}, schema)
        schema["required"].append("b")  # too late: the compiled form is kept
        validate({"a": 1}, schema)

    def test_cache_is_bounded(self):
        for n in range(3 * jsonschema._CACHE_SIZE):
            validate(n, {"minimum": 0})
        assert len(jsonschema._CACHE) <= jsonschema._CACHE_SIZE

    def test_cache_entry_pins_its_schema(self):
        schema = {"type": "string"}
        validate("x", schema)
        pinned, _ = jsonschema._CACHE[id(schema)]
        assert pinned is schema


# -- the compiled validator against the reference interpreter ---------------

NAMES = ("a", "b", "c/d", "0")
TYPE_NAMES = ("object", "array", "string", "integer", "number", "boolean", "null")
PATTERNS = ("^/", "^[a-z]+$", "[0-9]", "")
NON_FINITE = st.sampled_from([NAN, INF, -INF])
BOUNDS = st.one_of(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 4), st.floats(-4, 4),
    NON_FINITE, st.text("ab/1", max_size=3),
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(NAMES), inner, max_size=3),
    ),
    max_leaves=6,
)


def _schema_nodes(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional={
        "type": st.one_of(
            st.sampled_from(TYPE_NAMES),
            st.lists(st.sampled_from(TYPE_NAMES), min_size=1, max_size=3, unique=True),
        ),
        "enum": st.lists(SCALARS, min_size=1, max_size=3),
        "minimum": BOUNDS, "maximum": BOUNDS,
        "exclusiveMinimum": BOUNDS, "exclusiveMaximum": BOUNDS,
        "minLength": st.integers(0, 3), "maxLength": st.integers(0, 3),
        "pattern": st.sampled_from(PATTERNS),
        "minItems": st.integers(0, 3), "maxItems": st.integers(0, 3),
        "properties": st.dictionaries(st.sampled_from(NAMES), children, max_size=3),
        "required": st.lists(st.sampled_from(NAMES), max_size=3, unique=True),
        "additionalProperties": st.one_of(st.booleans(), children),
        "items": children,
    })


#: leaf fields shaped like the shipped schemas' measurements and labels
FIELDS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["number", ["number", "null"], "integer"])},
        optional={"minimum": BOUNDS, "exclusiveMinimum": BOUNDS, "maximum": BOUNDS},
    ),
    st.fixed_dictionaries(
        {"type": st.just("string")},
        optional={"minLength": st.integers(0, 3), "maxLength": st.integers(0, 3),
                  "pattern": st.sampled_from(PATTERNS)},
    ),
)


def _containers(children: st.SearchStrategy) -> st.SearchStrategy:
    """Any keyword mix, or a container whose own keywords mostly pass so
    that the walk reaches, and fails in, the nested schemas."""
    names = st.sampled_from(NAMES)
    return st.one_of(
        _schema_nodes(children),
        st.fixed_dictionaries(
            {"type": st.just("object"),
             "properties": st.dictionaries(names, children, min_size=1, max_size=3)},
            optional={"required": st.lists(names, max_size=2, unique=True),
                      "additionalProperties": st.one_of(st.just(False), children)},
        ),
        st.fixed_dictionaries(
            {"type": st.just("array"), "items": children},
            optional={"minItems": st.integers(0, 2), "maxItems": st.integers(1, 4)},
        ),
    )


SCHEMAS = st.recursive(st.one_of(FIELDS, _schema_nodes(st.just({}))), _containers, max_leaves=6)


def documents_for(schema) -> st.SearchStrategy:
    """Values aimed at ``schema``: one of each declared type, built
    from its sub-schemas with keys left out or added, enum members, and
    arbitrary values (wrong types, bools for ints, NaN), one time in four."""
    options = []
    if "enum" in schema:
        options.append(st.sampled_from(schema["enum"]))
    stype = schema.get("type", list(TYPE_NAMES))
    for t in stype if isinstance(stype, list) else [stype]:
        if t == "object":
            known = st.fixed_dictionaries({}, optional={
                k: st.deferred(lambda s=s: documents_for(s))
                for k, s in schema.get("properties", {}).items()
            })
            extra = st.dictionaries(st.sampled_from(NAMES), ANY_JSON, max_size=2)
            options.append(st.tuples(known, extra).map(lambda p: {**p[1], **p[0]}))
        elif t == "array":
            items = schema.get("items")
            element = documents_for(items) if isinstance(items, dict) else ANY_JSON
            options.append(st.lists(element, max_size=4))
        elif t == "string":
            options.append(st.text("ab/1z", max_size=4))
        elif t in ("integer", "number"):
            options.append(st.one_of(st.integers(-4, 4), st.booleans()))
            if t == "number":
                options += [st.floats(-4, 4, allow_nan=False), NON_FINITE]
    typed = st.one_of(options)
    return st.one_of(ANY_JSON, typed, typed, typed)


def outcome(check, document, schema, **kwargs):
    """``None`` when ``document`` passes, else ``(str(exc), exc.path)``."""
    try:
        check(document, schema, **kwargs)
    except JsonSchemaError as exc:
        return str(exc), exc.path
    return None


def has_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(has_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(has_non_finite(v) for v in value)
    return False


def assert_agrees(document, schema, path=""):
    got = outcome(validate, document, schema, path=path)
    assert got == outcome(oracle.validate, document, schema, path=path)
    before = outcome(oracle.validate, document, schema, path=path, finite=False)
    if before is not None or not has_non_finite(document):
        assert got == before  # the interpreter's verdict, byte for byte
    elif got is not None:
        assert got[0].endswith("is not a finite number")


#: first failures that hinge on the order in which keywords are tried
ORDER_CASES = [
    ({"type": "array", "items": {"type": "string"}, "minItems": 3}, [1]),
    ({"type": "array", "items": {"type": "string"}, "maxItems": 1}, ["a", 2]),
    ({"required": ["a", "b", "c"]}, {"b": 1}),
    ({"required": ["a"], "additionalProperties": False}, {"x": 1}),
    ({"properties": {"a": {"type": "string"}}, "additionalProperties": False},
     {"x": 1, "a": 2}),
    ({"type": "string", "minLength": 2, "maxLength": 3, "pattern": "^b"}, "a"),
    ({"type": "string", "maxLength": 2, "pattern": "^b"}, "ab"),
    ({"type": "string", "maxLength": 2, "pattern": "^b"}, "abc"),
    ({"enum": [1, 2], "minimum": 5}, 3),
    ({"enum": [0, False]}, None),
    ({"additionalProperties": False}, {"x": 1}),
    ({"type": "number", "maximum": 1, "exclusiveMaximum": 1}, 1),
    ({"type": "number", "minimum": 1, "exclusiveMinimum": 1}, 1),
    ({"type": "number", "maximum": 0}, INF),
    ({"type": ["number", "null"], "enum": [1]}, NAN),
    ({"type": "integer", "minimum": 0}, True),
    ({"type": ["integer", "boolean"], "minimum": 2}, True),
    ({"minimum": 2, "minLength": 2, "minItems": 2}, [0]),
    ({"items": {"properties": {"a": {"items": {"type": "null"}}}}}, [{"a": [None, 0]}]),
    ({"additionalProperties": {"type": "null"}}, {0: None, 1: 1}),
    ({"additionalProperties": {"type": ["number", "null"]}}, {"a": NAN, "b": INF}),
    ({"additionalProperties": {"type": "number"}, "maxItems": 0}, {"a": NAN, "b": "x"}),
    ({"items": {"type": "number"}, "maxItems": 1}, [NAN, 0]),
]


class TestDifferential:
    @pytest.mark.parametrize("schema,document", ORDER_CASES)
    def test_keyword_order(self, schema, document):
        assert_agrees(document, schema)
        assert_agrees(document, schema, path="/top")

    @property_settings(150)
    @given(data=st.data(), path=st.sampled_from(["", "/doc"]))
    def test_compiled_matches_interpreter(self, data, path):
        schema = data.draw(SCHEMAS, label="schema")
        document = data.draw(documents_for(schema), label="document")
        assert_agrees(document, schema, path)
        assert is_valid(document, schema) == (
            outcome(oracle.validate, document, schema) is None
        )

    @pytest.mark.parametrize("schema", [CLOUD_EVENT_SCHEMA, STORAGE_SNAPSHOT_SCHEMA])
    def test_shipped_schemas_on_mutated_simulator_documents(
        self, schema, cloud_events, storage_docs
    ):
        docs = cloud_events if schema is CLOUD_EVENT_SCHEMA else storage_docs
        mutations = [
            lambda d, k: d.pop(k), lambda d, k: d.__setitem__(k, NAN),
            lambda d, k: d.__setitem__(k, INF), lambda d, k: d.__setitem__(k, None),
            lambda d, k: d.__setitem__(k, True), lambda d, k: d.__setitem__(k, -1),
            lambda d, k: d.__setitem__(k, ""), lambda d, k: d.__setitem__(k, "x"),
            lambda d, k: d.__setitem__(k, 2.5), lambda d, k: d.__setitem__(k + "_x", 1),
        ]
        rejected = 0
        for i, doc in enumerate(docs):
            validate(doc, schema)
            keys = sorted(doc)
            mutated = copy.deepcopy(doc)
            mutations[i % len(mutations)](mutated, keys[(i // len(mutations)) % len(keys)])
            assert_agrees(mutated, schema)
            rejected += not is_valid(mutated, schema)
        assert rejected > len(docs) // 3
