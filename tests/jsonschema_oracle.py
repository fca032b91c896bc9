"""Reference JSON-Schema interpreter.

This is the validator ``repro.etl.jsonschema`` shipped before it became a
compiler: it re-walks the schema dict for every value of every document.
It lives here, not under ``src/``, as the oracle ``tests/test_jsonschema.py``
holds the compiled validator to: the same documents accepted, and for the
rest the same ``str(exc)`` and ``exc.path``.

``finite=True`` adds the one rule the compiled validator has on top:
a non-finite float (``NaN``, ``Infinity``) does not satisfy a declared
``"number"`` type.  Only a document the interpreter accepts is walked
again with that rule, so every document it rejects keeps its message,
and the first non-finite number in walk order is the one reported.  With
``finite=False`` this is the interpreter exactly as it was.  Behaviour
is otherwise frozen; do not "improve" it.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

from repro.etl.jsonschema import JsonSchemaError

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(
    document: Any, schema: Mapping[str, Any], *, path: str = "", finite: bool = True
) -> None:
    """Validate ``document`` against ``schema``; raises on first failure."""
    _walk(document, schema, path, finite=False)
    if finite:
        _walk(document, schema, path, finite=True)


def _walk(document: Any, schema: Mapping[str, Any], path: str, *, finite: bool) -> None:
    stype = schema.get("type")
    types: list = []
    if stype is not None:
        types = stype if isinstance(stype, list) else [stype]
        if not any(_TYPE_CHECKS.get(t, lambda v: False)(document) for t in types):
            raise JsonSchemaError(
                f"expected type {stype!r}, got {type(document).__name__}", path
            )

    if "enum" in schema and document not in schema["enum"]:
        raise JsonSchemaError(
            f"value {document!r} not in enum {schema['enum']!r}", path
        )

    if isinstance(document, (int, float)) and not isinstance(document, bool):
        if "minimum" in schema and document < schema["minimum"]:
            raise JsonSchemaError(
                f"{document!r} < minimum {schema['minimum']!r}", path
            )
        if "maximum" in schema and document > schema["maximum"]:
            raise JsonSchemaError(
                f"{document!r} > maximum {schema['maximum']!r}", path
            )
        if "exclusiveMinimum" in schema and document <= schema["exclusiveMinimum"]:
            raise JsonSchemaError(
                f"{document!r} <= exclusiveMinimum {schema['exclusiveMinimum']!r}",
                path,
            )
        if "exclusiveMaximum" in schema and document >= schema["exclusiveMaximum"]:
            raise JsonSchemaError(
                f"{document!r} >= exclusiveMaximum {schema['exclusiveMaximum']!r}",
                path,
            )
        if (
            finite
            and "number" in types
            and isinstance(document, float)
            and not math.isfinite(document)
        ):
            raise JsonSchemaError(f"{document!r} is not a finite number", path)

    if isinstance(document, str):
        if "minLength" in schema and len(document) < schema["minLength"]:
            raise JsonSchemaError(
                f"length {len(document)} < minLength {schema['minLength']}", path
            )
        if "maxLength" in schema and len(document) > schema["maxLength"]:
            raise JsonSchemaError(
                f"length {len(document)} > maxLength {schema['maxLength']}", path
            )
        if "pattern" in schema and not re.search(schema["pattern"], document):
            raise JsonSchemaError(
                f"{document!r} does not match pattern {schema['pattern']!r}", path
            )

    if isinstance(document, dict):
        props = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in document:
                raise JsonSchemaError(f"missing required property {name!r}", path)
        additional = schema.get("additionalProperties", True)
        for key, value in document.items():
            if key in props:
                _walk(value, props[key], f"{path}/{key}", finite=finite)
            elif additional is False:
                raise JsonSchemaError(f"unexpected property {key!r}", path)
            elif isinstance(additional, dict):
                _walk(value, additional, f"{path}/{key}", finite=finite)

    if isinstance(document, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(document):
                _walk(value, items, f"{path}/{i}", finite=finite)
        if "minItems" in schema and len(document) < schema["minItems"]:
            raise JsonSchemaError(
                f"{len(document)} items < minItems {schema['minItems']}", path
            )
        if "maxItems" in schema and len(document) > schema["maxItems"]:
            raise JsonSchemaError(
                f"{len(document)} items > maxItems {schema['maxItems']}", path
            )
