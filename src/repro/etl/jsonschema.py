"""Minimal JSON-Schema validator, compiled once per schema.

Section III-A: storage data ingestion is filesystem-independent —
"installations must only ensure their data validates against our provided
JSON schema."  We implement the subset of JSON Schema draft-07 those
documents need: ``type``, ``enum``, ``properties``, ``required``,
``additionalProperties``, ``items``, ``pattern``, and the numeric, length
and item-count bounds listed in ``_BOUNDS``.

A schema is read once, at its first use, into checker closures holding
only the checks it declares, cached by the schema object's identity: treat
it as immutable from then on.  A failure raises :class:`JsonSchemaError`
with a JSON-pointer-ish path, built only then.  A non-finite float (``NaN``,
``Infinity``: :func:`json.loads` accepts both) is not a JSON number: a
declared ``"number"`` rejects the first one, in a document that passes
every other check, so any other failure keeps its message.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable, Mapping, NoReturn

#: ``check(value, parent, key, late)`` raises on failure, or appends it to
#: ``late`` for a non-finite number; ``parent`` is the enclosing value's
#: ``(parent, key)``, or None when ``key`` is the root path
Check = Callable[[Any, Any, Any, list], None]

#: id(schema) -> (schema, its checks): the entry holds its schema, so the
#: id stays its own.  Two threads racing to fill one only compile it twice.
_CACHE: dict[int, tuple[Mapping[str, Any], tuple[Check, ...]]] = {}
_CACHE_SIZE = 64  # compiled schemas kept; the shipped ones are two

_TYPES: dict[str, tuple[type, ...]] = {
    "object": (dict,), "array": (list,), "string": (str,), "integer": (int,),
    "number": (int, float), "boolean": (bool,), "null": (type(None),),
}
_BOUNDS = (  # (keyword, the type whose values it bounds, fails(measure, limit), message)
    ("minimum", "number", operator.lt, "{v!r} < minimum {lim!r}"),
    ("maximum", "number", operator.gt, "{v!r} > maximum {lim!r}"),
    ("exclusiveMinimum", "number", operator.le, "{v!r} <= exclusiveMinimum {lim!r}"),
    ("exclusiveMaximum", "number", operator.ge, "{v!r} >= exclusiveMaximum {lim!r}"),
    ("minLength", "string", operator.lt, "length {n} < minLength {lim}"),
    ("maxLength", "string", operator.gt, "length {n} > maxLength {lim}"),
    ("minItems", "array", operator.lt, "{n} items < minItems {lim}"),
    ("maxItems", "array", operator.gt, "{n} items > maxItems {lim}"),
)


class JsonSchemaError(ValueError):
    """A document failed schema validation.

    ``path`` locates the failing value ("/items/3/file_count" style).
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path or '/'}: {message}")
        self.path = path


def _fail(message: str, parent: Any, key: Any) -> NoReturn:
    def path(parent: Any, key: Any) -> str:
        return key if parent is None else f"{path(*parent)}/{key}"
    raise JsonSchemaError(message, path(parent, key))


def _compile(schema: Mapping[str, Any]) -> tuple[Check, ...]:
    """One schema node -> its checks, in the order the keywords are tried;
    each check after ``type`` and ``enum`` skips values of other kinds."""
    checks: list[Check] = []
    stype = schema.get("type")
    types = [] if stype is None else stype if isinstance(stype, list) else [stype]
    if stype is not None:
        classes = tuple({c for t in types for c in _TYPES.get(t, ())})
        no_bool = int in classes and bool not in classes

        def check_type(v: Any, parent: Any, key: Any, late: list) -> None:
            if not isinstance(v, classes) or (no_bool and v.__class__ is bool):
                _fail(f"expected type {stype!r}, got {type(v).__name__}", parent, key)
        checks.append(check_type)
    if "enum" in schema:
        enum = schema["enum"]

        def check_enum(v: Any, parent: Any, key: Any, late: list) -> None:
            if v not in enum:
                _fail(f"value {v!r} not in enum {enum!r}", parent, key)
        checks.append(check_enum)
    props = {k: _compile(s) for k, s in schema.get("properties", {}).items()}
    required = tuple(schema.get("required", ()))
    additional = schema.get("additionalProperties", True)
    closed = additional is False
    extra = _compile(additional) if isinstance(additional, dict) else None
    if props or required or closed or extra is not None:
        get = props.get

        def check_object(v: Any, parent: Any, key: Any, late: list) -> None:
            if not isinstance(v, dict):
                return
            for name in required:
                if name not in v:
                    _fail(f"missing required property {name!r}", parent, key)
            here = (parent, key)
            for k, item in v.items():
                sub = get(k, extra)
                if sub is None:
                    if closed:
                        _fail(f"unexpected property {k!r}", parent, key)
                    continue
                for c in sub:
                    c(item, here, k, late)
        checks.append(check_object)
    if isinstance(schema.get("items"), dict):  # before minItems / maxItems
        items = _compile(schema["items"])

        def check_items(v: Any, parent: Any, key: Any, late: list) -> None:
            if isinstance(v, list):
                here = (parent, key)
                for i, item in enumerate(v):
                    for c in items:
                        c(item, here, i, late)
        checks.append(check_items)
    checks += [_bound(k, fails, schema[w], msg) for w, k, fails, msg in _BOUNDS if w in schema]
    if "number" in types:
        checks.append(_check_finite)
    if "pattern" in schema:  # after minLength / maxLength
        pattern = schema["pattern"]
        search = re.compile(pattern).search

        def check_pattern(v: Any, parent: Any, key: Any, late: list) -> None:
            if isinstance(v, str) and not search(v):
                _fail(f"{v!r} does not match pattern {pattern!r}", parent, key)
        checks.append(check_pattern)
    return tuple(checks)


def _bound(kind: str, fails: Callable[[Any, Any], bool], lim: Any, message: str) -> Check:
    classes, sized = _TYPES[kind], kind != "number"

    def check(v: Any, parent: Any, key: Any, late: list) -> None:
        if isinstance(v, classes) and v.__class__ is not bool:
            n = len(v) if sized else v
            if fails(n, lim):
                _fail(message.format(v=v, n=n, lim=lim), parent, key)
    return check


def _check_finite(v: Any, parent: Any, key: Any, late: list) -> None:
    if isinstance(v, float) and not math.isfinite(v):
        late.append((f"{v!r} is not a finite number", parent, key))


def validate(document: Any, schema: Mapping[str, Any], *, path: str = "") -> None:
    """Validate ``document`` against ``schema``; raises on first failure."""
    entry = _CACHE.get(id(schema))
    if entry is None:
        if len(_CACHE) >= _CACHE_SIZE:
            _CACHE.clear()
        entry = _CACHE[id(schema)] = (schema, _compile(schema))
    late: list = []
    for check in entry[1]:
        check(document, None, path, late)
    if late:
        _fail(*late[0])


def is_valid(document: Any, schema: Mapping[str, Any]) -> bool:
    """Boolean form of :func:`validate`."""
    try:
        validate(document, schema)
    except JsonSchemaError:
        return False
    return True
