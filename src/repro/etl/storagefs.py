"""Storage realm ingestion: schema-validated JSON snapshots.

Section III-A: storage data "will be acquired from monitoring tools ... or
filesystem APIs, then populated in a fashion independent of the storage
filesystem.  Data from filesystems such as Isilon, GPFS, Lustre, and Ceph
can be accommodated; installations must only ensure their data validates
against our provided JSON schema."

:data:`STORAGE_SNAPSHOT_SCHEMA` is that provided schema; ingestion rejects
non-conforming documents through :mod:`repro.etl.jsonschema`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .jsonschema import JsonSchemaError, validate
from .star import DimensionCache, create_jobs_star, land

C = ColumnType

#: The JSON schema storage snapshot documents must validate against.
STORAGE_SNAPSHOT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "resource", "filesystem", "mountpoint", "resource_type", "user",
        "ts", "file_count", "logical_usage_gb", "physical_usage_gb",
    ],
    "additionalProperties": True,
    "properties": {
        "resource": {"type": "string", "minLength": 1},
        "filesystem": {"type": "string", "minLength": 1},
        "mountpoint": {"type": "string", "pattern": "^/"},
        "resource_type": {"type": "string", "enum": ["persistent", "scratch"]},
        "user": {"type": "string", "minLength": 1},
        "pi": {"type": "string"},
        "system_username": {"type": "string"},
        "ts": {"type": "integer", "minimum": 0},
        "file_count": {"type": "integer", "minimum": 0},
        "logical_usage_gb": {"type": "number", "minimum": 0},
        "physical_usage_gb": {"type": "number", "minimum": 0},
        "soft_quota_gb": {"type": "number", "minimum": 0},
        "hard_quota_gb": {"type": "number", "minimum": 0},
    },
}

STORAGE_REALM_TABLES = ("fact_storage",)


def storage_fact_schema() -> TableSchema:
    return TableSchema(
        "fact_storage",
        make_columns([
            ("snapshot_id", C.INT, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("mountpoint", C.STR, False),
            ("resource_type", C.STR, False),
            ("person_id", C.INT, False),
            ("pi", C.STR),
            ("system_username", C.STR),
            ("ts", C.TIMESTAMP, False),
            ("file_count", C.INT, False),
            ("logical_usage_gb", C.FLOAT, False),
            ("physical_usage_gb", C.FLOAT, False),
            ("soft_quota_gb", C.FLOAT),
            ("hard_quota_gb", C.FLOAT),
        ]),
        primary_key=("snapshot_id",),
    )


def create_storage_realm(schema: Schema) -> None:
    """Create the storage realm fact table (and shared dims) if absent."""
    create_jobs_star(schema)  # shares dim_resource / dim_person
    if not schema.has_table("fact_storage"):
        schema.create_table(storage_fact_schema())


def ingest_storage_snapshots(
    schema: Schema,
    documents: Iterable[Mapping[str, Any]],
    *,
    strict: bool = True,
) -> tuple[int, int]:
    """Validate and ingest snapshot documents.

    Returns ``(ingested, rejected)``.  With ``strict=True`` the first
    invalid document raises :class:`JsonSchemaError`; otherwise invalid
    documents are counted and skipped.

    The batch is staged and lands all or nothing, dimensions first, one
    batch write per table: a ``strict`` failure, or a value the schema
    refuses, raises before any document of the batch is written.
    """
    create_storage_realm(schema)
    dims = DimensionCache(schema)
    fact = schema.table("fact_storage")
    next_id = len(fact) + 1
    staged: list[dict[str, Any]] = []
    rejected = 0
    for doc in documents:
        try:
            validate(doc, STORAGE_SNAPSHOT_SCHEMA)
        except JsonSchemaError:
            if strict:
                raise
            rejected += 1
            continue
        staged.append(
            {
                "snapshot_id": next_id + len(staged),
                "resource_id": dims.resource_id(doc["resource"]),
                "filesystem": doc["filesystem"],
                "mountpoint": doc["mountpoint"],
                "resource_type": doc["resource_type"],
                "person_id": dims.person_id(doc["user"]),
                "pi": doc.get("pi", ""),
                "system_username": doc.get("system_username", doc["user"]),
                "ts": doc["ts"],
                "file_count": doc["file_count"],
                "logical_usage_gb": float(doc["logical_usage_gb"]),
                "physical_usage_gb": float(doc["physical_usage_gb"]),
                # NULL = no quota configured; an explicit 0.0 in the
                # document is a real zero quota and must stay distinct
                "soft_quota_gb": (
                    float(doc["soft_quota_gb"])
                    if doc.get("soft_quota_gb") is not None else None
                ),
                "hard_quota_gb": (
                    float(doc["hard_quota_gb"])
                    if doc.get("hard_quota_gb") is not None else None
                ),
            }
        )
    land(dims.stage((fact, staged)))
    return len(staged), rejected
