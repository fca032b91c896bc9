"""Hub-as-backup: regenerating a satellite from the federation hub.

Section II-E4: "The act of federation can also be regarded as a backup
procedure.  Since the XDMoD federation hub does not summarize or reduce the
data it acquires from the member instances, the hub itself could be used to
regenerate the databases for the member instances."

:func:`regenerate_satellite` rebuilds a satellite's warehouse schema from
its replicated copy on the hub; :func:`verify_regeneration` confirms
fidelity with table checksums.  Fidelity is exact when the member's channel
used an unfiltered jobs-realm filter; with resource routing the regenerated
satellite necessarily lacks the excluded rows, which the verifier reports
rather than hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..etl.pipeline import WAREHOUSE_SCHEMA
from ..warehouse import (
    Database,
    Schema,
    dump_schema,
    load_schema,
    read_dump_file,
    write_dump_file,
)
from .consistency import compare_table, table_digest
from .errors import ConsistencyError, MembershipError
from .federation import FederationHub


def _member_dump(hub: FederationHub, member_name: str) -> dict[str, Any]:
    """Dump a member's hub-side schema, derived tables left out."""
    member = hub.member(member_name)
    if not hub.database.has_schema(member.fed_schema):
        raise MembershipError(
            f"hub holds no replicated schema for {member_name!r}"
        )
    return dump_schema(
        hub.database.schema(member.fed_schema),
        select=lambda table: None if table.schema.derived else table.raw_rows(),
    )


def _restore(
    dump: dict[str, Any],
    member_name: str,
    target_database: Database | None,
    schema_name: str,
) -> Database:
    database = target_database or Database(f"{member_name}_restored")
    load_schema(
        database,
        dump,
        rename_to=schema_name,
        replace=True,
        verify_checksum=True,
    )
    return database


def regenerate_satellite(
    hub: FederationHub,
    member_name: str,
    *,
    target_database: Database | None = None,
    schema_name: str = WAREHOUSE_SCHEMA,
) -> Database:
    """Rebuild a satellite database from its hub-side replicated schema.

    Returns a database containing ``schema_name`` with the member's raw
    replicated tables.  Derived (``agg_*``) tables are not restored — the regenerated
    instance re-runs its own aggregation, exactly as after any restore.
    """
    dump = _member_dump(hub, member_name)
    return _restore(dump, member_name, target_database, schema_name)


def backup_member_to_file(
    hub: FederationHub, member_name: str, path: str | Path
) -> Path:
    """Write a member's hub-side backup dump to disk (gzip JSON).

    The on-disk artifact is exactly what :func:`restore_satellite_from_file`
    consumes, checksummed so damage in storage is detected at restore time.
    """
    return write_dump_file(_member_dump(hub, member_name), path)


def restore_satellite_from_file(
    path: str | Path,
    member_name: str,
    *,
    target_database: Database | None = None,
    schema_name: str = WAREHOUSE_SCHEMA,
) -> Database:
    """Rebuild a satellite from a :func:`backup_member_to_file` artifact.

    A corrupted backup file raises :class:`~repro.warehouse.DumpError`
    instead of materializing a damaged warehouse.
    """
    dump = read_dump_file(path)
    return _restore(dump, member_name, target_database, schema_name)


@dataclass(frozen=True)
class RegenerationReport:
    """Outcome of a backup-fidelity check."""

    tables_checked: tuple[str, ...]
    matching: tuple[str, ...]
    mismatched: tuple[str, ...]
    missing: tuple[str, ...]

    @property
    def exact(self) -> bool:
        return not self.mismatched and not self.missing


def verify_regeneration(
    original: Schema,
    regenerated: Schema,
    *,
    tables: tuple[str, ...] | None = None,
    strict: bool = False,
) -> RegenerationReport:
    """Compare a regenerated schema against the original, per table.

    Each table goes through the fidelity check's own comparison
    (:func:`~repro.core.consistency.compare_table`).  ``tables``
    defaults to the original's non-derived, non-bookkeeping tables.
    With ``strict=True`` any mismatch raises :class:`ConsistencyError`.
    """
    if tables is None:
        tables = tuple(
            t
            for t in original.table_names()
            if not original.table(t).schema.derived and t != "etl_markers"
        )
    matching: list[str] = []
    mismatched: list[str] = []
    missing: list[str] = []
    for name in tables:
        have = table_digest(regenerated, name)
        if compare_table(name, table_digest(original, name), have).ok:
            matching.append(name)
        else:
            (mismatched if have else missing).append(name)
    report = RegenerationReport(
        tuple(tables), tuple(matching), tuple(mismatched), tuple(missing)
    )
    if strict and not report.exact:
        raise ConsistencyError(
            f"regeneration mismatch: mismatched={report.mismatched} "
            f"missing={report.missing}"
        )
    return report
