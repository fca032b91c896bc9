"""Loose federation: periodic dump shipping instead of live replication.

"Instead, log files or database dumps could be periodically shipped to the
federation hub, and batch processed there to make their data available to
the federation.  This latter method would be considered 'loose' federation.
A heterogeneous model could also be employed, in which a federation hub is
provided with data using loose federation from some member instances and
tight federation from others." (Section II-C2)

A :class:`LooseChannel` snapshots the satellite schema (filtered the same
way tight replication filters — realm selection and resource routing apply
identically) and loads it into the hub's per-instance schema, replacing the
previous shipment.  The dump records the satellite binlog head at snapshot
time, so :meth:`LooseChannel.to_tight` can hand over to a live channel with
no gap or overlap.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..obs import Observability, TraceContext
from ..warehouse import (
    Database,
    Schema,
    dump_schema,
    load_schema,
    read_dump_file,
    write_dump_file,
)
from ..warehouse.dump import dump_checksum
from .replicator import (
    RESOURCE_SCOPED_TABLES,
    ReplicationChannel,
    ReplicationFilter,
)


def _filtered_dump(source: Schema, filter: ReplicationFilter) -> dict[str, Any]:
    """Dump ``source`` with the channel filter applied to tables and rows."""
    full = dump_schema(source)
    resource_names: dict[int, str] = {}
    if source.has_table("dim_resource"):
        for row in source.table("dim_resource").rows():
            resource_names[row["resource_id"]] = row["name"]

    def row_allowed(table_name: str, row: dict[str, Any]) -> bool:
        if table_name == "dim_resource":
            if not filter.drop_excluded_dim_rows:
                return True
            return not filter._resource_excluded(row["name"])
        if table_name in RESOURCE_SCOPED_TABLES:
            name = resource_names.get(row.get("resource_id"))
            if name is not None and filter._resource_excluded(name):
                return False
        return True

    tables = []
    for entry in full["tables"]:
        name = entry["schema"]["name"]
        filter.note_table(name, bool(entry["schema"].get("derived")))
        if not filter.table_allowed(name):
            continue
        columns = [c["name"] for c in entry["schema"]["columns"]]
        rows = [
            row
            for row in entry["rows"]
            if row_allowed(name, dict(zip(columns, row)))
        ]
        tables.append({"schema": entry["schema"], "rows": rows})
    full["tables"] = tables
    # the original checksum covered the unfiltered content; recompute it
    # over the filtered document so the hub can verify exactly what ships
    full["checksum"] = dump_checksum(full)
    return full


class LooseChannel:
    """Batch dump shipping from one satellite schema into the hub."""

    def __init__(
        self,
        source: Schema,
        hub_database: Database,
        target_schema_name: str,
        *,
        filter: ReplicationFilter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.source = source
        self.hub_database = hub_database
        self.target_schema_name = target_schema_name
        self.filter = filter or ReplicationFilter()
        self.obs = obs
        self.last_shipped_lsn: int | None = None
        self.shipments = 0

    def export(self) -> dict[str, Any]:
        """Produce the (filtered) dump document to ship.

        The dump carries the trace context recorded with the newest
        satellite binlog event (key ``trace``, outside the checksummed
        table content), so the hub-side load re-parents into the trace
        that produced the data.
        """
        dump = _filtered_dump(self.source, self.filter)
        context = self.source.binlog.trace_context(
            self.source.binlog.head_lsn - 1
        )
        if context is not None:
            dump["trace"] = context.to_payload()
        return dump

    def ship(self) -> Schema:
        """Snapshot the satellite and load it into the hub, replacing the
        previous shipment.  Returns the hub-side schema."""
        dump = self.export()
        schema = self._load(dump)
        self.last_shipped_lsn = dump["binlog_head"]
        self.shipments += 1
        return schema

    def ship_via_file(self, path: str | Path) -> Schema:
        """Ship through an on-disk dump file (the literal paper mechanism:
        'database dumps could be periodically shipped to the federation
        hub').

        The received file is checksum-verified before loading: a dump
        corrupted or truncated in transit raises
        :class:`~repro.warehouse.DumpError` and the previous shipment (if
        any) stays in place on the hub.
        """
        write_dump_file(self.export(), path)
        received = read_dump_file(path)
        schema = self._load(received)
        self.last_shipped_lsn = received["binlog_head"]
        self.shipments += 1
        return schema

    def _load(self, dump: dict[str, Any]) -> Schema:
        """Verified load into the hub's per-instance schema.

        Re-parents a ``loose_load`` span under the shipped trace context
        when the hub carries a tracer, so even batch shipments appear in
        the federated trace.
        """
        context = TraceContext.from_payload(dump.get("trace"))
        if self.obs is not None and context is not None:
            with self.obs.tracer.span(
                "loose_load",
                remote=context,
                member=self.source.name,
                target=self.target_schema_name,
            ):
                return self._load_verified(dump)
        return self._load_verified(dump)

    def _load_verified(self, dump: dict[str, Any]) -> Schema:
        return load_schema(
            self.hub_database,
            dump,
            rename_to=self.target_schema_name,
            replace=True,
            verify_checksum=True,
        )

    @property
    def staleness(self) -> int:
        """Satellite binlog events committed since the last shipment.

        The loose-federation freshness cost the A1 ablation measures.
        """
        if self.last_shipped_lsn is None:
            return self.source.binlog.head_lsn
        return self.source.binlog.head_lsn - self.last_shipped_lsn

    def to_tight(self) -> ReplicationChannel:
        """Convert to live replication, resuming from the last shipment.

        Must ship at least once first, so the hub schema exists and the
        binlog position is known.
        """
        if self.last_shipped_lsn is None:
            raise RuntimeError("cannot convert to tight before first shipment")
        target = self.hub_database.schema(self.target_schema_name)
        return ReplicationChannel(
            self.source,
            target,
            filter=self.filter,
            start_lsn=self.last_shipped_lsn,
            obs=self.obs,
        )
