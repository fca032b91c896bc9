"""Loose federation: periodic shipping of dumps and binlog segments.

"Instead, log files or database dumps could be periodically shipped to the
federation hub, and batch processed there to make their data available to
the federation.  This latter method would be considered 'loose' federation.
A heterogeneous model could also be employed, in which a federation hub is
provided with data using loose federation from some member instances and
tight federation from others." (Section II-C2)

A :class:`LooseChannel` ships one satellite schema into the hub's
per-instance schema.  :meth:`LooseChannel.export` produces what a ship
sends, one of two checksummed documents:

- a **dump** of the whole satellite schema, filtered the way tight
  replication filters (realm selection and resource routing apply
  identically), which the hub loads in place of what it held.  A channel
  dumps on its first ship; on the ship after a segment whose apply failed
  partway (the hub holds part of that segment, and the dump resyncs it);
  when its filter, or the filter's settings, changed since the last dump
  (so a routing change re-filters history); and when the satellite's
  binlog no longer holds the events since the last ship, or the hub no
  longer holds the shipped schema.
- a **segment** on every other ship: the satellite binlog events since
  the last ship that the channel's filter admits.  The hub verifies the
  segment before it applies anything, then applies it on top of what it
  holds through :meth:`ReplicationChannel.apply`, the tight channel's
  apply path.

Both record the satellite binlog head they cover, which becomes
:attr:`LooseChannel.last_shipped_lsn` only once the document is verified
and applied.  The hub side of the channel is one
:class:`ReplicationChannel`, :attr:`LooseChannel.channel`, built once:
every segment applies through it (with its retry policy, quarantine and
telemetry), a dump re-points it at the loaded schema and drops the dead
letters of the events it covers (``ChannelStats.events_quarantined``
keeps its count), and its cursor stands at the last shipped LSN, so
:meth:`LooseChannel.to_tight` hands that same channel over to live
replication with no gap or overlap.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..obs import Observability, TraceContext
from ..warehouse import (
    Database,
    DumpError,
    Schema,
    Table,
    dump_schema,
    load_schema,
    read_dump_file,
    write_dump_file,
)
from ..warehouse.dump import SEGMENT_KIND, segment_document, segment_events
from .replicator import (
    RESOURCE_SCOPED_TABLES,
    ReplicationChannel,
    ReplicationFilter,
)
from .resilience import RetryPolicy


def _filtered_dump(source: Schema, filter: ReplicationFilter) -> dict[str, Any]:
    """Dump ``source`` with the channel filter applied to tables and rows.

    The dump teaches ``filter`` what the log before it would have: whether
    each table is derived, and every ``dim_resource`` id -> name pair,
    excluded resources' included.  The segments and the tight channel
    that carry on from the dump see only later events, and route a new
    fact row by what the filter learned here.
    """
    if source.has_table("dim_resource"):
        for resource_id, name in source.table("dim_resource").columns_values(
            ("resource_id", "name")
        ):
            filter.note_resource(resource_id, name)

    def select(table: Table) -> Iterable[Sequence[Any]] | None:
        name, schema = table.name, table.schema
        filter.note_table(name, schema.derived)
        if not filter.table_allowed(name):
            return None
        if name == "dim_resource" and filter.drop_excluded_dim_rows:
            at = schema.position("name")
            return (
                row for row in table.raw_rows()
                if not filter.resource_excluded(row[at])
            )
        if name in RESOURCE_SCOPED_TABLES:
            at = schema.position("resource_id")
            return (
                row for row in table.raw_rows() if not filter.routed_out(row[at])
            )
        return table.raw_rows()

    return dump_schema(source, select=select)


@dataclass
class LooseStats:
    """What a channel's ships moved: ``dumps`` loaded ``rows_moved`` rows,
    ``segments`` applied ``events_moved`` events."""

    dumps: int = 0
    rows_moved: int = 0
    segments: int = 0
    events_moved: int = 0

    @property
    def moved(self) -> int:
        """Rows loaded plus events applied, over every ship."""
        return self.rows_moved + self.events_moved


class LooseChannel:
    """Batch shipping from one satellite schema into the hub.

    ``obs``, ``retry_policy``, ``quarantine`` and ``name`` configure
    :attr:`channel` as they would a tight :class:`ReplicationChannel`.
    """

    def __init__(
        self,
        source: Schema,
        hub_database: Database,
        target_schema_name: str,
        *,
        filter: ReplicationFilter | None = None,
        obs: Observability | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine: bool = False,
        name: str | None = None,
    ) -> None:
        self.source = source
        self.hub_database = hub_database
        self.target_schema_name = target_schema_name
        self.filter = filter or ReplicationFilter()
        self.obs = obs
        #: the hub-side applier.  A segment holds only what ``filter``
        #: admitted, so until :meth:`to_tight` installs ``filter`` the
        #: applier's own keeps just the standing exclusions, which admit
        #: all of it.  Its target is a detached stand-in until the first
        #: ship, always a dump, loads the hub schema.
        self.channel = ReplicationChannel(
            source, Schema(target_schema_name),
            filter=ReplicationFilter(tables=None), retry_policy=retry_policy,
            quarantine=quarantine, obs=obs, name=name,
        )
        self.last_shipped_lsn: int | None = None
        self.stats = LooseStats()
        #: the filter, and its settings, the last loaded dump was cut with
        self._dumped_with: tuple | None = None
        #: a segment's apply failed partway: the hub holds part of it
        self._resync = False
        #: :meth:`to_tight` gave :attr:`channel` to live replication
        self._handed_over = False

    @property
    def shipments(self) -> int:
        """Successful ships, dumps and segments alike."""
        return self.stats.dumps + self.stats.segments

    def _needs_dump(self) -> bool:
        return (
            self.last_shipped_lsn is None
            or self._resync
            or self._dumped_with != (self.filter, self.filter.settings())
            or self.source.binlog.head_lsn < self.last_shipped_lsn
            or not self.hub_database.has_schema(self.target_schema_name)
        )

    def export(self) -> dict[str, Any]:
        """Produce the document the next ship sends: a filtered dump or a
        binlog segment (the module docstring says which).

        The document carries the trace context recorded with the newest
        satellite binlog event it covers (key ``trace``; outside a dump's
        checksummed table content, inside a segment's checksum), so the
        hub-side load re-parents into the trace that produced the data.
        """
        if not self._needs_dump():
            base = self.last_shipped_lsn
            suffix = self.source.binlog.read_from(base)
            head = base + len(suffix)
            return segment_document(
                self.source.name,
                base,
                head,
                [event for event in suffix if self.filter.admit(event)],
                trace=self._trace_payload(head),
            )
        dump = _filtered_dump(self.source, self.filter)
        trace = self._trace_payload(dump["binlog_head"])
        if trace is not None:
            dump["trace"] = trace
        return dump

    def _trace_payload(self, head: int) -> dict[str, Any] | None:
        context = self.source.binlog.trace_context(head - 1)
        return None if context is None else context.to_payload()

    def ship(self) -> Schema:
        """Export and apply in memory; returns the hub-side schema."""
        return self._receive(self.export())

    def ship_via_file(self, path: str | Path) -> Schema:
        """Ship through an on-disk file (the literal paper mechanism: 'log
        files or database dumps could be periodically shipped to the
        federation hub').

        The received document is checksum-verified before anything is
        applied: a file corrupted or truncated in transit raises
        :class:`~repro.warehouse.DumpError` and the hub keeps what it
        held.
        """
        write_dump_file(self.export(), path)
        return self._receive(read_dump_file(path))

    def _receive(self, document: dict[str, Any]) -> Schema:
        """Verify and apply one shipped document, then record its head.

        Re-parents a ``loose_load`` span, labelled with the channel's
        ``name`` (the member's name under ``FederationHub.join``), under
        the shipped trace context when the hub carries a tracer, so even
        batch shipments appear in the federated trace.
        """
        if self._handed_over:
            raise RuntimeError("the channel was handed over by to_tight()")
        context = TraceContext.from_payload(document.get("trace"))
        span = (
            self.obs.tracer.span(
                "loose_load",
                remote=context,
                member=self.channel.name,
                target=self.target_schema_name,
            )
            if self.obs is not None and context is not None
            else contextlib.nullcontext()
        )
        with span:
            try:
                if document.get("kind") == SEGMENT_KIND:
                    self._apply_segment(document)
                else:
                    self._load_dump(document)
                self.last_shipped_lsn = document["binlog_head"]
            finally:
                # the applier's cursor stands where the hub's copy is
                # whole; a segment refused partway is resent by a dump
                self.channel.cursor.seek(self.last_shipped_lsn or 0)
        return self.hub_database.schema(self.target_schema_name)

    def _load_dump(self, dump: dict[str, Any]) -> None:
        self.channel.target = load_schema(
            self.hub_database,
            dump,
            rename_to=self.target_schema_name,
            replace=True,
            verify_checksum=True,
        )
        # the dump holds the source as of its head, quarantined events
        # included: their letters have nothing left to replay
        letters = self.channel.dead_letters
        for lsn in letters.lsns():
            if lsn < dump["binlog_head"]:
                letters.remove(lsn)
        self._dumped_with = (self.filter, self.filter.settings())
        self._resync = False
        self.stats.dumps += 1
        self.stats.rows_moved += sum(len(entry["rows"]) for entry in dump["tables"])

    def _apply_segment(self, segment: dict[str, Any]) -> None:
        events = segment_events(segment)  # verified before anything applies
        if segment["base_lsn"] != self.last_shipped_lsn:
            raise DumpError(
                f"segment of {self.source.name!r} starts at LSN "
                f"{segment['base_lsn']}, the hub holds up to "
                f"{self.last_shipped_lsn}"
            )
        self._resync = True  # until every event applied
        applied = self.channel.apply(events)
        self._resync = False
        self.stats.segments += 1
        self.stats.events_moved += applied

    @property
    def staleness(self) -> int:
        """Satellite binlog events committed since the last shipment.

        The loose-federation freshness cost the A1 ablation measures.
        """
        return self.channel.lag

    def to_tight(self) -> ReplicationChannel:
        """Hand :attr:`channel` over to live replication, resuming from
        the last shipment: it takes on the routing filter the ships used,
        and the channel ships no more.

        Must ship at least once first, so the hub schema exists and the
        binlog position is known.
        """
        if self.last_shipped_lsn is None:
            raise RuntimeError("cannot convert to tight before first shipment")
        self.channel.filter = self.filter
        self._handed_over = True
        return self.channel
