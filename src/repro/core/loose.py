"""Loose federation: periodic shipping of dumps and binlog segments.

"Instead, log files or database dumps could be periodically shipped to the
federation hub, and batch processed there to make their data available to
the federation.  This latter method would be considered 'loose' federation.
A heterogeneous model could also be employed, in which a federation hub is
provided with data using loose federation from some member instances and
tight federation from others." (Section II-C2)

A :class:`LooseChannel` is a shipping front end over a member's one
hub-side :class:`ReplicationChannel`, :attr:`LooseChannel.channel`: tight
and loose differ only in how that channel is fed.  Each ship sends what
:meth:`LooseChannel.export` cuts, one of two documents:

- a **dump** of the satellite seen through the channel's filter, loaded
  in place of the hub's copy, when the channel's one resync rule
  (:meth:`ReplicationChannel.resync_due`) says the copy cannot be carried
  on: the first ship, a filter change, a rename across the routing
  boundary, a lost log or hub schema;
- a **segment** otherwise: the satellite binlog's own records from the
  channel's cursor on — single events and batch records, as a pump polls
  them — cut by the channel's filter as a pump's are
  (:meth:`ReplicationFilter.cut`) and only the admitted parts kept;
  verified and decoded before anything applies, then applied through
  :meth:`ReplicationChannel.apply`, the tight apply path, whose filter
  drops whatever a document read from disk carries that it must not.

The cursor stands at :attr:`LooseChannel.last_shipped_lsn`, so
:meth:`~repro.core.FederationHub.convert` switches a member between the
two feeds with no gap or overlap.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs import Observability, TraceContext
from ..warehouse import Database, DumpError, Schema, read_dump_file, write_dump_file
from ..warehouse.dump import SEGMENT_KIND, segment_document, segment_records
from .replicator import ReplicationChannel, ReplicationFilter
from .resilience import RetryPolicy


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

    ``filter``, ``obs``, ``retry_policy``, ``quarantine`` and ``name``
    configure :attr:`channel` as they would a tight
    :class:`ReplicationChannel`.
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
        #: the channel every ship goes through (assign another to ship into
        #: it); a detached stand-in is its target until the first dump
        self.channel = ReplicationChannel(
            source, Schema(target_schema_name), filter=filter,
            retry_policy=retry_policy, quarantine=quarantine, obs=obs, name=name,
        )
        self.hub_database = hub_database
        self.stats = LooseStats()

    @property
    def shipments(self) -> int:
        """Successful ships, dumps and segments alike."""
        return self.stats.dumps + self.stats.segments

    @property
    def last_shipped_lsn(self) -> int | None:
        """The satellite binlog position the hub's copy is whole up to
        (the channel's cursor); None while the hub holds no copy."""
        if not self.hub_database.has_schema(self.channel.target.name):
            return None
        return self.channel.cursor.position

    def export(self) -> dict[str, Any]:
        """Produce the document the next ship sends: a filtered dump or a
        binlog segment (the module docstring says which).

        The document carries the trace context recorded with the newest
        satellite binlog event it covers (key ``trace``), so the hub-side
        load re-parents into the trace that produced the data.
        """
        channel = self.channel
        log = channel.source.binlog
        if not channel.resync_due(self.hub_database):
            base, head = channel.cursor.position, log.head_lsn
            records = log.read_records(base, head - base)
            kept = [part for admitted, part in channel.filter.cut(records) if admitted]
            # a rename in the records may have flipped a resource: only a
            # dump then ships what the hub should hold
            if not channel.resync_due(self.hub_database):
                return segment_document(
                    channel.source.name, base, head, kept,
                    trace=self._trace_payload(head),
                )
        return channel.dump(trace=self._trace_payload(log.head_lsn))

    def _trace_payload(self, head: int) -> dict[str, Any] | None:
        context = self.channel.source.binlog.trace_context(head - 1)
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
        """Verify and apply one shipped document.

        When the hub carries a tracer, the apply runs in a ``loose_load``
        span labelled with the channel's ``name`` (the member's name under
        ``FederationHub.join``).  A dump's span re-parents under the
        shipped trace context, so even batch shipments appear in the
        federated trace; a segment's is the hub's own, and its records
        re-parent one by one in the channel's apply, as a pump's do.
        """
        channel = self.channel
        segment = document.get("kind") == SEGMENT_KIND
        context = None if segment else TraceContext.from_payload(document.get("trace"))
        span = (
            channel.obs.tracer.span(
                "loose_load", remote=context, member=channel.name, target=channel.target.name
            )
            if channel.obs is not None and (segment or context is not None)
            else contextlib.nullcontext()
        )
        with span:
            if segment:
                self._apply_segment(document)
            else:
                self.stats.rows_moved += channel.load(self.hub_database, document)
                self.stats.dumps += 1
        return self.hub_database.schema(channel.target.name)

    def _apply_segment(self, segment: dict[str, Any]) -> None:
        records = segment_records(segment)  # verified before anything applies
        if segment["base_lsn"] != self.last_shipped_lsn:
            raise DumpError(
                f"segment of {self.channel.source.name!r} starts at LSN "
                f"{segment['base_lsn']}, the hub holds up to "
                f"{self.last_shipped_lsn}"
            )
        applied = self.channel.apply(records, stop=segment["binlog_head"])
        self.stats.segments += 1
        self.stats.events_moved += applied

    @property
    def staleness(self) -> int:
        """Satellite binlog events committed since the last shipment.

        The loose-federation freshness cost the A1 ablation measures.
        """
        return self.channel.lag
