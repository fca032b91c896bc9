"""Binary log: the replication substrate for federation.

Open XDMoD federation uses Continuent's Tungsten Replicator, which tails the
MySQL binary log of each satellite instance and applies row events to the
federation hub.  This module provides the equivalent primitive: every
committed change to a warehouse schema is appended to that schema's
:class:`Binlog` as a :class:`BinlogEvent` with a monotonically increasing log
sequence number (LSN).  Replicators (see :mod:`repro.core.replicator`) hold a
:class:`BinlogCursor` per source schema and poll for events past their last
applied LSN — exactly the fan-in, resume-from-position semantics Tungsten
gives the paper's "tight" federation.

Events carry enough information to be applied to an empty schema:
``create_table`` events embed the full table schema, and row events embed the
full row image (before-image for deletes/updates keyed by primary key).
Replaying a binlog from LSN 0 onto an empty schema therefore reproduces every
*logged* table exactly — an invariant the test suite checks property-based.
A table whose schema declares it ``derived`` (the ``agg_*`` tables) logs its
creation and removal but not its rows: replay re-creates it empty, and
re-aggregating the replayed facts reproduces its rows, which DESIGN §5
invariant 2 already covers.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..analysis.sanitizer import create_lock
from .errors import BinlogError


class EventType(enum.Enum):
    """Kinds of change events recorded in the binary log."""

    CREATE_TABLE = "create_table"
    DROP_TABLE = "drop_table"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    TRUNCATE = "truncate"


@dataclass(frozen=True)
class BinlogEvent:
    """One change event.

    Attributes
    ----------
    lsn:
        Log sequence number, unique and strictly increasing per binlog.
    etype:
        The :class:`EventType`.
    table:
        Table name the event applies to.
    data:
        Event payload.  For ``CREATE_TABLE``: the table schema dict.  For
        ``INSERT``: ``{"row": {...}}``.  For ``UPDATE``: ``{"key": [...],
        "row": {...}}`` (full after-image; ``Table.update_where`` adds the
        before-image as ``"old_row"``, which is how the applier sees a
        primary key change).  For ``DELETE``: ``{"key":
        [...]}`` or ``{"row": {...}}`` for keyless tables.  ``TRUNCATE`` and
        ``DROP_TABLE`` carry an empty payload, except that dropping a
        derived table says ``{"derived": true}``, as its ``CREATE_TABLE``
        did: every event about a derived table says what it is.
    """

    lsn: int
    etype: EventType
    table: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "lsn": self.lsn,
            "etype": self.etype.value,
            "table": self.table,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BinlogEvent":
        return cls(
            lsn=int(payload["lsn"]),
            etype=EventType(payload["etype"]),
            table=payload["table"],
            data=payload.get("data", {}),
        )


class Binlog:
    """Append-only, in-memory change log for one schema.

    Thread-safe: ingest (the ETL pipeline) and replication (the federation
    replicator thread) may run concurrently, as they do in a live XDMoD
    deployment where nightly ingest overlaps Tungsten's tailing.
    """

    def __init__(
        self,
        *,
        on_append: Callable[[int], None] | None = None,
        trace_provider: Callable[[], Any] | None = None,
    ) -> None:
        self._events: list[BinlogEvent] = []
        self._lock = create_lock("Binlog")  # guards: _events
        #: telemetry hook, called with the number of events recorded (once
        #: per :meth:`append`, once per :meth:`extend`) — must be cheap and
        #: non-raising; invoked outside the log lock so a slow observer
        #: cannot stall replication tails
        self._on_append = on_append
        #: trace propagation: called per append / per batch (outside the
        #: lock) for the live trace context, kept in a sidecar keyed by LSN
        #: so event payloads — and therefore binlog/dump checksums — never
        #: change
        self._trace_provider = trace_provider
        self._trace: dict[int, Any] = {}

    def append(self, etype: EventType, table: str, data: dict[str, Any] | None = None) -> BinlogEvent:
        """Record one event; returns it with its assigned LSN."""
        with self._lock:
            event = BinlogEvent(
                lsn=len(self._events), etype=etype, table=table, data=data or {}
            )
            self._events.append(event)
        if self._on_append is not None:
            self._on_append(1)
        if self._trace_provider is not None:
            context = self._trace_provider()
            if context is not None:
                self._trace[event.lsn] = context
        return event

    def extend(
        self, etype: EventType, table: str, payloads: Sequence[dict[str, Any]]
    ) -> list[BinlogEvent]:
        """Record one ``etype`` event on ``table`` per payload, as a batch.

        The log ends up exactly as after one :meth:`append` per payload —
        same events, same LSNs — but the batch takes the lock once (so its
        LSNs are contiguous even under concurrent appenders), calls the
        telemetry hook once with the count, and captures one trace context
        shared by all its LSNs.
        """
        with self._lock:
            base = len(self._events)
            events = [
                BinlogEvent(lsn=base + i, etype=etype, table=table, data=data)
                for i, data in enumerate(payloads)
            ]
            self._events.extend(events)
        if not events:
            return events
        if self._on_append is not None:
            self._on_append(len(events))
        if self._trace_provider is not None:
            context = self._trace_provider()
            if context is not None:
                self._trace.update(dict.fromkeys(range(base, base + len(events)), context))
        return events

    def trace_context(self, lsn: int):
        """Trace context captured when event ``lsn`` was appended (or None)."""
        return self._trace.get(lsn)

    @property
    def head_lsn(self) -> int:
        """LSN that the *next* appended event will receive."""
        with self._lock:
            return len(self._events)

    def read_from(self, lsn: int, limit: int | None = None) -> list[BinlogEvent]:
        """Return events with LSN >= ``lsn``, up to ``limit`` of them.

        Requesting a position beyond the head is allowed (empty result); a
        negative position is a :class:`BinlogError`.
        """
        if lsn < 0:
            raise BinlogError(f"negative LSN {lsn}")
        with self._lock:
            chunk = self._events[lsn : (lsn + limit) if limit is not None else None]
            return list(chunk)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[BinlogEvent]:
        return iter(self.read_from(0))

    def checksum(self) -> str:
        """Stable digest over the whole log (used in consistency checks)."""
        h = hashlib.sha256()
        for event in self.read_from(0):
            h.update(
                json.dumps(event.to_dict(), sort_keys=True, default=str).encode()
            )
        return h.hexdigest()


class BinlogCursor:
    """A consumer position in a binlog.

    Each replication channel (satellite schema -> hub schema) owns one
    cursor; committing advances the position so replication is resumable and
    idempotent at the event level.
    """

    def __init__(self, binlog: Binlog, start_lsn: int = 0) -> None:
        if start_lsn < 0:
            raise BinlogError(f"negative start LSN {start_lsn}")
        self._binlog = binlog
        self._position = start_lsn

    @property
    def position(self) -> int:
        return self._position

    @property
    def lag(self) -> int:
        """Number of events not yet consumed."""
        return max(0, self._binlog.head_lsn - self._position)

    def poll(self, max_events: int | None = None) -> list[BinlogEvent]:
        """Fetch unconsumed events without advancing the cursor."""
        return self._binlog.read_from(self._position, max_events)

    def commit(self, lsn: int) -> None:
        """Advance the cursor past event ``lsn``.

        Committing backwards is refused — replication never un-applies.
        """
        if lsn + 1 < self._position:
            raise BinlogError(
                f"cursor at {self._position} cannot commit earlier LSN {lsn}"
            )
        self._position = max(self._position, lsn + 1)

    def seek(self, lsn: int) -> None:
        """Reposition the cursor (used when re-provisioning a channel)."""
        if lsn < 0:
            raise BinlogError(f"negative LSN {lsn}")
        self._position = lsn


def row_event_filter(
    predicate: Callable[[BinlogEvent], bool],
    events: Sequence[BinlogEvent],
) -> list[BinlogEvent]:
    """Filter row events, always keeping DDL (create/drop/truncate).

    Selective replication (the paper's resource routing, Section II-C4) must
    drop *rows* for excluded resources while still creating the tables, so
    the hub schema stays structurally complete.
    """
    kept: list[BinlogEvent] = []
    for event in events:
        if event.etype in (EventType.CREATE_TABLE, EventType.DROP_TABLE, EventType.TRUNCATE):
            kept.append(event)
        elif predicate(event):
            kept.append(event)
    return kept
