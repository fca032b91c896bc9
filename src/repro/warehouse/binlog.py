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

A batch write (:meth:`Binlog.extend`, one per run of like events in a
``Table.upsert_columns``) is stored as one record holding the row tuples
the table stores, and its events are built when read: a bulk load keeps
no object per row in the log, while every reader sees the events — LSNs,
payloads, checksums — that one append per row would have logged.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

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

    def events(self) -> list["BinlogEvent"]:
        """The record's events, as :meth:`RowBatch.events` says: itself."""
        return [self]


class RowBatch(NamedTuple):
    """A batch record: a run of ``INSERT`` or ``UPDATE`` events as rows.

    One :meth:`Binlog.extend` on one table, kept as the row tuples the
    table stores (and, for updates, their keys) — the events are built
    when read, and a hub applies the rows as they are."""

    base: int
    etype: EventType
    table: str
    names: tuple[str, ...]
    rows: Sequence[tuple[Any, ...]]
    keys: Sequence[tuple[Any, ...]] | None

    def window(self, lsn: int, stop: int) -> "RowBatch":
        """The part of the batch from LSN ``lsn`` up to ``stop``."""
        lo, hi = max(lsn - self.base, 0), stop - self.base
        if lo == 0 and hi >= len(self.rows):
            return self
        keys = None if self.keys is None else self.keys[lo:hi]
        return self._replace(base=self.base + lo, rows=self.rows[lo:hi], keys=keys)

    def to_dict(self) -> dict[str, Any]:
        """The record as plain data: ``names`` once, then the rows (and,
        for updates, their ``keys``)."""
        return {**self._asdict(), "etype": self.etype.value, "rows": list(self.rows)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RowBatch":
        """Decode :meth:`to_dict` output; a record :meth:`Binlog.extend`
        could not have written is a :class:`BinlogError`: other than
        ``INSERT`` or ``UPDATE``, without one key per ``UPDATE`` row (none
        for an ``INSERT``), or with a row not as long as ``names``."""
        etype, names, keys = EventType(payload["etype"]), tuple(payload["names"]), payload["keys"]
        rows = [tuple(row) for row in payload["rows"]]
        keyed = etype is EventType.UPDATE and keys is not None and len(keys) == len(rows)
        if not (keyed or etype is EventType.INSERT and keys is None) or any(
            len(row) != len(names) for row in rows
        ):
            raise BinlogError(f"no log holds this {etype.value} batch record on {payload['table']!r}")
        keys = None if keys is None else [tuple(key) for key in keys]
        return cls(int(payload["base"]), etype, payload["table"], names, rows, keys)

    def events(self) -> list[BinlogEvent]:
        """The batch's events, with fresh payloads."""
        base, etype, table, names = self.base, self.etype, self.table, self.names
        if self.keys is None:
            return [
                BinlogEvent(base + i, etype, table, {"row": dict(zip(names, row))})
                for i, row in enumerate(self.rows)
            ]
        return [
            BinlogEvent(
                base + i, etype, table,
                {"key": list(key), "row": dict(zip(names, row))},
            )
            for i, (key, row) in enumerate(zip(self.keys, self.rows))
        ]


class Binlog:
    """Append-only, in-memory change log for one schema.

    The log is a list of chunks, each one event (:meth:`append`) or one
    batch record (:meth:`extend`), with the LSN each starts at;
    :meth:`read_records` hands out a window's chunks and
    :meth:`read_from` builds its events from them.

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
        self._chunks: list[BinlogEvent | RowBatch] = []
        self._starts: list[int] = []  # first LSN of each chunk
        self._head = 0
        self._lock = create_lock("Binlog")  # guards: _chunks, _starts, _head
        #: telemetry hook, called with the number of events recorded (once
        #: per :meth:`append`, once per :meth:`extend`) — must be cheap and
        #: non-raising; invoked outside the log lock so a slow observer
        #: cannot stall replication tails
        self._on_append = on_append
        #: trace propagation: called per append / per batch (outside the
        #: lock) for the live trace context, kept in a sidecar keyed by the
        #: chunk's first LSN so event payloads — and therefore binlog/dump
        #: checksums — never change
        self._trace_provider = trace_provider
        self._trace: dict[int, Any] = {}

    def _recorded(self, base: int, n: int) -> None:
        """Telemetry and trace context for a chunk just recorded; outside
        the lock."""
        if self._on_append is not None:
            self._on_append(n)
        if self._trace_provider is not None:
            context = self._trace_provider()
            if context is not None:
                self._trace[base] = context

    def append(self, etype: EventType, table: str, data: dict[str, Any] | None = None) -> BinlogEvent:
        """Record one event; returns it with its assigned LSN."""
        with self._lock:
            event = BinlogEvent(
                lsn=self._head, etype=etype, table=table, data=data or {}
            )
            self._chunks.append(event)
            self._starts.append(event.lsn)
            self._head += 1
        self._recorded(event.lsn, 1)
        return event

    def extend(
        self,
        etype: EventType,
        table: str,
        names: Sequence[str],
        rows: Sequence[tuple[Any, ...]],
        keys: Sequence[tuple[Any, ...]] | None = None,
    ) -> int:
        """Record one ``etype`` event on ``table`` per row, as one batch
        record; returns the first LSN.

        ``rows`` are row tuples over ``names``, kept as they are (callers
        hand over tuples nothing mutates): each reads back as an
        ``INSERT`` payload ``{"row": dict(zip(names, row))}`` or, given
        ``keys`` (one per row), an ``UPDATE`` payload ``{"key":
        list(key), "row": ...}``.  The events read back exactly as after
        one :meth:`append` per row — same events, same LSNs — but the
        batch takes the lock once (so its LSNs are contiguous even under
        concurrent appenders), keeps no object per row, calls the
        telemetry hook once with the count, and captures one trace
        context shared by all its LSNs.
        """
        n = len(rows)
        with self._lock:
            base = self._head
            if n:
                self._chunks.append(RowBatch(base, etype, table, tuple(names), rows, keys))
                self._starts.append(base)
                self._head += n
        if n:
            self._recorded(base, n)
        return base

    def trace_context(self, lsn: int):
        """Trace context captured when event ``lsn`` was appended (or None)."""
        if not 0 <= lsn < self._head:
            return None
        return self._trace.get(self._starts[bisect_right(self._starts, lsn) - 1])

    @property
    def head_lsn(self) -> int:
        """LSN that the *next* appended event will receive."""
        with self._lock:
            return self._head

    def read_records(
        self, lsn: int, limit: int | None = None
    ) -> list[BinlogEvent | RowBatch]:
        """The window :meth:`read_from` reads, as the log holds it: single
        events as they are and batch records as :class:`RowBatch` records
        sliced to the window, with no object per row.

        Requesting a position beyond the head is allowed (empty result); a
        negative position is a :class:`BinlogError`.
        """
        if lsn < 0:
            raise BinlogError(f"negative LSN {lsn}")
        with self._lock:
            stop = self._head if limit is None else min(self._head, lsn + limit)
            if lsn >= stop:
                return []
            starts = self._starts
            first = bisect_right(starts, lsn) - 1
            records = self._chunks[first : bisect_left(starts, stop, first)]
        # only the first and the last chunk can reach outside the window
        for at in (0, -1):
            if type(records[at]) is RowBatch:
                records[at] = records[at].window(lsn, stop)
        return records

    def read_from(self, lsn: int, limit: int | None = None) -> list[BinlogEvent]:
        """Return events with LSN >= ``lsn``, up to ``limit`` of them: the
        :meth:`read_records` window, each batch record's events built by
        the read, each with a fresh payload."""
        return [event for record in self.read_records(lsn, limit) for event in record.events()]

    def __len__(self) -> int:
        with self._lock:
            return self._head

    def __iter__(self) -> Iterator[BinlogEvent]:
        return iter(self.read_from(0))

    def checksum(self) -> str:
        """Stable digest over the whole log's events, to compare logs by."""
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

    def poll(self, max_events: int | None = None) -> list[BinlogEvent | RowBatch]:
        """Fetch unconsumed events, as :meth:`Binlog.read_records` records,
        without advancing the cursor."""
        return self._binlog.read_records(self._position, max_events)

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

