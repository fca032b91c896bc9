"""Tight federation: the Tungsten-Replicator-equivalent binlog shipper.

"The technology we chose for replicating XDMoD instance data into the
federation master hub is Continuent's Tungsten Replicator... Tungsten reads
binary logs on the XDMoD instance databases, copying their tables into new,
uniquely named schemas (one schema per XDMoD instance) on the XDMoD
federation hub's database.  Tungsten supports renaming the data schema
during transfer, and selective replication of data from satellite
instances, both of which we have opted to do for federation."

:class:`ReplicationChannel` tails one satellite schema's binlog through a
:class:`~repro.warehouse.binlog.BinlogCursor` and applies events to the
hub's per-instance schema (``fed_<instance>`` by convention).  A
:class:`ReplicationFilter` implements the selective part:

- **table selection** — the initial federation release replicates only the
  HPC Jobs realm; user-profile and heavy SUPReMM timeseries tables are
  excluded (Sections II-C1, II-C5);
- **resource routing** — rows belonging to excluded resources are dropped
  before they ever reach the hub, "which could ensure that potentially
  sensitive data does not ever get replicated" (Section II-C4).  The filter
  learns the resource_id -> name mapping by watching ``dim_resource``
  rows stream past (or from a dump of the source cut before them), so it
  needs no out-of-band catalog.  The hub holds the source seen through the
  filter by each resource's *current* name (DESIGN §5, invariant 6), which
  the channel's one resync rule (:meth:`ReplicationChannel.resync_due`)
  keeps when a rename moves a resource across the routing boundary.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Iterable, Iterator, Sequence

from ..etl.perfingest import HEAVY_TABLES
from ..etl.star import JOBS_REALM_TABLES
from ..obs import Observability
from ..warehouse import BinlogCursor, BinlogEvent, Database, EventType, RowBatch, Schema, Table
from ..warehouse import dump_schema, load_schema
from .errors import ReplicationError
from .resilience import DeadLetterQueue, RetryPolicy

#: Tables holding user-profile data, never replicated (Section II-C1:
#: "user profile information [is] presently excluded").
USER_PROFILE_TABLES = ("users", "user_profiles", "sessions", "acls")

#: Fact tables whose rows carry a ``resource_id`` subject to routing.
RESOURCE_SCOPED_TABLES = (
    "fact_job", "fact_job_perf", "fact_job_analytics", "fact_storage",
    "fact_vm", "fact_vm_interval",
)

#: The column that routes a row of each routed table: a ``dim_resource``
#: row goes by its own name, a resource-scoped row by its resource's.
_ROUTED_BY = {
    "dim_resource": "name", **dict.fromkeys(RESOURCE_SCOPED_TABLES, "resource_id")
}

_NULL_CONTEXT = contextlib.nullcontext()


def supremm_summary_filter(**kwargs) -> "ReplicationFilter":
    """The paper's planned next release (Section II-C5): replicate the
    jobs realm *plus summarized* performance data (``fact_job_perf`` and
    the ``fact_job_analytics`` efficiency summaries), still never the
    storage-intensive raw timeseries."""
    return ReplicationFilter(
        tables=tuple(JOBS_REALM_TABLES)
        + ("fact_job_perf", "fact_job_analytics"),
        **kwargs,
    )


class ReplicationFilter:
    """Stateful event filter for one replication channel.

    Parameters
    ----------
    tables:
        Whitelist of table names to replicate.  ``None`` means "all except
        the standing exclusions" (user profiles, heavy timeseries, ETL
        bookkeeping, and every table whose schema declares itself
        ``derived`` — the hub re-aggregates raw data itself, so satellite
        aggregates are never shipped, whatever the whitelist says).
    exclude_resources:
        Resource *names* whose rows must not reach the hub: their
        ``dim_resource`` rows and their resource-scoped fact rows.
    include_resources:
        If given, only these resource names' rows replicate (an
        allowlist; combines with ``exclude_resources``).
    """

    def __init__(
        self,
        tables: Sequence[str] | None = tuple(JOBS_REALM_TABLES),
        *,
        exclude_resources: Iterable[str] = (),
        include_resources: Iterable[str] | None = None,
    ) -> None:
        self.tables = tuple(tables) if tables is not None else None
        self.exclude_resources = set(exclude_resources)
        self.include_resources = (
            set(include_resources) if include_resources is not None else None
        )
        #: learned from dim_resource events flowing through the channel
        self._resource_names: dict[int, str] = {}
        #: tables whose schema description said ``derived``
        self._derived: set[str] = set()
        #: resources whose rows went by, admitted, before they were named
        self._unnamed: set[Any] = set()
        #: names that moved a resource across the routing boundary
        self._flips = 0

    # -- table-level selection -------------------------------------------------

    def note_table(self, table: str, derived: bool) -> None:
        """Learn whether ``table`` is derived from a description of it going
        by: a ``CREATE_TABLE`` / ``DROP_TABLE`` payload, a dump entry.  A
        derived table logs nothing else, so a channel started anywhere in
        the log learns of it from the first event that mentions it."""
        if derived:
            self._derived.add(table)
        else:
            self._derived.discard(table)

    def settings(self) -> tuple:
        """What the filter was configured with, not what it has learned:
        a channel that sees this change must re-filter its history."""
        return (
            self.tables,
            frozenset(self.exclude_resources),
            None if self.include_resources is None
            else frozenset(self.include_resources),
        )

    def table_allowed(self, table: str) -> bool:
        if table in USER_PROFILE_TABLES or table in HEAVY_TABLES:
            return False
        if table == "etl_markers" or table in self._derived:
            return False
        if self.tables is None:
            return True
        return table in self.tables

    # -- row-level routing ------------------------------------------------------

    def note_resource(self, resource_id: Any, name: Any) -> None:
        """Learn that ``resource_id`` names resource ``name``: from a
        ``dim_resource`` event going by, or a row of a dump.  A new name
        that moves a known resource across the routing boundary counts
        as a flip, and so does an excluding first name for a resource
        whose rows went by unnamed, and so admitted."""
        if resource_id is None or name is None:
            return
        known = self._resource_names.get(resource_id)
        went_by = known is not None or resource_id in self._unnamed
        was_out = known is not None and self.resource_excluded(known)
        if went_by and was_out != self.resource_excluded(name):
            self._flips += 1
        self._unnamed.discard(resource_id)
        self._resource_names[resource_id] = name

    def resource_excluded(self, name: str) -> bool:
        include = self.include_resources
        return name in self.exclude_resources or (
            include is not None and name not in include
        )

    def routes(self, table: str) -> bool:
        """True when the settings keep some rows of ``table`` off the hub."""
        return table in _ROUTED_BY and bool(
            self.exclude_resources or self.include_resources is not None
        )

    def routed_out(self, table: str, value: Any) -> bool:
        """The routing rule, one row at a time: True when a row of
        ``table`` whose routing column holds ``value`` must not reach the
        hub — a ``dim_resource`` row by its own name, a resource-scoped
        row by its resource's current name.  :meth:`admit` applies it to
        an event's row image, :meth:`split` to a batch record's rows,
        :meth:`select` to a table's rows."""
        name = value if table == "dim_resource" else self._resource_names.get(value)
        return name is not None and self.resource_excluded(name)

    def select(self, table: Table) -> Iterable[Sequence[Any]] | None:
        """What a member's hub copy holds of the source ``table``: the rows
        :meth:`routed_out` lets through, or None for a derived table or
        one :meth:`table_allowed` refuses.  A filtered dump holds this and
        the fidelity check compares the hub's copy with it; it learns
        nothing."""
        name = table.name
        if table.schema.derived or not self.table_allowed(name):
            return None
        if not self.routes(name):
            return table.raw_rows()
        at = table.schema.position(_ROUTED_BY[name])
        return (row for row in table.raw_rows() if not self.routed_out(name, row[at]))

    def admit(self, event: BinlogEvent) -> bool:
        """True when ``event`` should be applied to the hub."""
        etype, table = event.etype, event.table
        if etype in (EventType.CREATE_TABLE, EventType.DROP_TABLE):
            self.note_table(table, bool(event.data.get("derived")))
        if not self.table_allowed(table):
            return False
        column = _ROUTED_BY.get(table)
        if column is None or etype in (
            EventType.CREATE_TABLE, EventType.DROP_TABLE, EventType.TRUNCATE
        ):
            return True
        row = event.data.get("row") or {}
        if table == "dim_resource":
            self.note_resource(row.get("resource_id"), row.get("name"))
        value = row.get(column)
        if value is None and column == "resource_id" and event.data.get("key"):
            # key-only delete: key order matches the PK; resource_id is
            # the first PK component on all resource-scoped tables
            value = event.data["key"][0]
        if column == "resource_id" and value not in self._resource_names and self.routes(table):
            self._unnamed.add(value)
        return not self.routed_out(table, value)

    def split(self, batch: RowBatch) -> Iterator[tuple[bool, RowBatch]]:
        """:meth:`admit` for a batch record: its rows, cut in log order
        into ``(admitted, slice)`` pairs, learning resource names from a
        ``dim_resource`` batch as the events would teach them.  A batch
        row is a full row image, so its routing value is in the row."""
        table, names, rows = batch.table, batch.names, batch.rows
        allowed, column = self.table_allowed(table), _ROUTED_BY.get(table)
        at = names.index(column) if allowed and column in names else None
        if table == "dim_resource" and at is not None and "resource_id" in names:
            ids = names.index("resource_id")
            for row in rows:
                self.note_resource(row[ids], row[at])
        if at is None or not self.routes(table):
            yield allowed, batch
            return
        if column == "resource_id":
            known = self._resource_names
            self._unnamed.update(row[at] for row in rows if row[at] not in known)
        lsn = batch.base
        for out, run in groupby(self.routed_out(table, row[at]) for row in rows):
            stop = lsn + sum(1 for _ in run)
            yield not out, batch.window(lsn, stop)
            lsn = stop

    def cut(
        self, records: Iterable[BinlogEvent | RowBatch]
    ) -> Iterator[tuple[bool, BinlogEvent | RowBatch]]:
        """The filter over a stretch of the log, in log order: each event
        with :meth:`admit`'s verdict, each batch record's :meth:`split`
        slices.  What a pump applies and what a loose segment ships are
        cut here."""
        for record in records:
            if type(record) is RowBatch:
                yield from self.split(record)
            else:
                yield self.admit(record), record


@dataclass
class ChannelStats:
    """Lifetime counters for one channel (exposed for monitoring).

    ``events_seen`` counts events whose processing *finished* (applied,
    filtered, or quarantined) — an event whose apply fails and will be
    re-polled is not counted until it resolves, so the counters add up
    under partial batches: ``events_seen == events_applied +
    events_filtered + events_quarantined``.  ``syncs`` counts every
    applied batch (a pump, a loose segment), including ones that raised.
    """

    events_seen: int = 0
    events_applied: int = 0
    events_filtered: int = 0
    events_quarantined: int = 0
    syncs: int = 0
    retries: int = 0
    apply_failures: int = 0
    backoff_s: float = 0.0
    last_error: str = ""


class ReplicationChannel:
    """One satellite schema -> one hub schema, with resumable position.

    The resilience knobs (both off by default, preserving strict
    fail-stop semantics):

    retry_policy:
        When set, a failed apply is retried per the policy's backoff
        schedule before being treated as a hard failure — transient hub
        errors never surface at all.
    quarantine:
        When true, an event that still fails after retries is moved to
        :attr:`dead_letters` and the cursor advances past it, so one
        poison event cannot wedge the channel forever.  Quarantined
        events are re-applied later through :meth:`replay`.
    """

    def __init__(
        self,
        source: Schema,
        target: Schema,
        *,
        filter: ReplicationFilter | None = None,
        start_lsn: int = 0,
        retry_policy: RetryPolicy | None = None,
        quarantine: bool = False,
        obs: Observability | None = None,
        name: str | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.filter = filter or ReplicationFilter()
        self.cursor = BinlogCursor(source.binlog, start_lsn)
        self.stats = ChannelStats()
        self.retry_policy = retry_policy
        self.quarantine = quarantine
        self.dead_letters = DeadLetterQueue()
        self.obs = obs
        self.name = name if name is not None else source.name
        #: what the hub's copy was last made with (:meth:`resync_due`)
        self._synced = self._routing(target)
        if obs is not None:
            registry = obs.registry
            label = {"channel": self.name}
            #: each counter publishes the growth of one ChannelStats field
            self._m_stats = {
                "events_applied": registry.counter(
                    "replication_events_applied_total",
                    "Events applied to the hub per channel", ("channel",),
                ).labels(**label),
                "events_filtered": registry.counter(
                    "replication_events_filtered_total",
                    "Events dropped by the replication filter per channel", ("channel",),
                ).labels(**label),
                "retries": registry.counter(
                    "replication_retries_total", "Apply retries per channel", ("channel",),
                ).labels(**label),
                "events_quarantined": registry.counter(
                    "replication_quarantined_total",
                    "Events dead-lettered per channel", ("channel",),
                ).labels(**label),
            }
            self._h_pump = registry.histogram(
                "replication_pump_seconds",
                "Wall time of one pump over this channel",
                ("channel",),
            ).labels(**label)

    @property
    def lag(self) -> int:
        """Unreplicated events waiting in the source binlog."""
        return self.cursor.lag

    def _try_apply(self, event: BinlogEvent) -> Exception | None:
        """Apply one event with retries; returns the final error, if any."""
        policy = self.retry_policy
        attempts = policy.attempts() if policy else range(1)
        last_exc: Exception | None = None
        for attempt in attempts:
            if attempt:
                self.stats.retries += 1
                if policy is not None:
                    self.stats.backoff_s += policy.delay(attempt - 1)
            try:
                self.target.apply_event(event)
                return None
            # repolint: ignore[overbroad-except] -- quarantine boundary: poison events must capture any failure for the dead-letter queue
            except Exception as exc:
                last_exc = exc
                self.stats.apply_failures += 1
                self.stats.last_error = str(exc)
        return last_exc

    def pump(self, max_events: int | None = None) -> int:
        """Apply pending events to the hub; returns events applied.

        An event whose apply fails (after any configured retries) either
        raises :class:`ReplicationError` naming the LSN — the cursor is
        NOT advanced past it (at-least-once delivery; appliers are
        idempotent) — or, with ``quarantine`` enabled, is dead-lettered
        and skipped so the rest of the batch still replicates.
        """
        return self.apply(self.cursor.poll(max_events))

    def apply(
        self, records: Sequence[BinlogEvent | RowBatch], stop: int | None = None
    ) -> int:
        """Apply ``records`` — a stretch of the source log, in LSN order,
        as events and :class:`RowBatch` records — to the hub; returns
        events applied.

        The one apply path: the records meet the filter
        (:meth:`ReplicationFilter.cut`), admitted row batches land through
        :meth:`Schema.apply_rows` with the per-event fallback, and the
        cursor is committed past each record as it resolves.  :meth:`pump`
        feeds it from the cursor, and a loose channel a verified binlog
        segment ending at ``stop``, whose records skip the LSNs its
        export's cut left out: the cursor passes those as filtered.
        """
        if self.obs is None:
            return self._apply(records, stop)
        # telemetry is batch-level: snapshot the lifetime counters, run
        # the batch, publish the deltas — one histogram observation and
        # at most four counter bumps per batch, never per event
        before = {field: getattr(self.stats, field) for field in self._m_stats}
        start = self.obs.clock.now()
        with self.obs.tracer.span("replication_pump", channel=self.name):
            try:
                return self._apply(records, stop)
            finally:
                self._h_pump.observe(self.obs.clock.now() - start)
                for field, counter in self._m_stats.items():
                    if getattr(self.stats, field) != before[field]:
                        counter.inc(getattr(self.stats, field) - before[field])

    def _apply(self, records: Sequence[BinlogEvent | RowBatch], stop: int | None) -> int:
        applied = 0
        # cross-member propagation: each event carries the trace context
        # captured at satellite append time; contiguous records sharing
        # one (context, table) open a single re-parented hub_apply span,
        # so span volume is bounded by context transitions, not event count
        tracer = self.obs.tracer if self.obs is not None else None
        trace_of = self.source.binlog.trace_context
        group_span = None
        group_key = None
        group_n = 0

        def close_group() -> None:
            nonlocal group_span, group_key, group_n
            if group_span is not None:
                group_span.annotate(events=group_n)
                group_span.__exit__(None, None, None)
            group_span = None
            group_key = None
            group_n = 0

        try:
            for admitted, record in self.filter.cut(records):
                single = type(record) is BinlogEvent
                n = 1 if single else len(record.rows)
                first = record.lsn if single else record.base
                self._pass_filtered(first if admitted else first + n)
                if not admitted:
                    continue
                last = first + n - 1
                context = trace_of(first) if tracer is not None else None
                if tracer is not None:
                    key = (context, record.table)
                    if key != group_key:
                        close_group()
                        if context is not None:
                            group_span = tracer.span(
                                "hub_apply",
                                remote=context,
                                channel=self.name,
                                table=record.table,
                            ).__enter__()
                            group_key = key
                    group_n += n
                if not single and self._apply_batch(record):
                    self.stats.events_applied += n
                    self.stats.events_seen += n
                    applied += n
                    self.cursor.commit(last)
                    continue
                for event in record.events():
                    error = self._try_apply(event)
                    if error is not None:
                        attempts = 1 + (
                            self.retry_policy.max_retries if self.retry_policy else 0
                        )
                        if not self.quarantine:
                            close_group()
                            raise ReplicationError(
                                f"channel {self.source.name!r}->"
                                f"{self.target.name!r}: failed applying "
                                f"LSN {event.lsn}: {error}"
                            ) from error
                        self.dead_letters.add(
                            event, str(error), attempts, trace=context
                        )
                        self.stats.events_quarantined += 1
                    else:
                        self.stats.events_applied += 1
                        applied += 1
                    self.stats.events_seen += 1
                    self.cursor.commit(event.lsn)
            if stop is not None:
                self._pass_filtered(stop)
        finally:
            close_group()
            self.stats.syncs += 1
        return applied

    def _pass_filtered(self, lsn: int) -> None:
        """Move the cursor up to ``lsn``, counting the events it passes as
        filtered: here, or by a loose export's cut before they shipped."""
        skipped = lsn - self.cursor.position
        if skipped > 0:
            self.stats.events_filtered += skipped
            self.stats.events_seen += skipped
            self.cursor.commit(lsn - 1)

    def _apply_batch(self, batch: RowBatch) -> bool:
        """Apply a batch's rows at once; False when it raised (nothing
        was applied) and the batch has to go event by event, which is
        where retries, quarantine and the LSN at fault are accounted."""
        try:
            self.target.apply_rows(batch)
            return True
        # repolint: ignore[overbroad-except] -- quarantine boundary: whatever the batch raised is raised again, and captured, by the per-event apply
        except Exception:
            return False

    def replay(self, lsns: Sequence[int] | None = None) -> int:
        """Re-apply dead-lettered events (after the cause is fixed).

        ``lsns`` selects specific letters (default: all, in LSN order).
        Events that apply cleanly leave the queue and count as applied;
        events that fail again stay quarantined.  Returns the number
        successfully replayed.
        """
        targets = list(lsns) if lsns is not None else self.dead_letters.lsns()
        tracer = self.obs.tracer if self.obs is not None else None
        replayed = 0
        for lsn in targets:
            if lsn not in self.dead_letters:
                continue
            letter = self.dead_letters.get(lsn)
            if tracer is not None and letter.trace is not None:
                # re-link the replay to the trace the event originally
                # carried, so the federated view shows quarantine + replay
                # as one story
                span = tracer.span(
                    "dead_letter_replay",
                    remote=letter.trace,
                    channel=self.name,
                    lsn=lsn,
                )
            else:
                span = _NULL_CONTEXT
            with span:
                ok = self._try_apply(letter.event) is None
            if ok:
                self.dead_letters.remove(lsn)
                self.stats.events_applied += 1
                self.stats.events_quarantined -= 1
                replayed += 1
        return replayed

    def catch_up(self, batch: int = 1000) -> int:
        """Pump until no lag remains; returns total events applied.

        Bails out (rather than spinning) if a pump makes no forward
        progress — a stalled binlog tailer leaves lag in place without
        delivering events.
        """
        total = 0
        while self.lag:
            position = self.cursor.position
            total += self.pump(batch)
            if self.cursor.position == position:
                break
        return total

    # -- the one resync rule -----------------------------------------------------

    def _routing(self, schema: Schema | None) -> tuple:
        """What the hub's copy depends on besides the log."""
        return (schema, self.filter, self.filter.settings(), self.filter._flips)

    def resync_due(self, database: Database) -> bool:
        """True when the hub's copy in ``database`` cannot be carried on
        from the cursor, however the channel is fed (DESIGN §5, invariant
        6): the filter or its settings changed, a rename moved a known
        resource across the routing boundary, ``database`` lost the copy's
        schema, or the source's log no longer reaches the cursor."""
        name = self._synced[0].name
        held = database.schema(name) if database.has_schema(name) else None
        return (
            self._routing(held) != self._synced
            or self.cursor.position > self.source.binlog.head_lsn
        )

    def dump(self, *, trace: dict[str, Any] | None = None) -> dict[str, Any]:
        """The source seen through :attr:`filter` as a dump document.

        It teaches the filter what the log before it would have: whether
        each table is derived, and every ``dim_resource`` id -> name pair,
        excluded resources' included, so what carries on from it routes
        new rows by what it learned.
        """
        source, filter = self.source, self.filter
        if source.has_table("dim_resource"):
            for resource_id, name in source.table("dim_resource").columns_values(
                ("resource_id", "name")
            ):
                filter.note_resource(resource_id, name)
        for name in source.table_names():
            filter.note_table(name, source.table(name).schema.derived)
        return dump_schema(source, select=filter.select, trace=trace)

    def load(self, database: Database, dump: dict[str, Any]) -> int:
        """Verify and load a :meth:`dump` into ``database`` in place of the
        hub's copy and carry on from its head; returns the rows loaded.
        Dead letters it covers go (``events_quarantined`` keeps them)."""
        self.target = load_schema(
            database, dump, rename_to=self.target.name, replace=True
        )
        head = dump["binlog_head"]
        for lsn in self.dead_letters.lsns():
            if lsn < head:
                self.dead_letters.remove(lsn)
        self.cursor.seek(head)
        self._synced = self._routing(self.target)
        return sum(len(entry["rows"]) for entry in dump["tables"])

    def resync(self, database: Database) -> int:
        """:meth:`load` a :meth:`dump` of the source as it is now."""
        return self.load(database, self.dump())
