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
  inserts stream past, so it needs no out-of-band catalog.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from ..etl.perfingest import HEAVY_TABLES
from ..etl.star import JOBS_REALM_TABLES
from ..obs import Observability
from ..warehouse import BinlogCursor, BinlogEvent, EventType, Schema
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
        Resource *names* whose fact rows must not reach the hub.
    include_resources:
        If given, only these resource names' fact rows replicate (an
        allowlist; combines with ``exclude_resources``).
    """

    def __init__(
        self,
        tables: Sequence[str] | None = tuple(JOBS_REALM_TABLES),
        *,
        exclude_resources: Iterable[str] = (),
        include_resources: Iterable[str] | None = None,
        drop_excluded_dim_rows: bool = True,
    ) -> None:
        self.tables = tuple(tables) if tables is not None else None
        self.exclude_resources = set(exclude_resources)
        self.include_resources = (
            set(include_resources) if include_resources is not None else None
        )
        self.drop_excluded_dim_rows = drop_excluded_dim_rows
        #: learned from dim_resource events flowing through the channel
        self._resource_names: dict[int, str] = {}
        #: tables whose schema description said ``derived``
        self._derived: set[str] = set()

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

    def table_allowed(self, table: str) -> bool:
        if table in USER_PROFILE_TABLES or table in HEAVY_TABLES:
            return False
        if table == "etl_markers" or table in self._derived:
            return False
        if self.tables is None:
            return True
        return table in self.tables

    # -- row-level routing ------------------------------------------------------

    def _resource_excluded(self, name: str) -> bool:
        if name in self.exclude_resources:
            return True
        if self.include_resources is not None and name not in self.include_resources:
            return True
        return False

    def _row_allowed(self, event: BinlogEvent) -> bool:
        row = event.data.get("row") or {}
        if event.table == "dim_resource":
            rid = row.get("resource_id")
            name = row.get("name")
            if rid is not None and name is not None:
                self._resource_names[rid] = name
            if name is not None and self.drop_excluded_dim_rows:
                return not self._resource_excluded(name)
            return True
        if event.table in RESOURCE_SCOPED_TABLES:
            rid = row.get("resource_id")
            if rid is None and event.etype is EventType.DELETE:
                # key-only delete: key order matches the PK; resource_id is
                # the first PK component on all resource-scoped tables
                key = event.data.get("key")
                if key:
                    rid = key[0]
            name = self._resource_names.get(rid)
            if name is not None and self._resource_excluded(name):
                return False
        return True

    def admit(self, event: BinlogEvent) -> bool:
        """True when ``event`` should be applied to the hub."""
        if event.etype in (EventType.CREATE_TABLE, EventType.DROP_TABLE):
            self.note_table(event.table, bool(event.data.get("derived")))
        if not self.table_allowed(event.table):
            return False
        if event.etype in (
            EventType.CREATE_TABLE, EventType.DROP_TABLE, EventType.TRUNCATE
        ):
            return True
        return self._row_allowed(event)


@dataclass
class ChannelStats:
    """Lifetime counters for one channel (exposed for monitoring).

    ``events_seen`` counts events whose processing *finished* (applied,
    filtered, or quarantined) — an event whose apply fails and will be
    re-polled is not counted until it resolves, so the counters add up
    under partial batches: ``events_seen == events_applied +
    events_filtered + events_quarantined``.  ``syncs`` counts every pump,
    including ones that raised.
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
        if obs is not None:
            registry = obs.registry
            label = {"channel": self.name}
            self._m_applied = registry.counter(
                "replication_events_applied_total",
                "Events applied to the hub per channel",
                ("channel",),
            ).labels(**label)
            self._m_filtered = registry.counter(
                "replication_events_filtered_total",
                "Events dropped by the replication filter per channel",
                ("channel",),
            ).labels(**label)
            self._m_retries = registry.counter(
                "replication_retries_total",
                "Apply retries per channel",
                ("channel",),
            ).labels(**label)
            self._m_quarantined = registry.counter(
                "replication_quarantined_total",
                "Events dead-lettered per channel",
                ("channel",),
            ).labels(**label)
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
        attempts = policy.attempts() if policy else iter((0,))
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
        if self.obs is None:
            return self._pump(max_events)
        # telemetry is batch-level: snapshot the lifetime counters, run
        # the pump, publish the deltas — one histogram observation and at
        # most four counter bumps per batch, never per event
        stats = self.stats
        applied0 = stats.events_applied
        filtered0 = stats.events_filtered
        retries0 = stats.retries
        quarantined0 = stats.events_quarantined
        start = self.obs.clock.now()
        with self.obs.tracer.span("replication_pump", channel=self.name):
            try:
                return self._pump(max_events)
            finally:
                self._h_pump.observe(self.obs.clock.now() - start)
                if stats.events_applied != applied0:
                    self._m_applied.inc(stats.events_applied - applied0)
                if stats.events_filtered != filtered0:
                    self._m_filtered.inc(stats.events_filtered - filtered0)
                if stats.retries != retries0:
                    self._m_retries.inc(stats.retries - retries0)
                if stats.events_quarantined != quarantined0:
                    self._m_quarantined.inc(
                        stats.events_quarantined - quarantined0
                    )

    def _runs(
        self, events: Sequence[BinlogEvent], traced: bool
    ) -> Iterator[tuple[bool, Any, list[BinlogEvent]]]:
        """Cut polled events into ``(admitted, trace context, run)``.

        A run longer than one event is a stretch of admitted ``INSERT``s
        on one table under one trace context — what
        :meth:`~repro.warehouse.Schema.apply_events` lands as one batch.
        Every table change, context change, other event type and filtered
        event ends the run; each event meets the filter once, in log
        order.
        """
        trace_of = self.source.binlog.trace_context
        run: list[BinlogEvent] = []
        run_key = None
        for event in events:
            context = trace_of(event.lsn) if traced else None
            admitted = self.filter.admit(event)
            batchable = admitted and event.etype is EventType.INSERT
            key = (event.table, context)
            if run and not (batchable and key == run_key):
                yield True, run_key[1], run
                run = []
            if batchable:
                run.append(event)
                run_key = key
            else:
                yield admitted, context, [event]
        if run:
            yield True, run_key[1], run

    def _pump(self, max_events: int | None = None) -> int:
        events = self.cursor.poll(max_events)
        applied = 0
        # cross-member propagation: each event carries the trace context
        # captured at satellite append time; contiguous runs sharing one
        # (context, table) open a single re-parented hub_apply span, so
        # span volume is bounded by context transitions, not event count
        tracer = self.obs.tracer if self.obs is not None else None
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
            for admitted, context, run in self._runs(events, tracer is not None):
                if not admitted:
                    self.stats.events_filtered += 1
                    self.stats.events_seen += 1
                    self.cursor.commit(run[0].lsn)
                    continue
                if tracer is not None:
                    key = (context, run[0].table)
                    if key != group_key:
                        close_group()
                        if context is not None:
                            group_span = tracer.span(
                                "hub_apply",
                                remote=context,
                                channel=self.name,
                                table=run[0].table,
                            ).__enter__()
                            group_key = key
                    group_n += len(run)
                if len(run) > 1 and self._apply_batch(run):
                    self.stats.events_applied += len(run)
                    self.stats.events_seen += len(run)
                    applied += len(run)
                    self.cursor.commit(run[-1].lsn)
                    continue
                for event in run:
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
        finally:
            close_group()
            self.stats.syncs += 1
        return applied

    def _apply_batch(self, run: list[BinlogEvent]) -> bool:
        """Apply a run as one batch; False when it raised (nothing was
        applied) and the run has to go event by event, which is where
        retries, quarantine and the LSN at fault are accounted."""
        try:
            self.target.apply_events(run)
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
