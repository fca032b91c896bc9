"""Batched hub apply (``Schema.apply_events``) against the per-event path.

The replication channel folds every contiguous run of admitted ``INSERT``s
on one table into one batch write.  Two oracles hold it to the per-event
applier it replaced:

* ``catch_up(batch=1)`` polls one event at a time, so no run ever forms:
  the twin-channel tests require the same target tables, versions, hub
  binlog, dead letters, cursor and :class:`ChannelStats` (all but
  ``syncs``) as ``catch_up(batch=1000)``, with and without tracing, retry
  policy, quarantine, injected faults and a target that genuinely refuses
  rows;
* :class:`PerEventOnly` refuses every batch under the *same* pumps, so the
  fallback applies the run event by event: the hub's spans and the trace
  sidecar of its binlog must then be identical, not just equivalent.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from repro.aggregation import Aggregator
from repro.core import (
    FaultPlan,
    ReplicationChannel,
    ReplicationError,
    ReplicationFilter,
    RetryPolicy,
    inject_apply_faults,
)
from repro.etl import (
    ParsedJob,
    ingest_cloud_events,
    ingest_jobs,
    ingest_storage_snapshots,
)
from repro.obs import FakeClock, MetricsRegistry, Observability
from repro.timeutil import ts
from repro.warehouse import (
    BinlogEvent,
    Column,
    ColumnType,
    Database,
    EventType,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    UnknownObjectError,
    make_columns,
)

from .test_batch_loaders import storage_doc, vm_events

T0 = ts(2017, 1, 1)
C = ColumnType


def make_job(job_id, resource="r1", user="u0"):
    return ParsedJob(
        job_id=job_id, user=user, pi="p", queue="q", application="a",
        submit_ts=T0, start_ts=T0 + 3600, end_ts=T0 + 3 * 3600, nodes=1,
        cores=2, req_walltime_s=7200, state="COMPLETED", exit_code=0,
        resource=resource,
    )


def notes_schema():
    """Keyless: replicated ``INSERT``s append, duplicates and all."""
    return TableSchema("notes", make_columns([("body", C.STR, False), ("n", C.INT)]))


def satellite(traced: bool):
    """A satellite history with every event type in it: long same-table
    runs (two job batches under different spans), rows of an excluded
    resource and of a never-replicated table cutting runs short, updates
    (one moving a primary key), deletes, a cumulative cloud re-ingest, a
    keyless table truncated and dropped and re-created, and a full
    aggregation — which logs only DDL, its tables being derived — and a
    same-table run that changes trace context half way."""
    obs = (
        Observability(clock=FakeClock(auto_advance=0.001), name="sat")
        if traced else None
    )
    schema = Database(
        "sat", trace_provider=obs.tracer.current_context if traced else None
    ).create_schema("modw")

    def span(name):
        return obs.tracer.span(name) if traced else contextlib.nullcontext()

    with span("ingest_1"):
        ingest_jobs(
            schema,
            [make_job(i, "r2" if i % 7 == 0 else "r1", f"u{i % 5}") for i in range(1, 60)],
        )
    users = schema.create_table(
        TableSchema("users", make_columns([("name", C.STR, False)]), ("name",))
    )
    users.insert({"name": "root"})  # user profiles never replicate
    with span("ingest_2"):
        ingest_jobs(schema, [make_job(i, "r1", f"u{i % 9}") for i in range(50, 120)])
    fact = schema.table("fact_job")
    fact.update_where(lambda r: r["job_id"] == 3, {"state": "FAILED"})
    fact.update_where(lambda r: r["job_id"] == 4, {"job_id": 4000})
    fact.delete_where(lambda r: r["job_id"] in (5, 6))
    with span("cloud"):
        ingest_cloud_events(
            schema, vm_events(1, 0, steps=("start",)) + vm_events(2, 60, first_event_id=10)
        )
        ingest_cloud_events(
            schema,
            vm_events(1, 0, steps=("start", "stop", "start"))
            + vm_events(3, 90, first_event_id=20),
        )
    with span("storage"):
        ingest_storage_snapshots(
            schema, [storage_doc(u, T0 + i) for i, u in enumerate("abcabc")]
        )
    notes = schema.create_table(notes_schema())
    for body in ("x", "x", "y"):
        notes.insert({"body": body, "n": 1})
    notes.truncate()
    notes.insert({"body": "z"})
    schema.drop_table("notes")
    notes = schema.create_table(notes_schema())
    notes.upsert_columns({"body": ["p", "p", "q"], "n": [1, 1, None]})
    with span("aggregate"):
        Aggregator(schema).aggregate_all()
    # no new dimension rows: one unbroken stretch of fact_job inserts
    # logged under two trace contexts
    with span("ingest_3"):
        ingest_jobs(schema, [make_job(i) for i in range(200, 230)])
    with span("ingest_4"):
        ingest_jobs(schema, [make_job(i) for i in range(230, 250)])
    return schema, obs


def insert_lsns(schema, table):
    return [
        e.lsn for e in schema.binlog
        if e.table == table and e.etype is EventType.INSERT
    ]


class PerEventOnly:
    """A target that refuses every batch, so each run goes through the
    channel's fallback: ``apply_event`` per event, as before there were
    batches — under the same pumps, spans and commits as the batched twin."""

    def __init__(self, target) -> None:
        self._target = target

    def apply_events(self, events) -> None:
        raise RuntimeError("per-event oracle: no batches")

    def __getattr__(self, name):
        return getattr(self._target, name)


def strict_dim_pi(target):
    """Pre-provision ``dim_pi`` with a required column the satellite's rows
    lack: every replicated ``dim_pi`` insert genuinely fails to apply."""
    target.create_table(
        TableSchema(
            "dim_pi",
            make_columns([
                ("pi_id", C.INT, False), ("username", C.STR, False),
                ("sponsor", C.STR, False),
            ]),
            ("pi_id",),
        )
    )


def replicate(source, *, batch, traced=False, per_event_only=False, plan=None,
              retry=None, quarantine=False, prepare=None):
    """Run one channel to the end (or to its ``ReplicationError``) and
    return everything observable about the outcome."""
    obs = (
        Observability(clock=FakeClock(auto_advance=0.001), name="hub")
        if traced else None
    )
    registry = obs.registry if traced else MetricsRegistry()
    target = Database(
        "hub", metrics=registry,
        trace_provider=obs.tracer.current_context if traced else None,
    ).create_schema("fed_sat")
    if prepare is not None:
        prepare(target)
    channel = ReplicationChannel(
        source, target,
        filter=ReplicationFilter(tables=None, exclude_resources={"r2"}),
        retry_policy=retry, quarantine=quarantine, obs=obs, name="sat",
    )
    if per_event_only:
        channel.target = PerEventOnly(channel.target)
    wrapper = inject_apply_faults(channel, plan) if plan is not None else None
    error = None
    try:
        channel.catch_up(batch)
    except ReplicationError as exc:
        error = str(exc)
    stats = dataclasses.asdict(channel.stats)
    syncs = stats.pop("syncs")
    tables = {name: target.table(name) for name in target.table_names()}
    outcome = {
        "rows": {name: list(t.raw_rows()) for name, t in tables.items()},
        "derived": {name: t.schema.derived for name, t in tables.items()},
        "table_versions": {name: t.data_version for name, t in tables.items()},
        "schema_version": target.data_version,
        "checksum": target.checksum(),
        "binlog": target.binlog.checksum(),
        "stats": stats,
        "error": error,
        "cursor": channel.cursor.position,
        "dead_letters": [
            (
                letter.event.lsn, letter.error, letter.attempts,
                letter.trace.trace_id if letter.trace else None,
            )
            for letter in map(channel.dead_letters.get, channel.dead_letters.lsns())
        ],
        "attempts": dict(wrapper.attempts) if wrapper else None,
        "applied_metric": registry.value("warehouse_apply_events_total", schema="fed_sat"),
        "logged_metric": registry.value("warehouse_binlog_events_total", schema="fed_sat"),
        # whose trace each hub event joined: a satellite's, or the hub's own
        "joined_traces": [
            context.trace_id if context and context.trace_id.startswith("sat:") else None
            for context in map(target.binlog.trace_context, range(target.binlog.head_lsn))
        ],
    }
    exact = {
        "sidecar": [
            target.binlog.trace_context(lsn) for lsn in range(target.binlog.head_lsn)
        ],
        "spans": [s.to_dict() for s in obs.tracer.finished] if traced else None,
        "syncs": syncs,
    }
    return outcome, exact, channel


def scenario(name, source):
    facts = insert_lsns(source, "fact_job")
    dims = insert_lsns(source, "dim_person")
    retry = RetryPolicy(max_retries=2, seed=3)
    transient = {facts[1], facts[len(facts) // 2], dims[1], insert_lsns(source, "notes")[-2]}
    poison = {facts[10], facts[-3], insert_lsns(source, "fact_vm_interval")[2]}
    return {
        "clean": {},
        "retry": dict(retry=retry, plan=FaultPlan(transient_lsns=transient, transient_burst=2)),
        "quarantine": dict(
            retry=retry, quarantine=True,
            plan=FaultPlan(
                transient_lsns=transient, transient_burst=2, poison_lsns=poison
            ),
        ),
        "quarantine-no-retry": dict(
            quarantine=True, plan=FaultPlan(transient_lsns=transient, poison_lsns=poison)
        ),
        "fail-stop": dict(plan=FaultPlan(poison_lsns={facts[len(facts) // 3]})),
        "fail-stop-after-retries": dict(
            retry=retry,
            plan=FaultPlan(transient_lsns={facts[40]}, transient_burst=5),
        ),
        "target-refuses-rows": dict(quarantine=True, retry=retry, prepare=strict_dim_pi),
        "target-refuses-rows-fail-stop": dict(prepare=strict_dim_pi),
    }[name]


SCENARIOS = [
    "clean", "retry", "quarantine", "quarantine-no-retry", "fail-stop",
    "fail-stop-after-retries", "target-refuses-rows",
    "target-refuses-rows-fail-stop",
]


@pytest.fixture(scope="module", params=[False, True], ids=["untraced", "traced"])
def history(request):
    return request.param, satellite(request.param)[0]


class TestTwinChannels:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_one_event_at_a_time_equals_a_thousand(self, history, name):
        traced, source = history
        one, _, _ = replicate(source, batch=1, traced=traced, **scenario(name, source))
        thousand, _, channel = replicate(
            source, batch=1000, traced=traced, **scenario(name, source)
        )
        assert thousand == one
        stats = channel.stats
        assert stats.events_seen == (
            stats.events_applied + stats.events_filtered + stats.events_quarantined
        )
        if name.startswith(("fail-stop", "target-refuses-rows-fail")):
            assert one["error"] and f"LSN {one['cursor']}" in one["error"]
        else:
            assert one["error"] is None and one["cursor"] == source.binlog.head_lsn

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("batch", [7, 1000])
    def test_batches_equal_the_per_event_fallback_span_for_span(self, history, name, batch):
        traced, source = history
        batched = replicate(source, batch=batch, traced=traced, **scenario(name, source))
        per_event = replicate(
            source, batch=batch, traced=traced, per_event_only=True,
            **scenario(name, source),
        )
        assert batched[0] == per_event[0]
        assert batched[1] == per_event[1]

    def test_the_history_forms_long_runs_and_every_kind_of_cut(self, history):
        """Guards the fixture: if the satellite history stopped producing
        batches, the twins above would agree vacuously."""
        traced, source = history
        calls = []

        class Spy(PerEventOnly):
            def apply_events(self, events):
                calls.append(len(events))
                self._target.apply_events(events)

        target = Database("hub").create_schema("fed_sat")
        channel = ReplicationChannel(
            source, target,
            filter=ReplicationFilter(tables=None, exclude_resources={"r2"}),
        )
        channel.target = Spy(target)
        channel.catch_up()
        assert max(calls) >= 60 and min(calls) >= 2
        assert sum(calls) < channel.stats.events_applied  # some went one by one
        assert channel.stats.events_filtered > 10
        assert {e.etype for e in source.binlog} == set(EventType)
        # derived tables reached the hub as DDL only, and were refused there
        assert not any(name.startswith("agg_") for name in target.table_names())
        assert not any(
            e.table.startswith("agg_") and e.etype not in
            (EventType.CREATE_TABLE, EventType.DROP_TABLE)
            for e in source.binlog
        )

    def test_replay_after_healing_ends_where_a_clean_run_ends(self, history):
        traced, source = history
        clean, _, _ = replicate(source, batch=1000, traced=traced)
        outcome, _, channel = replicate(
            source, batch=1000, traced=traced, **scenario("quarantine", source)
        )
        assert outcome["rows"] != clean["rows"]
        channel.target.plan.heal()
        assert channel.replay() == len(outcome["dead_letters"])
        target = channel.target
        assert target.checksum() == clean["checksum"]
        assert len(channel.dead_letters) == 0

    @pytest.mark.parametrize("start", [0.25, 0.5, 0.9])
    def test_crash_replay_from_an_arbitrary_lsn(self, history, start):
        """At-least-once: a channel restarted from an LSN it had already
        passed re-applies the tail, batched, onto the same tables."""
        traced, source = history
        clean, _, first = replicate(source, batch=1000, traced=traced)
        target = first.target
        # the filter keeps what it learned (resource names) across the crash
        restart = ReplicationChannel(
            source, target, filter=first.filter,
            start_lsn=int(source.binlog.head_lsn * start),
        )
        restart.catch_up()
        keyed = [
            name for name in target.table_names()
            if target.table(name).schema.primary_key
        ]
        # replay re-inserts what a later event deleted and deletes it again:
        # same rows, not the same row order
        assert {n: sorted(target.table(n).raw_rows()) for n in keyed} == {
            n: sorted(clean["rows"][n]) for n in keyed
        }


# -- Schema.apply_events itself -------------------------------------------------


def insert_event(lsn, table, row):
    return BinlogEvent(lsn=lsn, etype=EventType.INSERT, table=table, data={"row": row})


@pytest.fixture()
def hub_schema():
    registry = MetricsRegistry()
    schema = Database("hub", metrics=registry).create_schema("fed_sat")
    schema.create_table(
        TableSchema(
            "t",
            (Column("k", C.INT, False), Column("v", C.STR), Column("n", C.INT, default=7)),
            ("k",),
        )
    )
    schema.create_table(notes_schema())
    return schema, registry


class TestApplyEvents:
    def test_partial_images_take_defaults_like_apply_event(self, hub_schema):
        schema, registry = hub_schema
        twin = Database("twin").create_schema("fed_sat")
        twin.create_table(schema.table("t").schema)
        twin.create_table(notes_schema())
        events = [
            insert_event(0, "t", {"k": 1, "v": "a", "n": 1}),
            insert_event(1, "t", {"k": 2}),
            insert_event(2, "t", {"k": 1, "v": "again"}),  # a repeat updates
        ]
        schema.apply_events(events)
        for event in events:
            twin.apply_event(event)
        assert list(schema.table("t").raw_rows()) == [(1, "again", 7), (2, None, 7)]
        assert list(schema.table("t").raw_rows()) == list(twin.table("t").raw_rows())
        assert schema.binlog.checksum() == twin.binlog.checksum()
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 3

    def test_keyless_table_appends_duplicates(self, hub_schema):
        schema, _ = hub_schema
        schema.apply_events(
            [insert_event(i, "notes", {"body": "same", "n": 1}) for i in range(3)]
        )
        assert list(schema.table("notes").raw_rows()) == [("same", 1)] * 3

    def test_empty_run_is_a_no_op(self, hub_schema):
        schema, registry = hub_schema
        before = (schema.data_version, schema.binlog.head_lsn)
        schema.apply_events([])
        assert (schema.data_version, schema.binlog.head_lsn) == before
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 0

    @pytest.mark.parametrize("bad, error", [
        (insert_event(1, "notes", {"body": "x"}), SchemaError),
        (BinlogEvent(1, EventType.UPDATE, "t", {"key": [1], "row": {"k": 1}}), SchemaError),
        (BinlogEvent(1, EventType.TRUNCATE, "t", {}), SchemaError),
        (insert_event(1, "t", {"k": "one"}), TypeMismatchError),
        (insert_event(1, "t", {"k": 3, "nope": 0}), SchemaError),
        (insert_event(1, "t", {"v": "keyless"}), TypeMismatchError),
    ], ids=["other-table", "update", "truncate", "bad-value", "unknown-column", "null-key"])
    def test_a_run_that_raises_has_applied_nothing(self, hub_schema, bad, error):
        schema, registry = hub_schema
        before = (schema.data_version, schema.binlog.checksum(), len(schema.table("t")))
        run = [insert_event(0, "t", {"k": 1}), bad, insert_event(2, "t", {"k": 2})]
        with pytest.raises(error):
            schema.apply_events(run)
        assert (
            schema.data_version, schema.binlog.checksum(), len(schema.table("t"))
        ) == before
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 0

    def test_unknown_table_raises_like_apply_event(self, hub_schema):
        schema, _ = hub_schema
        with pytest.raises(UnknownObjectError):
            schema.apply_events([insert_event(0, "missing", {"k": 1})])
