"""Batched hub apply (``Schema.apply_rows``) against the per-event path.

The replication channel hands each batch record of the source log — cut
by the filter into admitted and filtered slices — to the hub as one batch
write, whether a pump polled it or a loose segment shipped it.  Two
oracles hold it to the per-event applier it replaced:

* ``catch_up(batch=1)`` polls one event at a time, so no run ever forms
  and every batch holds one row: the twin-channel tests require the same target tables, versions, hub
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
import gc
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, strategies as st

from repro.aggregation import Aggregator
from repro.core import (
    FaultPlan,
    LooseChannel,
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
    BinlogCursor,
    Column,
    ColumnType,
    Database,
    EventType,
    RowBatch,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    UnknownObjectError,
    PrimaryKeyError,
    make_columns,
)

from .conftest import property_settings
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
        Observability(clock=FakeClock(), name="sat")
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
    users.upsert_columns({"name": ["root"]})  # user profiles never replicate
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
        notes.upsert_columns({"body": [body], "n": [1]})
    notes.truncate()
    notes.upsert_columns({"body": ["z"]})
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

    def apply_rows(self, batch) -> None:
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
        Observability(clock=FakeClock(), name="hub")
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
            def apply_rows(self, batch):
                calls.append(len(batch.rows))
                self._target.apply_rows(batch)

        target = Database("hub").create_schema("fed_sat")
        channel = ReplicationChannel(
            source, target,
            filter=ReplicationFilter(tables=None, exclude_resources={"r2"}),
        )
        channel.target = Spy(target)
        channel.catch_up()
        assert max(calls) >= 60 and min(calls) == 1  # one-row records batch too
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


# -- Schema.apply_rows itself ---------------------------------------------------


def rows_record(table, names, rows, etype=EventType.INSERT):
    """A batch record at LSN 0; an ``UPDATE`` one keyed by its first column."""
    keys = [row[:1] for row in rows] if etype is EventType.UPDATE else None
    return RowBatch(0, etype, table, tuple(names), list(rows), keys)


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


def twin_of(schema):
    twin = Database("twin").create_schema("fed_sat")
    twin.create_table(schema.table("t").schema)
    twin.create_table(notes_schema())
    return twin


class TestApplyEvents:
    def test_partial_images_take_defaults_like_apply_event(self, hub_schema):
        schema, registry = hub_schema
        twin = twin_of(schema)
        # no image names ``n``; a repeated key updates
        batch = rows_record("t", ("k", "v"), [(1, "a"), (2, None), (1, "again")])
        schema.apply_rows(batch)
        for event in batch.events():
            twin.apply_event(event)
        assert list(schema.table("t").raw_rows()) == [(1, "again", 7), (2, None, 7)]
        assert list(schema.table("t").raw_rows()) == list(twin.table("t").raw_rows())
        assert schema.binlog.checksum() == twin.binlog.checksum()
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 3

    def test_update_records_apply_like_apply_event(self, hub_schema):
        schema, registry = hub_schema
        twin = twin_of(schema)
        for batch in (
            rows_record("t", ("k", "v", "n"), [(1, "a", 1), (2, "b", 2)]),
            rows_record("t", ("k", "v", "n"), [(2, "B", 3), (3, "c", 4)], EventType.UPDATE),
        ):
            schema.apply_rows(batch)
            for event in batch.events():
                twin.apply_event(event)
        assert list(schema.table("t").raw_rows()) == [(1, "a", 1), (2, "B", 3), (3, "c", 4)]
        assert schema.binlog.checksum() == twin.binlog.checksum()
        assert schema.table("t").data_version == twin.table("t").data_version
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 4

    def test_keyless_table_appends_duplicates(self, hub_schema):
        schema, _ = hub_schema
        schema.apply_rows(rows_record("notes", ("body", "n"), [("same", 1)] * 3))
        assert list(schema.table("notes").raw_rows()) == [("same", 1)] * 3

    def test_empty_run_is_a_no_op(self, hub_schema):
        schema, registry = hub_schema
        before = (schema.data_version, schema.binlog.head_lsn)
        schema.apply_rows(rows_record("t", ("k",), []))
        assert (schema.data_version, schema.binlog.head_lsn) == before
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 0

    @pytest.mark.parametrize("bad, error", [
        (rows_record("notes", ("k",), [(1,), (3,), (2,)]), SchemaError),
        (rows_record("t", ("k", "nope"), [(1, None), (3, 0), (2, None)], EventType.UPDATE),
         SchemaError),
        (rows_record("t", ("k",), [(1,), (3,), (2,)], EventType.TRUNCATE), SchemaError),
        (rows_record("t", ("k",), [(1,), ("one",), (2,)]), TypeMismatchError),
        (rows_record("t", ("k", "nope"), [(1, None), (3, 0), (2, None)]), SchemaError),
        (rows_record("t", ("k", "v"), [(1, None), (None, "keyless"), (2, None)]),
         TypeMismatchError),
    ], ids=["other-table", "update", "truncate", "bad-value", "unknown-column", "null-key"])
    def test_a_run_that_raises_has_applied_nothing(self, hub_schema, bad, error):
        schema, registry = hub_schema
        before = (schema.data_version, schema.binlog.checksum(), len(schema.table("t")))
        with pytest.raises(error):
            schema.apply_rows(bad)
        assert (
            schema.data_version, schema.binlog.checksum(), len(schema.table("t"))
        ) == before
        assert registry.value("warehouse_apply_events_total", schema="fed_sat") == 0

    def test_unknown_table_raises_like_apply_event(self, hub_schema):
        schema, _ = hub_schema
        with pytest.raises(UnknownObjectError):
            schema.apply_rows(rows_record("missing", ("k",), [(1,)]))


# -- records, not events ----------------------------------------------------------


def routed_tables(schema):
    """A routed dimension and fact, a keyless table and one that never
    replicates."""
    dims = schema.create_table(TableSchema(
        "dim_resource",
        make_columns([("resource_id", C.INT, False), ("name", C.STR, False)]),
        ("resource_id",),
    ))
    facts = schema.create_table(TableSchema(
        "fact_job",
        make_columns([
            ("resource_id", C.INT, False), ("job_id", C.INT, False),
            ("user", C.STR, False), ("hours", C.FLOAT),
        ]),
        ("resource_id", "job_id"),
    ))
    schema.create_table(notes_schema())
    schema.create_table(
        TableSchema("users", make_columns([("name", C.STR, False)]), ("name",))
    )
    return dims, facts


def job_batch(ids, version):
    return {
        "resource_id": [j % 4 for j in ids], "job_id": list(ids),
        "user": [f"u{j % 3}" for j in ids], "hours": [j * 0.5 + version for j in ids],
    }


def write_op(schema, verb, ids, version):
    """One satellite write: batch records (appending, updating, or
    straddling an excluded resource), single events, and every cut."""
    dims, facts = schema.table("dim_resource"), schema.table("fact_job")
    if verb == "resources":  # renames, so routing can flip
        dims.upsert_columns({
            "resource_id": [j % 4 for j in ids],
            "name": [f"r{1 + (j + version) % 3}" for j in ids],
        })
    elif verb == "jobs":
        facts.upsert_columns(job_batch(ids, version))
    elif verb == "insert":
        for j in ids:
            if facts.get((j % 4, j)) is None:
                facts.upsert_columns({"resource_id": [j % 4], "job_id": [j], "user": ["solo"]})
    elif verb == "upsert":
        for j in ids:
            facts.upsert_columns({"resource_id": [j % 4], "job_id": [j], "user": ["up"]})
    elif verb == "update_where":
        facts.update_where(lambda r: r["job_id"] in ids, {"hours": float(version)})
    elif verb == "rekey" and ids:
        with contextlib.suppress(PrimaryKeyError):
            facts.update_where(
                lambda r: r["job_id"] == ids[0], {"job_id": ids[0] + 100}
            )
    elif verb == "delete":
        for j in ids:
            facts.delete_key((j % 4, j))
        schema.table("notes").delete_where(lambda r: r["n"] in ids)
    elif verb == "notes":
        notes = schema.table("notes")
        if version % 2:
            notes.upsert_columns({"body": [f"b{j}" for j in ids], "n": list(ids)})
        for j in ids:
            notes.upsert_columns({"body": [f"s{j}"], "n": [j if j % 2 else None]})
    elif verb == "truncate":
        schema.table("notes" if version % 2 else "fact_job").truncate()
    elif verb == "ddl":
        schema.drop_table("notes")
        schema.create_table(notes_schema())
    elif verb == "users":
        schema.table("users").upsert_columns({"name": [f"n{j}" for j in ids]})


_record_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "resources", "jobs", "jobs", "insert", "upsert", "update_where",
            "rekey", "delete", "notes", "truncate", "ddl", "users",
        ]),
        st.lists(st.integers(0, 11), max_size=7),
        st.integers(0, 3),
        st.integers(0, 12),  # pump this many events after the op (0: none)
    ),
    max_size=16,
)

ROUTINGS = {
    "all": {},
    "exclude": {"exclude_resources": {"r2"}},
    "include": {"include_resources": {"r1", "r3"}},
}


#: how the twin of the per-event oracle is fed: pumps, or loose segments
#: shipped in memory or through a file
FEEDS = ("pump", "segment", "file")


class EventCursor(BinlogCursor):
    """Polls the source log as :meth:`Binlog.read_from` events: the
    oracle channel meets every row as its own event."""

    def poll(self, max_events=None):
        return self._binlog.read_from(self.position, max_events)


def replica(channel):
    """Everything observable about a channel's hub copy and its filter."""
    target, filter = channel.target, channel.filter
    stats = dataclasses.asdict(channel.stats)
    stats.pop("syncs")
    tables = {name: target.table(name) for name in target.table_names()}
    return {
        "rows": {name: list(t.raw_rows()) for name, t in tables.items()},
        "table_versions": {name: t.data_version for name, t in tables.items()},
        "schema_version": target.data_version,
        "events": [event.to_dict() for event in target.binlog.read_from(0)],
        # whose trace each hub event joined: the satellite's, or the hub's own
        "joined_traces": [
            context.trace_id if context and context.trace_id.startswith("sat:") else None
            for context in map(target.binlog.trace_context, range(target.binlog.head_lsn))
        ],
        "cursor": channel.cursor.position,
        "stats": stats,
        "names": dict(filter._resource_names),
        "flips": filter._flips,
    }


def channel_into(source, routing, traced, name, feed="pump"):
    """A hub channel from ``source``; fed by segments, the
    :class:`LooseChannel` in front of it."""
    obs = (
        Observability(clock=FakeClock(), name=name)
        if traced else None
    )
    database = Database(
        name, trace_provider=obs.tracer.current_context if traced else None
    )
    channel = ReplicationChannel(
        source, database.create_schema("fed_sat"), obs=obs, name=name,
        filter=ReplicationFilter(tables=None, **ROUTINGS[routing]),
    )
    if feed == "pump":
        return channel
    loose = LooseChannel(source, database, "fed_sat")
    loose.channel = channel
    return loose


class TestRecordsAgainstEvents:
    @property_settings(100)
    @given(
        ops=_record_ops,
        routing=st.sampled_from(sorted(ROUTINGS)),
        traced=st.booleans(),
        feed=st.sampled_from(FEEDS),
    )
    def test_records_apply_like_events_one_at_a_time(self, ops, routing, traced, feed):
        """Pumps of any size over batch records, and loose segments of
        them shipped in memory or through a file, end where the per-event
        oracle ends: same hub tables, versions, hub log, joined traces,
        cursor, stats, and the same names and flips learned."""
        obs = (
            Observability(clock=FakeClock(), name="sat")
            if traced else None
        )
        source = Database(
            "sat", trace_provider=obs.tracer.current_context if traced else None
        ).create_schema("modw")
        routed_tables(source)
        twin = channel_into(source, routing, traced, "hub", feed)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "segment.json.gz"

            def deliver(pump):
                if feed == "segment":
                    twin.ship()
                elif feed == "file":
                    twin.ship_via_file(path)
                elif pump:
                    twin.pump(pump)
                else:
                    twin.catch_up(batch=7)

            for i, (verb, ids, version, pump) in enumerate(ops):
                span = (
                    obs.tracer.span(f"op{i % 3}")
                    if traced and i % 4 else contextlib.nullcontext()
                )
                with span:
                    write_op(source, verb, ids, version)
                if pump:
                    deliver(pump)
            deliver(None)
        channel = twin if feed == "pump" else twin.channel
        oracle = channel_into(source, routing, traced, "oracle")
        oracle.cursor = EventCursor(source.binlog)
        oracle.catch_up(batch=1)
        assert channel.cursor.position == source.binlog.head_lsn
        learned = (channel.filter._resource_names, channel.filter._flips)
        assert learned == (oracle.filter._resource_names, oracle.filter._flips)
        if feed != "pump" and twin.stats.dumps:
            # a rename moved a resource across the routing boundary, so the
            # loose channel's resync rule shipped a dump: the hub holds the
            # source seen through the filter by current names (DESIGN §5,
            # invariant 6), where the oracle, which never resyncs, holds
            # each row as routed when it was logged
            event("resynced by a dump")
            assert {
                name: Counter(channel.target.table(name).raw_rows())
                for name in channel.target.table_names()
            } == {
                name: Counter(rows)
                for name in source.table_names()
                if (rows := channel.filter.select(source.table(name))) is not None
            }
        else:
            assert replica(channel) == replica(oracle)


    def test_split_cuts_a_record_at_every_routing_change(self):
        source = Database("sat").create_schema("modw")
        dims, facts = routed_tables(source)
        dims.upsert_columns({"resource_id": [1, 2, 3], "name": ["r1", "r2", "r3"]})
        facts.upsert_columns(job_batch([1, 5, 2, 6, 3, 7, 4], 0))
        split = ReplicationFilter(tables=None, exclude_resources={"r2"}).split
        dim_record, fact_record = source.binlog.read_records(4)
        assert [(ok, len(part.rows)) for ok, part in split(dim_record)] == [
            (True, 1), (False, 1), (True, 1),
        ]
        # resource 2 is r2; resource 0 was never named, so it is kept
        assert [(ok, part.base) for ok, part in split(fact_record)] == [
            (True, 7), (False, 9), (True, 11),
        ]
        assert [len(part.rows) for _, part in split(fact_record)] == [2, 2, 3]
        channel = channel_into(source, "exclude", False, "hub")
        channel.catch_up()
        oracle = channel_into(source, "exclude", False, "oracle")
        oracle.cursor = EventCursor(source.binlog)
        oracle.catch_up(batch=1)
        assert replica(channel) == replica(oracle)
        assert channel.stats.events_filtered == 1 + 1 + 2  # users DDL too


    @pytest.mark.parametrize("cursor", [BinlogCursor, EventCursor], ids=["records", "events"])
    def test_naming_an_unnamed_resource_excluded_after_its_rows_went_by_flips(self, cursor):
        """An unnamed resource's rows are admitted, so an excluding first
        name after some went by moves it across the routing boundary: the
        resync rule re-filters the hub copy.  Named first, it is no flip."""
        source = Database("sat").create_schema("modw")
        dims, facts = routed_tables(source)
        dims.upsert_columns({"resource_id": [1], "name": ["r2"]})
        facts.upsert_columns(job_batch([1, 2, 6], 0))  # resource 2 is still unnamed
        dims.upsert_columns({"resource_id": [2], "name": ["r2"]})
        database = Database("hub")
        channel = ReplicationChannel(
            source, database.create_schema("fed_sat"),
            filter=ReplicationFilter(tables=None, exclude_resources={"r2"}),
        )
        channel.cursor = cursor(source.binlog)
        channel.catch_up()
        assert channel.filter._flips == 1
        assert sorted(job for _, job, _, _ in channel.target.table("fact_job").raw_rows()) == [2, 6]
        assert channel.resync_due(database)
        channel.resync(database)
        assert len(channel.target.table("fact_job")) == 0
        assert not channel.resync_due(database)

    def test_a_segment_with_lsn_gaps_dead_letters_the_event_at_fault(self):
        """A loose segment leaves out what the filter refused, so its
        records can skip LSNs: the hub passes the gaps as filtered, and a
        refused record still dead-letters the event at fault."""
        source = Database("sat").create_schema("modw")
        dims, facts = routed_tables(source)
        dims.upsert_columns({"resource_id": [1, 2], "name": ["r1", "r2"]})
        loose = LooseChannel(
            source, Database("hub"), "fed_sat", quarantine=True,
            filter=ReplicationFilter(tables=None, exclude_resources={"r2"}),
        )
        loose.ship()  # the first ship is a dump
        base = source.binlog.head_lsn
        for j in range(8):  # every third job runs on r2
            facts.upsert_columns({"resource_id": [2 if j % 3 == 0 else 1], "job_id": [j], "user": ["u"]})
        inject_apply_faults(loose.channel, FaultPlan(poison_lsns={base + 5}))
        hub = loose.ship()
        (letter,) = map(loose.channel.dead_letters.get, loose.channel.dead_letters.lsns())
        assert letter.event.lsn == base + 5 and letter.event.data["row"]["job_id"] == 5
        assert sorted(job for _, job, _, _ in hub.table("fact_job").raw_rows()) == [1, 2, 4, 7]
        assert loose.last_shipped_lsn == source.binlog.head_lsn
        stats = loose.channel.stats
        assert (stats.events_applied, stats.events_filtered, stats.events_quarantined) == (4, 3, 1)
        assert stats.events_seen == 8


def thousand_row_source():
    source = Database("sat").create_schema("modw")
    _, facts = routed_tables(source)
    facts.upsert_columns(job_batch(range(1000), 0))
    return source, source.binlog.head_lsn - 1000


class TestRecordsAtScale:
    def test_a_poison_row_mid_record_is_dead_lettered_alone(self):
        source, base = thousand_row_source()
        (record,) = source.binlog.read_records(base)
        assert len(record.rows) == 1000
        poison = base + 500
        channel = ReplicationChannel(
            source, Database("hub").create_schema("fed_sat"),
            filter=ReplicationFilter(tables=None), quarantine=True,
        )
        wrapper = inject_apply_faults(channel, FaultPlan(poison_lsns={poison}))
        channel.catch_up()
        assert channel.dead_letters.lsns() == [poison]
        assert channel.cursor.position == source.binlog.head_lsn
        facts = channel.target.table("fact_job")
        assert len(facts) == 999 and facts.get((500 % 4, 500)) is None
        stats = channel.stats  # the users table is never replicated
        assert (stats.events_applied, stats.events_filtered) == (source.binlog.head_lsn - 2, 1)
        assert wrapper.attempts[poison] == 1 and wrapper.attempts[base] == 1

    def test_a_catch_up_builds_no_event_per_row(self):
        """A 10 000-row record reaches the hub as rows: when the hub gets
        each batch, the objects the cyclic GC tracks have grown by O(1),
        not by one event and two dicts per row."""
        source = Database("sat").create_schema("modw")
        _, facts = routed_tables(source)
        n = 10_000
        facts.upsert_columns(job_batch(range(n), 0))
        channel = ReplicationChannel(
            source, Database("hub").create_schema("fed_sat"),
            filter=ReplicationFilter(tables=None),
        )
        tracked = []

        class Counting(PerEventOnly):
            def apply_rows(self, batch):
                gc.collect()
                tracked.append((len(gc.get_objects()), len(batch.rows)))
                self._target.apply_rows(batch)

        channel.target = Counting(channel.target)
        gc.collect()
        before = len(gc.get_objects())
        channel.catch_up()
        gc.collect()
        assert sum(rows for _, rows in tracked) == n
        assert max(objects for objects, _ in tracked) - before < 100
        assert len(gc.get_objects()) - before < 100
        assert len(channel.target.table("fact_job")) == n
