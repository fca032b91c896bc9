"""The batched loaders against their row-at-a-time oracles.

PR 16 made every bulk loader stage its batch and land it with one
``Table.upsert_columns`` per table, dimensions first.  The loaders as they
were — one ``insert`` / ``upsert`` per row — live on in
``tests/row_loader_oracles.py``; every test here runs a batched loader and
its oracle on twin schemas and requires the same tables row for row, the
same ``data_version`` on every table and on the schema, and the same
multiset of binlog events, with the batch's dimension events ahead of its
fact events.  What may differ is the failure mode: a batch lands whole or
not at all, where the oracle leaves a prefix behind.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.analytics import ingest_summaries, summarize_series
from repro.etl import (
    JsonSchemaError,
    ParsedJob,
    PersonInfo,
    create_jobs_star,
    ingest_cloud_events,
    ingest_jobs,
    ingest_performance,
    ingest_storage_snapshots,
)
from repro.simulators import ConversionTable, generate_performance_batch
from repro.timeutil import ts
from repro.warehouse import Database, EventType, TypeMismatchError

from . import row_loader_oracles as oracle
from .conftest import property_settings

T0 = ts(2017, 1, 1)

SETTINGS = property_settings(60)


# -- what must be equal --------------------------------------------------------


def twin_schemas():
    return (
        Database("batched").create_schema("modw"),
        Database("oracle").create_schema("modw"),
    )


def state(schema):
    """Everything a reader, a replica or a cache can see of a schema,
    with the binlog as a multiset (the loaders differ in event order)."""
    tables = {name: schema.table(name) for name in schema.table_names()}
    return {
        "rows": {name: list(t.raw_rows()) for name, t in tables.items()},
        "table_versions": {name: t.data_version for name, t in tables.items()},
        "schema_version": schema.data_version,
        "events": Counter(
            json.dumps([e.etype.value, e.table, e.data], sort_keys=True)
            for e in schema.binlog
        ),
    }


def assert_dimensions_first(schema, since_lsn):
    """Of the row writes logged since ``since_lsn``, every one on a
    ``dim_*`` table precedes every one on a ``fact_*`` table."""
    written = [
        e.table
        for e in schema.binlog.read_from(since_lsn)
        if e.etype in (EventType.INSERT, EventType.UPDATE)
    ]
    first_fact = next(
        (i for i, table in enumerate(written) if table.startswith("fact_")),
        len(written),
    )
    late = [t for t in written[first_fact:] if t.startswith("dim_")]
    assert not late, f"dimension rows landed after facts: {late}"


def run_twins(batched_schema, oracle_schema, batched_load, oracle_load):
    """One ingest call on each twin; returns both return values."""
    head = batched_schema.binlog.head_lsn
    results = batched_load(batched_schema), oracle_load(oracle_schema)
    assert results[0] == results[1]
    assert state(batched_schema) == state(oracle_schema)
    assert_dimensions_first(batched_schema, head)
    return results


# -- jobs ---------------------------------------------------------------------


def make_job(job_id, *, resource="r1", user="u0", pi="p0", app="a", queue="q",
             start=0, walltime=3600, cores=4, **overrides):
    fields = dict(
        job_id=job_id, user=user, pi=pi, queue=queue, application=app,
        submit_ts=T0 + start, start_ts=T0 + start + 60,
        end_ts=T0 + start + 60 + walltime, nodes=1, cores=cores,
        req_walltime_s=walltime + 600, state="COMPLETED", exit_code=0,
        resource=resource,
    )
    fields.update(overrides)
    return ParsedJob(**fields)


@st.composite
def job_batches(draw, max_jobs=12):
    """Jobs over a small id space, so a batch repeats ids inside itself
    and overlaps whatever an earlier batch stored."""
    n = draw(st.integers(0, max_jobs))
    return [
        make_job(
            draw(st.integers(1, 8)),
            resource=draw(st.sampled_from(["r1", "r2"])),
            user=draw(st.sampled_from(["u0", "u1", "gw_portal"])),
            pi=draw(st.sampled_from(["p0", "p1"])),
            app=draw(st.sampled_from(["a", "b"])),
            queue=draw(st.sampled_from(["normal", "debug"])),
            start=draw(st.integers(0, 10**6)),
            walltime=draw(st.integers(0, 10**5)),
            cores=draw(st.integers(1, 64)),
        )
        for _ in range(n)
    ]


JOB_KWARGS = dict(
    conversion=ConversionTable({"r1": 1.0, "r2": 2.5}),
    directory={"u1": PersonInfo("User One", "p1", "Engineering", "CS")},
    science_fields={"a": "Physics"},
)


class TestIngestJobs:
    @SETTINGS
    @given(first=job_batches(), second=job_batches(), third=job_batches(max_jobs=3))
    def test_equals_row_at_a_time(self, first, second, third):
        batched, looped = twin_schemas()
        for jobs in (first, second, third):
            run_twins(
                batched, looped,
                lambda s: ingest_jobs(s, jobs, **JOB_KWARGS),
                lambda s: oracle.ingest_jobs(s, jobs, **JOB_KWARGS),
            )

    def test_duplicates_inside_the_batch_and_in_the_table_are_skipped(self):
        batched, looped = twin_schemas()
        stored = [make_job(1), make_job(2)]
        batch = [make_job(2), make_job(3), make_job(3, user="late"), make_job(4)]
        for jobs, landed in ((stored, 2), (batch, 2)):
            results = run_twins(
                batched, looped,
                lambda s: ingest_jobs(s, jobs),
                lambda s: oracle.ingest_jobs(s, jobs),
            )
            assert results == (landed, landed)
        # the repeat lost to the first of its id, and brought no dimension row
        assert batched.table("fact_job").get((1, 3))["person_id"] == 1
        assert len(batched.table("dim_person")) == 1

    @SETTINGS
    @given(
        stored=job_batches(max_jobs=4),
        batch=job_batches(max_jobs=6),
        position=st.integers(0, 6),
        bad=st.sampled_from([
            {"exit_code": "0"}, {"exit_code": None}, {"cores": 2.5}, {"state": 7},
        ]),
    )
    def test_a_bad_value_mid_batch_lands_nothing(self, stored, batch, position, bad):
        """The oracle raises at the bad row with the rows before it — and
        the bad row's dimensions — already written; the batch raises the
        same error with nothing written at all."""
        batched, looped = twin_schemas()
        for schema, load in ((batched, ingest_jobs), (looped, oracle.ingest_jobs)):
            load(schema, stored)
        # a fresh id and user: the bad row is new and brings a dimension row
        poisoned = list(batch)
        poisoned.insert(min(position, len(batch)), make_job(99, user="fresh", **bad))
        before = state(batched)
        with pytest.raises(TypeMismatchError) as batched_error:
            ingest_jobs(batched, poisoned)
        with pytest.raises(TypeMismatchError) as oracle_error:
            oracle.ingest_jobs(looped, poisoned)
        assert str(batched_error.value) == str(oracle_error.value)
        assert state(batched) == before
        assert looped.table("dim_person").data_version > batched.table(
            "dim_person"
        ).data_version
        # and the schema is not left wedged: the good rows still go in
        ingest_jobs(batched, batch)
        assert len(batched.table("fact_job")) == len(
            {(j.resource, j.job_id) for j in stored + batch}
        )


# -- storage ------------------------------------------------------------------


def storage_doc(user="alice", ts_=T0, resource="store1", **overrides):
    doc = {
        "resource": resource, "filesystem": "gpfs0", "mountpoint": "/gpfs0",
        "resource_type": "persistent", "user": user, "pi": "pi0", "ts": ts_,
        "file_count": 10, "logical_usage_gb": 1.5, "physical_usage_gb": 2,
        "soft_quota_gb": 0.0,
    }
    doc.update(overrides)
    return doc


@st.composite
def storage_batches(draw, max_docs=8):
    n = draw(st.integers(0, max_docs))
    docs = []
    for _ in range(n):
        doc = storage_doc(
            user=draw(st.sampled_from(["alice", "bob", "carol"])),
            ts_=T0 + draw(st.integers(0, 10**6)),
            resource=draw(st.sampled_from(["store1", "store2"])),
            file_count=draw(st.integers(0, 10**6)),
            logical_usage_gb=draw(st.sampled_from([0, 1, 2.5, 10.0])),
        )
        if draw(st.booleans()):
            del doc["soft_quota_gb"]  # NULL quota, distinct from 0.0
        if draw(st.integers(0, 5)) == 0:
            doc["mountpoint"] = "relative/path"  # fails the JSON schema
        docs.append(doc)
    return docs


class TestIngestStorage:
    @SETTINGS
    @given(first=storage_batches(), second=storage_batches())
    def test_equals_row_at_a_time(self, first, second):
        batched, looped = twin_schemas()
        for docs in (first, second):
            run_twins(
                batched, looped,
                lambda s: ingest_storage_snapshots(s, docs, strict=False),
                lambda s: oracle.ingest_storage_snapshots(s, docs, strict=False),
            )

    def test_strict_failure_lands_nothing(self):
        batched, looped = twin_schemas()
        docs = [storage_doc("alice"), storage_doc("bob", mountpoint="nope"),
                storage_doc("carol")]
        ingest_storage_snapshots(batched, [storage_doc("zed")])
        before = state(batched)
        with pytest.raises(JsonSchemaError):
            ingest_storage_snapshots(batched, docs)
        with pytest.raises(JsonSchemaError):
            oracle.ingest_storage_snapshots(looped, docs)
        assert state(batched) == before
        assert len(looped.table("fact_storage")) == 1  # the oracle's prefix


# -- cloud --------------------------------------------------------------------


def vm_events(vm_id, start, *, steps=("start", "stop"), resource="cloud1",
              user="alice", first_event_id=1):
    """provision + ``steps``, one hour apart."""
    base = dict(
        vm_id=vm_id, instance_type="m1.small", vcpus=2, mem_gb=4.0,
        disk_gb=20.0, user=user, project="proj", resource=resource, os="linux",
    )
    return [
        dict(base, event_id=first_event_id + i, event_type=etype,
             ts=T0 + start + 3600 * i)
        for i, etype in enumerate(("provision",) + tuple(steps))
    ]


LIFECYCLES = [
    ("start",), ("start", "stop"), ("start", "pause", "unpause"),
    ("start", "stop", "start", "terminate"), ("start", "terminate"), (),
]


@st.composite
def cloud_feeds(draw):
    """Two cumulative feeds: the second repeats some VMs of the first —
    older, lower ids among them — with a longer history, and adds new
    ones; either may carry an event the JSON schema rejects."""
    n_first = draw(st.integers(0, 5))
    n_second = draw(st.integers(0, 4))
    lives = {
        vm_id: (
            draw(st.integers(0, 10**5)),
            draw(st.sampled_from(LIFECYCLES)),
            draw(st.sampled_from(["cloud1", "cloud2"])),
            draw(st.sampled_from(["alice", "bob"])),
        )
        for vm_id in range(1, n_first + n_second + 1)
    }

    def feed(vm_ids, upto):
        events = []
        for vm_id in vm_ids:
            start, steps, resource, user = lives[vm_id]
            events += vm_events(
                vm_id, start, steps=steps[:upto], resource=resource,
                user=user, first_event_id=100 * vm_id,
            )
        if events and draw(st.integers(0, 3)) == 0:
            events.insert(
                draw(st.integers(0, len(events))), dict(events[0], vcpus=0)
            )
        return events

    first_ids = list(range(1, n_first + 1))
    again = draw(st.lists(st.sampled_from(first_ids), unique=True)) if first_ids else []
    second_ids = again + list(range(n_first + 1, n_first + n_second + 1))
    return feed(first_ids, 1), feed(draw(st.permutations(second_ids)), None)


class TestIngestCloud:
    @SETTINGS
    @given(feeds=cloud_feeds())
    def test_equals_row_at_a_time(self, feeds):
        batched, looped = twin_schemas()
        for events in feeds:
            run_twins(
                batched, looped,
                lambda s: ingest_cloud_events(s, events, strict=False),
                lambda s: oracle.ingest_cloud_events(s, events, strict=False),
            )

    def test_reingest_of_an_older_vm_deletes_once_per_table_then_lands(self):
        batched, looped = twin_schemas()
        first = vm_events(1, 0, steps=("start",)) + vm_events(2, 50, first_event_id=10)
        second = vm_events(1, 0, steps=("start", "stop", "start")) + vm_events(
            3, 99, first_event_id=20
        )
        for events in (first, second):
            head = batched.binlog.head_lsn
            run_twins(
                batched, looped,
                lambda s: ingest_cloud_events(s, events),
                lambda s: oracle.ingest_cloud_events(s, events),
            )
        # the re-ingest: its deletes come first, then one run per table
        tables = [
            (e.etype, e.table) for e in batched.binlog.read_from(head)
        ]
        runs = [key for i, key in enumerate(tables) if i == 0 or tables[i - 1] != key]
        assert runs == [
            (EventType.DELETE, "fact_vm_interval"),
            (EventType.DELETE, "fact_vm"),
            (EventType.INSERT, "fact_vm"),
            (EventType.INSERT, "fact_vm_interval"),
        ]
        # interval ids stay above every id still in use
        ids = batched.table("fact_vm_interval").column_values("interval_id")
        assert len(ids) == len(set(ids))

    def test_strict_failure_lands_nothing_and_deletes_nothing(self):
        batched, _ = twin_schemas()
        ingest_cloud_events(batched, vm_events(1, 0))
        before = state(batched)
        feed = vm_events(1, 0, steps=("start", "stop", "terminate"))
        feed.append(dict(feed[0], event_id=0))
        with pytest.raises(JsonSchemaError):
            ingest_cloud_events(batched, feed)
        assert state(batched) == before


# -- performance and analytics (upserting loaders) -----------------------------


class TestUpsertingLoaders:
    def test_performance_equals_row_at_a_time(self, job_records, small_resource):
        perfs = generate_performance_batch(job_records, small_resource, max_jobs=12)
        batched, looped = twin_schemas()
        # a second pass re-processes the window: every row updates in place
        for batch in (perfs[:8], perfs[4:] + perfs[:2]):
            run_twins(
                batched, looped,
                lambda s: ingest_performance(s, batch),
                lambda s: oracle.ingest_performance(s, batch),
            )
        assert len(batched.table("fact_job_perf")) == len(perfs)

    def test_summaries_equal_row_at_a_time(self, job_records, small_resource):
        perfs = generate_performance_batch(job_records, small_resource, max_jobs=6)
        summaries = [
            summarize_series(
                perf.job_id, perf.resource, "namd",
                {name: values.tolist() for name, values in perf.series.items()},
            )
            for perf in perfs
        ]
        batched, looped = twin_schemas()
        for schema in (batched, looped):
            create_jobs_star(schema)  # summaries join an existing star
        for batch in (summaries[:4], summaries[2:]):
            run_twins(
                batched, looped,
                lambda s: ingest_summaries(s, batch),
                lambda s: oracle.ingest_summaries(s, batch),
            )
