"""Tight replication: fidelity, filtering, routing, resumability."""

from __future__ import annotations

import pytest

from repro.core import (
    FaultPlan,
    FederationHub,
    ReplicationChannel,
    ReplicationFilter,
    RetryPolicy,
    USER_PROFILE_TABLES,
    XdmodInstance,
    inject_apply_faults,
)
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import ColumnType, Database, RowBatch, Schema, TableSchema, make_columns

C = ColumnType


def make_job(job_id, resource="comet", user="alice"):
    return ParsedJob(
        job_id=job_id, user=user, pi="pi001", queue="normal",
        application="namd", submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 2), nodes=1, cores=4, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def source_and_target():
    db = Database("satellite")
    source = db.create_schema("modw")
    hub_db = Database("hub")
    target = hub_db.create_schema("fed_satellite")
    return source, target


class TestChannelBasics:
    def test_replicates_jobs_realm(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(i) for i in range(10)])
        channel = ReplicationChannel(source, target)
        applied = channel.catch_up()
        assert applied > 0
        assert channel.lag == 0
        assert target.table("fact_job").checksum() == source.table("fact_job").checksum()
        assert target.table("dim_person").checksum() == source.table("dim_person").checksum()

    def test_incremental_replication(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1)])
        channel = ReplicationChannel(source, target)
        channel.catch_up()
        ingest_jobs(source, [make_job(2)])
        assert channel.lag == 1
        channel.pump()
        assert len(target.table("fact_job")) == 2

    def test_key_changing_update_replicates_as_a_move(self, source_and_target):
        """The hub copy follows a row whose primary key was updated on the
        satellite, instead of keeping it under both keys."""
        source, target = source_and_target
        people = source.create_table(TableSchema(
            "dim_person",
            make_columns([("person_id", C.INT, False), ("username", C.STR, False)]),
            primary_key=("person_id",),
        ))
        people.upsert_columns({"person_id": [1, 2], "username": ["alice", "bob"]})
        channel = ReplicationChannel(source, target)
        channel.catch_up()
        people.update_where(lambda r: r["username"] == "alice", {"person_id": 9})
        channel.pump()
        assert channel.lag == 0
        replica = target.table("dim_person")
        assert sorted(replica.raw_rows()) == [(2, "bob"), (9, "alice")]
        assert replica.checksum() == people.checksum()
        assert target.checksum() == source.checksum()

    def test_stats_track_filtering(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1)])
        channel = ReplicationChannel(
            source, target, filter=ReplicationFilter(tables=("dim_resource",))
        )
        channel.catch_up()
        assert channel.stats.events_filtered > 0
        assert channel.stats.events_seen == (
            channel.stats.events_applied + channel.stats.events_filtered
        )

    def test_resume_mid_stream_requires_provisioned_target(self, source_and_target):
        """Resuming past the DDL events into an empty schema is a hard
        error naming the poison LSN — the cursor does not advance past it
        (a real resume always follows a dump load; see LooseChannel)."""
        from repro.core import ReplicationError

        source, target = source_and_target
        ingest_jobs(source, [make_job(1)])
        mid = source.binlog.head_lsn
        ingest_jobs(source, [make_job(2)])
        channel = ReplicationChannel(source, target, start_lsn=mid)
        with pytest.raises(ReplicationError) as exc:
            channel.catch_up()
        assert "LSN" in str(exc.value)
        assert channel.cursor.position <= source.binlog.head_lsn


class TestTableFilter:
    def test_default_excludes_heavy_and_profile_tables(self):
        f = ReplicationFilter()
        assert f.table_allowed("fact_job")
        assert f.table_allowed("dim_person")
        assert not f.table_allowed("job_timeseries")  # Section II-C5
        for table in USER_PROFILE_TABLES:
            assert not f.table_allowed(table)
        assert not f.table_allowed("etl_markers")
        assert not f.table_allowed("agg_job_month")  # hub re-aggregates

    def test_none_whitelist_allows_other_realms(self):
        f = ReplicationFilter(tables=None)
        assert f.table_allowed("fact_storage")
        assert f.table_allowed("fact_vm")
        assert not f.table_allowed("job_timeseries")

    def test_initial_release_is_jobs_realm_only(self):
        """Section II-C1: only HPC Jobs realm replicates by default."""
        f = ReplicationFilter()
        assert not f.table_allowed("fact_storage")
        assert not f.table_allowed("fact_vm")
        assert not f.table_allowed("fact_job_perf")


class TestResourceRouting:
    def test_excluded_resource_rows_never_reach_hub(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1, resource="open_cluster"),
                             make_job(2, resource="secure_cluster")])
        channel = ReplicationChannel(
            source, target,
            filter=ReplicationFilter(exclude_resources={"secure_cluster"}),
        )
        channel.catch_up()
        names = {r["name"] for r in target.table("dim_resource").rows()}
        assert names == {"open_cluster"}
        open_id = next(iter(target.table("dim_resource").rows()))["resource_id"]
        assert all(
            r["resource_id"] == open_id for r in target.table("fact_job").rows()
        )
        assert len(target.table("fact_job")) == 1

    def test_include_allowlist(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1, resource="a"), make_job(2, resource="b"),
                             make_job(3, resource="c")])
        channel = ReplicationChannel(
            source, target,
            filter=ReplicationFilter(include_resources={"b"}),
        )
        channel.catch_up()
        assert {r["name"] for r in target.table("dim_resource").rows()} == {"b"}
        assert len(target.table("fact_job")) == 1

    def test_filter_learns_mapping_from_stream(self, source_and_target):
        """No out-of-band catalog: dim_resource events teach the filter."""
        source, target = source_and_target
        f = ReplicationFilter(exclude_resources={"secret"})
        channel = ReplicationChannel(source, target, filter=f)
        ingest_jobs(source, [make_job(1, resource="secret")])
        channel.catch_up()
        assert f._resource_names  # learned
        assert len(target.table("fact_job")) == 0

    def test_delete_events_respect_routing(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1, resource="open"),
                             make_job(2, resource="secret")])
        channel = ReplicationChannel(
            source, target,
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        channel.catch_up()
        source.table("fact_job").delete_where(lambda r: True)
        channel.catch_up()
        assert len(target.table("fact_job")) == 0  # the open row's delete applied


class TestAmendmentsPropagate:
    """Operational reality: a re-shred amends or voids job records; tight
    replication must carry corrections, not only inserts."""

    def test_update_propagates(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1), make_job(2)])
        channel = ReplicationChannel(source, target)
        channel.catch_up()
        # the site amends job 1's accounting (e.g. corrected core count)
        source.table("fact_job").update_where(
            lambda r: r["job_id"] == 1, {"cores": 64, "cpu_hours": 64.0}
        )
        channel.catch_up()
        assert target.table("fact_job").checksum() == (
            source.table("fact_job").checksum()
        )
        resource_id = next(iter(target.table("dim_resource").rows()))["resource_id"]
        assert target.table("fact_job").get((resource_id, 1))["cores"] == 64

    def test_void_propagates(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1), make_job(2), make_job(3)])
        channel = ReplicationChannel(source, target)
        channel.catch_up()
        source.table("fact_job").delete_where(lambda r: r["job_id"] == 2)
        channel.catch_up()
        assert len(target.table("fact_job")) == 2
        assert target.table("fact_job").checksum() == (
            source.table("fact_job").checksum()
        )

    def test_amended_hub_reaggregates_correctly(self, source_and_target):
        from repro.aggregation import Aggregator

        source, target = source_and_target
        ingest_jobs(source, [make_job(1)])
        channel = ReplicationChannel(source, target)
        channel.catch_up()
        source.table("fact_job").update_where(
            lambda r: True, {"cpu_hours": 123.0, "xdsu": 123.0}
        )
        channel.catch_up()
        Aggregator(target).aggregate_jobs("month")
        agg_total = sum(
            r["cpu_hours"] for r in target.table("agg_job_month").rows()
        )
        assert agg_total == 123.0


class TestOneRowRecords:
    """A single-row write is a one-row batch record, and the hub applies
    it through ``Schema.apply_rows`` like any other batch record."""

    def test_a_one_row_ingest_reaches_the_hub_through_apply_rows(self, monkeypatch):
        hub = FederationHub("hub")
        site = XdmodInstance("site")
        site.pipeline.ingest_parsed_jobs([make_job(1)])
        member = hub.join(site)
        hub.sync()
        events, batches = [], []
        apply_rows = Schema.apply_rows
        monkeypatch.setattr(Schema, "apply_event", lambda self, event: events.append(event))

        def counted(self, batch):
            batches.append(batch)
            apply_rows(self, batch)

        monkeypatch.setattr(Schema, "apply_rows", counted)
        site.pipeline.ingest_parsed_jobs([make_job(2)])  # dimensions known: one fact row
        hub.sync()
        assert events == []
        assert [(b.table, b.etype.value, len(b.rows)) for b in batches] == [
            ("fact_job", "insert", 1),
        ]
        assert member.channel.lag == 0
        hub_fact = member.channel.target.table("fact_job")
        assert hub_fact.checksum() == site.schema.table("fact_job").checksum()

    def test_a_poisoned_one_row_record_quarantines_at_its_lsn(self, source_and_target):
        source, target = source_and_target
        ingest_jobs(source, [make_job(1)])
        channel = ReplicationChannel(
            source, target, retry_policy=RetryPolicy(max_retries=2), quarantine=True,
        )
        channel.catch_up()
        ingest_jobs(source, [make_job(2)])
        (record,) = source.binlog.read_records(channel.cursor.position)
        assert type(record) is RowBatch and len(record.rows) == 1
        wrapper = inject_apply_faults(channel, FaultPlan(poison_lsns={record.base}))
        assert channel.pump() == 0
        assert channel.dead_letters.lsns() == [record.base]
        letter = channel.dead_letters.get(record.base)
        assert letter.attempts == 3 and letter.event.data["row"]["job_id"] == 2
        assert wrapper.attempts[record.base] == 3
        stats = channel.stats
        assert (stats.retries, stats.apply_failures, stats.events_quarantined) == (2, 3, 1)
        assert channel.lag == 0 and len(target.table("fact_job")) == 1
        wrapper.plan.heal()
        assert channel.replay() == 1
        assert target.table("fact_job").checksum() == source.table("fact_job").checksum()
