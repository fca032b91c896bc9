"""Loose federation: dump and segment shipping, staleness, converting a
member between loose and tight, routing across both, damaged shipments,
fan-in equivalence of any interleaving of ingest, ships, syncs, renames
and converts, and an API that keeps serving the hub across re-ships and
joins."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.aggregation import Aggregator
from repro.core import (
    FederationHub,
    FederationMonitor,
    LooseChannel,
    ReplicationChannel,
    ReplicationError,
    FaultPlan,
    ReplicationFilter,
    XdmodInstance,
    check_federation,
    corrupt_dump_file,
    inject_apply_faults,
    truncate_dump_file,
)
from repro.core import loose, replicator
from repro.etl import ParsedJob, ingest_cloud_events, ingest_jobs, ingest_storage_snapshots
from repro.realms import jobs_realm
from repro.timeutil import ts
from repro.ui import XdmodApi
from repro.ui.serving import QueryService
from repro.warehouse import BinlogCursor, Database, DumpError, RowBatch
from repro.warehouse import dump
from repro.warehouse.dump import SEGMENT_KIND, segment_records
from tests.conftest import property_settings
from tests.rest_client import get_json
from tests.test_batch_loaders import storage_doc, vm_events
from tests.test_columnar_aggregation import agg_snapshot


def make_job(job_id, resource="r1"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 3), nodes=1, cores=2, req_walltime_s=7200,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def satellite_schema():
    schema = Database("sat").create_schema("modw")
    ingest_jobs(schema, [make_job(i) for i in range(8)])
    return schema


def loose_member(n_jobs=8, **join):
    """A hub and a satellite of ``n_jobs`` jobs that joined it loosely."""
    hub = FederationHub("hub")
    sat = XdmodInstance("sat")
    ingest_jobs(sat.schema, [make_job(i) for i in range(n_jobs)])
    hub.join(sat, mode="loose", **join)
    return hub, sat


class TestLooseChannel:
    def test_ship_copies_data(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship()
        assert shipped.name == "fed_sat"
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )
        assert channel.shipments == 1

    def test_staleness_tracks_new_commits(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        assert channel.staleness > 0  # never shipped yet
        channel.ship()
        assert channel.staleness == 0
        ingest_jobs(satellite_schema, [make_job(100)])
        assert channel.staleness == 1

    def test_reship_replaces_previous_dump(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(100)])
        channel.ship()
        assert len(hub_db.schema("fed_sat").table("fact_job")) == 9

    def test_filter_applies_to_dump(self, satellite_schema):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        channel = LooseChannel(
            satellite_schema, hub_db, "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        shipped = channel.ship()
        assert {r["name"] for r in shipped.table("dim_resource").rows()} == {"r1"}
        assert len(shipped.table("fact_job")) == 8
        # bookkeeping tables never ship
        assert not shipped.has_table("etl_markers")

    def test_ship_via_file(self, satellite_schema, tmp_path):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship_via_file(tmp_path / "sat.dump.gz")
        assert (tmp_path / "sat.dump.gz").exists()
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )

    def test_to_tight_resumes_without_gap_or_overlap(self):
        """The heterogeneous model: start loose, convert to tight."""
        hub, sat = loose_member()
        ingest_jobs(sat.schema, [make_job(100), make_job(101)])
        hub.convert("sat", "tight")
        outcome = hub.sync()["sat"]
        assert outcome.applied == 2  # exactly the two new fact rows
        hub_fact = hub.database.schema("fed_sat").table("fact_job")
        assert len(hub_fact) == 10
        assert hub_fact.checksum() == sat.schema.table("fact_job").checksum()
        assert hub.ship_loose() == {} and hub.lag() == {"sat": 0}

    def test_converting_a_member_never_shipped_copies_it_whole_at_the_next_sync(
        self,
    ):
        hub, sat = loose_member(initial_sync=False)
        hub.convert("sat", "tight")
        assert not hub.database.has_schema("fed_sat")
        assert hub.sync()["sat"].status == "applied"
        fed = hub.database.schema("fed_sat")
        assert hub_tables(fed) == {
            name: sat.schema.table(name).checksum() for name in hub_tables(fed)
        }
        assert "fact_job" in hub_tables(fed) and hub.lag() == {"sat": 0}
        ingest_jobs(sat.schema, [make_job(100)])
        assert hub.sync()["sat"].applied == 1  # pumped from there on


def hub_tables(schema):
    """Checksum of every replicated (non-derived) table of a hub schema."""
    return {
        name: schema.table(name).checksum()
        for name in schema.table_names()
        if not schema.table(name).schema.derived
    }


def resource_ids(schema, table="fact_job"):
    return {row["resource_id"] for row in schema.table(table).rows()}


def resource_id(schema, name):
    return next(
        row["resource_id"] for row in schema.table("dim_resource").rows()
        if row["name"] == name
    )


class TestSegments:
    """After the first ship, a ship sends the binlog events since the last
    one, not the schema."""

    def count_calls(self, monkeypatch):
        calls = {"dump_schema": 0, "load_schema": 0}
        for name in calls:
            real = getattr(replicator, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(replicator, name, counted)
        return calls

    def test_reship_after_a_small_delta_neither_dumps_nor_loads(
        self, satellite_schema, monkeypatch
    ):
        calls = self.count_calls(monkeypatch)
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        assert calls == {"dump_schema": 1, "load_schema": 1}
        rows = channel.stats.rows_moved
        ingest_jobs(satellite_schema, [make_job(100), make_job(101)])
        delta = satellite_schema.binlog.head_lsn - channel.last_shipped_lsn
        shipped = channel.ship()
        assert calls == {"dump_schema": 1, "load_schema": 1}
        assert shipped is hub_db.schema("fed_sat")  # applied in place
        # exactly the admitted events of the delta: two fact_job inserts
        assert delta == 2
        assert channel.stats.events_moved == 2 and channel.stats.rows_moved == rows
        assert (channel.stats.dumps, channel.stats.segments) == (1, 1)
        assert channel.shipments == 2 and channel.staleness == 0
        assert hub_tables(shipped) == {
            name: satellite_schema.table(name).checksum() for name in hub_tables(shipped)
        }

    def test_segment_moves_only_the_admitted_events(self, satellite_schema):
        channel = LooseChannel(
            satellite_schema, Database("hub"), "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(60, resource="secret"), make_job(61)])
        delta = satellite_schema.binlog.read_from(channel.last_shipped_lsn)
        segment = channel.export()
        assert segment["kind"] == SEGMENT_KIND
        assert segment["binlog_head"] == satellite_schema.binlog.head_lsn
        # all of the delta but the excluded resource's dimension and fact rows
        routed_out = [
            e for e in delta
            if e.table == "dim_resource"
            or (e.table == "fact_job" and e.data["row"]["job_id"] == 60)
        ]
        assert len(routed_out) == 2
        shipped = [event for record in segment_records(segment) for event in record.events()]
        assert shipped == [e for e in delta if e not in routed_out]
        assert ("insert", "fact_job") in [(e.etype.value, e.table) for e in shipped]

    def test_ship_loose_counts_rows_for_a_dump_and_events_for_a_segment(self):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(5)])
        hub.join(sat, mode="loose", initial_sync=False)
        first = hub.ship_loose()["sat"]
        channel = hub.member("sat").loose_channel
        assert first.applied == channel.stats.rows_moved > 5
        ingest_jobs(sat.schema, [make_job(100), make_job(101), make_job(102)])
        assert hub.ship_loose()["sat"].applied == 3 == channel.stats.events_moved
        assert hub.ship_loose()["sat"].applied == 0  # nothing new: empty segment

    def test_filter_change_reships_a_dump_that_refilters_history(
        self, satellite_schema, monkeypatch
    ):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        secret = resource_id(satellite_schema, "secret")
        assert secret in resource_ids(hub_db.schema("fed_sat"))
        calls = self.count_calls(monkeypatch)
        channel.channel.filter.exclude_resources.add("secret")
        channel.ship()
        assert calls == {"dump_schema": 1, "load_schema": 1}
        assert secret not in resource_ids(hub_db.schema("fed_sat"))
        channel.channel.filter = ReplicationFilter(exclude_resources={"secret"})
        channel.ship()  # a new filter object has learned nothing: dump again
        assert calls == {"dump_schema": 2, "load_schema": 2}
        channel.ship()
        assert calls == {"dump_schema": 2, "load_schema": 2}

    def test_source_binlog_behind_the_last_ship_forces_a_dump(
        self, satellite_schema, monkeypatch
    ):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        calls = self.count_calls(monkeypatch)
        # the satellite was rebuilt: its log is shorter than what shipped
        rebuilt = Database("sat").create_schema("modw")
        ingest_jobs(rebuilt, [make_job(i) for i in range(3)])
        assert rebuilt.binlog.head_lsn < channel.last_shipped_lsn
        channel.channel.source = rebuilt
        channel.channel.cursor = BinlogCursor(rebuilt.binlog, channel.last_shipped_lsn)
        channel.ship()
        assert calls == {"dump_schema": 1, "load_schema": 1}
        assert len(hub_db.schema("fed_sat").table("fact_job")) == 3

    def test_hub_schema_gone_forces_a_dump(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        hub_db.drop_schema("fed_sat")
        channel.ship()
        assert channel.stats.dumps == 2
        assert len(hub_db.schema("fed_sat").table("fact_job")) == 8

    def test_segment_that_fails_partway_resumes_where_it_stopped(
        self, satellite_schema, monkeypatch
    ):
        """As a pump does: the cursor stands past the events that applied,
        and the next ship is a segment from there, not a dump."""
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        lsn = channel.last_shipped_lsn
        # a new resource: a dim_resource insert, then a run of fact_job ones
        ingest_jobs(satellite_schema, [make_job(100, "r9"), make_job(101, "r9")])
        target = hub_db.schema("fed_sat")

        def refuse_batches(batch):
            raise RuntimeError("batch refused")

        def refuse_facts(event, _apply=target.apply_event):
            if event.table == "fact_job":
                raise RuntimeError("hub refused a fact row")
            _apply(event)

        monkeypatch.setattr(target, "apply_rows", refuse_batches)
        monkeypatch.setattr(target, "apply_event", refuse_facts)
        with pytest.raises(ReplicationError, match="hub refused a fact row"):
            channel.ship()
        first_fact = next(
            event.lsn for event in satellite_schema.binlog.read_from(lsn)
            if event.table == "fact_job"
        )
        assert channel.last_shipped_lsn == first_fact and channel.shipments == 1
        assert len(target.table("dim_resource")) == 2  # applied partway
        monkeypatch.undo()
        calls = self.count_calls(monkeypatch)
        shipped = channel.ship()
        assert calls == {"dump_schema": 0, "load_schema": 0}
        assert shipped is target and channel.stats.events_moved == 2
        assert hub_tables(shipped) == {
            name: satellite_schema.table(name).checksum() for name in hub_tables(shipped)
        }


class TestSegmentDamage:
    """A segment file damaged in transit is rejected before any event
    applies; the hub and ``last_shipped_lsn`` stay as they were, and the
    next ship recovers."""

    @pytest.mark.parametrize(
        "damage",
        [
            *(lambda path, seed=seed: corrupt_dump_file(path, seed=seed, mode="payload")
              for seed in range(6)),
            lambda path: corrupt_dump_file(path, seed=1, mode="raw"),
            lambda path: truncate_dump_file(path, keep_fraction=0.5),
            lambda path: truncate_dump_file(path, keep_fraction=0.0),
        ],
        ids=[*(f"payload-{seed}" for seed in range(6)), "raw", "truncated", "empty"],
    )
    def test_damaged_segment_file_rejected_and_next_ship_recovers(
        self, satellite_schema, tmp_path, monkeypatch, damage
    ):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship_via_file(tmp_path / "dump.gz")
        before, lsn = hub_db.schema("fed_sat").checksum(), channel.last_shipped_lsn
        ingest_jobs(satellite_schema, [make_job(100), make_job(101, "r2")])
        write = loose.write_dump_file

        def write_damaged(document, path):
            assert document["kind"] == SEGMENT_KIND
            damage(write(document, path))

        monkeypatch.setattr(loose, "write_dump_file", write_damaged)
        with pytest.raises(DumpError):
            channel.ship_via_file(tmp_path / "segment.gz")
        assert hub_db.schema("fed_sat").checksum() == before
        assert channel.last_shipped_lsn == lsn and channel.shipments == 1
        monkeypatch.undo()
        shipped = channel.ship_via_file(tmp_path / "segment.gz")
        assert channel.stats.segments == 1 and channel.stats.dumps == 1
        assert hub_tables(shipped) == {
            name: satellite_schema.table(name).checksum() for name in hub_tables(shipped)
        }

    def test_a_dump_with_a_flipped_digit_in_its_binlog_head_is_rejected(
        self, satellite_schema, tmp_path, monkeypatch
    ):
        """Every later segment would start from a wrong head: the header
        checksum refuses the dump, and the hub keeps what it held."""
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(100)])
        channel.channel.filter = ReplicationFilter()  # the next ship dumps
        before, lsn = hub_db.schema("fed_sat").checksum(), channel.last_shipped_lsn
        write = loose.write_dump_file

        def write_flipped(document, path):
            head = str(document["binlog_head"])
            flipped = str(int(head[0]) % 9 + 1) + head[1:]
            return write({**document, "binlog_head": int(flipped)}, path)

        monkeypatch.setattr(loose, "write_dump_file", write_flipped)
        with pytest.raises(DumpError, match="header"):
            channel.ship_via_file(tmp_path / "dump.gz")
        assert hub_db.schema("fed_sat").checksum() == before
        assert channel.last_shipped_lsn == lsn and channel.stats.dumps == 1
        monkeypatch.undo()
        channel.ship_via_file(tmp_path / "dump.gz")
        assert channel.last_shipped_lsn == satellite_schema.binlog.head_lsn

    def test_segment_from_the_wrong_position_rejected(self, satellite_schema):
        channel = LooseChannel(satellite_schema, Database("hub"), "fed_sat")
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(100)])
        segment = channel.export()
        ingest_jobs(satellite_schema, [make_job(101)])
        channel.ship()
        with pytest.raises(DumpError, match="starts at LSN"):
            channel._receive(segment)  # a stale redelivery


def _events_of_v1(segment):
    """The segment as format 1 wrote it: one event per row."""
    (record,) = segment.pop("records")
    segment["format_version"] = 1
    segment["events"] = [event.to_dict() for event in RowBatch.from_dict(record).events()]


def _split_reversed(segment):
    record = segment["records"][0]
    later = {**record, "base": record["base"] + 1, "rows": record["rows"][1:]}
    segment["records"] = [later, {**record, "rows": record["rows"][:1]}]


#: ways to make a segment's records something no log could hold; the
#: segment under test is one two-row fact_job insert record, at its
#: ``base_lsn``, with a third (excluded) row cut out before ``binlog_head``
SEGMENT_TAMPERS = {
    "v1-events": _events_of_v1,
    "ragged-row": lambda segment: segment["records"][0]["rows"][1].pop(),
    "unknown-etype": lambda segment: segment["records"][0].update(etype="upsert"),
    "batch-delete": lambda segment: segment["records"][0].update(etype="delete"),
    "update-keys-short": lambda segment: segment["records"][0].update(
        etype="update", keys=[[1, 100]]
    ),
    "before-base": lambda segment: segment["records"][0].update(
        base=segment["base_lsn"] - 1
    ),
    "past-head": lambda segment: segment["records"][0].update(
        base=segment["binlog_head"] - 1
    ),
    "out-of-order": _split_reversed,
    "excluded-row": None,  # decodes: the hub's filter drops the row
}


class TestSegmentDecode:
    """A segment whose checksum holds but whose records do not decode to
    what the log could hold is refused before anything applies; one that
    decodes but carries an excluded resource's row still never lands it."""

    @pytest.mark.parametrize("tamper", list(SEGMENT_TAMPERS))
    def test_records_are_checked_before_any_applies_and_filtered_on_arrival(
        self, satellite_schema, tmp_path, monkeypatch, tamper
    ):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        channel = LooseChannel(
            satellite_schema, hub_db, "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        channel.ship()
        before, lsn = hub_db.schema("fed_sat").checksum(), channel.last_shipped_lsn
        ingest_jobs(satellite_schema, [make_job(100), make_job(101), make_job(102, "secret")])
        secret = resource_id(satellite_schema, "secret")
        write = loose.write_dump_file

        def write_tampered(document, path):
            segment = json.loads(json.dumps(document))
            assert [len(r["rows"]) for r in segment["records"]] == [2]
            if SEGMENT_TAMPERS[tamper] is None:
                rows = segment["records"][0]["rows"]
                rows.append([102, secret, *rows[0][2:]])
            else:
                SEGMENT_TAMPERS[tamper](segment)
            segment["checksum"] = dump._segment_checksum(segment)
            return write(segment, path)

        monkeypatch.setattr(loose, "write_dump_file", write_tampered)
        if SEGMENT_TAMPERS[tamper] is None:
            shipped = channel.ship_via_file(tmp_path / "segment.gz")
            assert secret not in resource_ids(shipped)
            assert sorted(resource_ids(shipped)) == [resource_id(satellite_schema, "r1")]
            assert len(shipped.table("fact_job")) == 10
            assert channel.last_shipped_lsn == satellite_schema.binlog.head_lsn
            return
        with pytest.raises(DumpError):
            channel.ship_via_file(tmp_path / "segment.gz")
        assert hub_db.schema("fed_sat").checksum() == before
        assert channel.last_shipped_lsn == lsn and channel.shipments == 1


class TestRoutingAcrossHandover:
    """A resource excluded by the filter stays off the hub after a dump,
    whichever way new rows follow it: a dump teaches the channel's filter
    every resource id it saw, so a later ``fact_job`` row of a resource
    whose ``dim_resource`` row came before the dump is still routed out."""

    @pytest.mark.parametrize("follow", ["to_tight", "segment"])
    def test_new_rows_of_an_excluded_resource_never_reach_the_hub(self, follow):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(8)])
        ingest_jobs(sat.schema, [make_job(50, resource="secret")])
        hub.join(
            sat, mode="loose",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        ingest_jobs(sat.schema, [make_job(60, resource="secret"), make_job(61)])
        if follow == "to_tight":
            hub.convert("sat", "tight")
            assert hub.sync()["sat"].applied == 1
        else:
            hub.ship_loose()
        fed = hub.database.schema("fed_sat")
        assert resource_id(sat.schema, "secret") not in resource_ids(fed)
        assert {row["job_id"] for row in fed.table("fact_job").rows()} == {*range(8), 61}


class TestOneChannelPerMember:
    """A loose member's hub side is the member's one ReplicationChannel:
    the hub counts, lags and hands it over like a tight member's."""

    def test_segments_count_in_the_member_status(self):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(3)])
        member = hub.join(sat, mode="loose")
        assert member.channel is member.loose_channel.channel
        ingest_jobs(sat.schema, [make_job(100), make_job(101), make_job(102)])
        hub.ship_loose()
        status = next(m for m in FederationMonitor(hub).status().members)
        assert status.events_applied == member.loose_channel.stats.events_moved == 3
        assert status.syncs > 0 and status.sync_seconds >= 0

    def test_hub_lag_is_the_loose_staleness(self):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(3)])
        member = hub.join(sat, mode="loose", initial_sync=False)
        channel = member.loose_channel

        def lag():
            assert hub.lag()["sat"] == channel.staleness
            return channel.staleness

        assert lag() == sat.schema.binlog.head_lsn > 0
        assert hub.ship_loose()["sat"].status == "applied" and lag() == 0
        ingest_jobs(sat.schema, [make_job(100)])
        assert lag() == 1
        original_export = channel.export
        channel.export = lambda: {**original_export(), "checksum": "0" * 64}
        assert hub.ship_loose()["sat"].status == "failed"
        assert lag() == 1

    def test_to_tight_hands_over_the_same_channel(self):
        hub, sat = loose_member()
        member = hub.member("sat")
        channel, routing = member.channel, member.filter
        assert hub.convert("sat", "tight") is member
        assert member.mode == "tight" and member.loose_channel is None
        assert member.channel is channel and member.filter is routing
        assert hub.ship_loose() == {}  # the member ships no more
        hub.convert("sat", "loose")
        assert member.mode == "loose" and member.channel is channel
        ingest_jobs(sat.schema, [make_job(100)])
        assert hub.ship_loose()["sat"].applied == 1  # a segment, not a dump
        assert member.loose_channel.stats.dumps == 0

    def test_a_tight_member_whose_routing_never_changes_cuts_no_dump(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a dump was cut")

        monkeypatch.setattr(replicator, "dump_schema", refuse)
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(4)])
        ingest_jobs(sat.schema, [make_job(50, resource="secret")])
        hub.join(sat, filter=ReplicationFilter(exclude_resources={"secret"}))
        for job in (100, 101, 102):
            ingest_jobs(sat.schema, [make_job(job), make_job(job + 10, "secret")])
            assert hub.sync()["sat"].status == "applied"
        assert hub.sync(batch=1)["sat"].applied == 0
        assert len(hub.database.schema("fed_sat").table("fact_job")) == 7
        assert check_federation(hub, strict=True).ok

    def test_a_tight_member_refilters_its_history_after_a_rename(self):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(1), make_job(2, resource="r2")])
        hub.join(sat, filter=ReplicationFilter(exclude_resources={"secret"}))
        dim = sat.schema.table("dim_resource")
        for old, new, jobs in (("r2", "secret", [1]), ("secret", "r2", [1, 2])):
            dim.update_where(lambda row, old=old: row["name"] == old, {"name": new})
            assert hub.sync()["sat"].status == "applied"
            fact = hub.database.schema("fed_sat").table("fact_job")
            assert sorted(fact.column_values("job_id")) == jobs
            assert check_federation(hub, strict=True).ok

    def test_converting_tight_to_loose_ships_a_segment_from_the_cursor(self):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        ingest_jobs(sat.schema, [make_job(i) for i in range(8)])
        member = hub.join(sat)
        ingest_jobs(sat.schema, [make_job(100), make_job(101)])
        hub.convert("sat", "loose")
        assert hub.sync()["sat"].status == "idle" and hub.lag() == {"sat": 2}
        assert member.loose_channel.export()["kind"] == SEGMENT_KIND
        assert hub.ship_loose()["sat"].applied == 2
        assert member.loose_channel.stats.dumps == 0
        fed = hub.database.schema("fed_sat")
        assert hub_tables(fed) == {
            name: sat.schema.table(name).checksum() for name in hub_tables(fed)
        }

    def test_a_row_renamed_into_an_excluded_resource_after_it_shipped(self):
        """The hub holds the satellite seen through the filter by each
        resource's current name: once ``r2`` is renamed to the excluded
        ``secret``, its jobs leave the hub, the ones that reached it before
        included, whether the member is tight or loose."""
        hub = FederationHub("hub")
        satellites = {"t": XdmodInstance("t"), "l": XdmodInstance("l")}
        for mode, sat in zip(("tight", "loose"), satellites.values()):
            # r2 is known before the first ship: the segment holds no
            # dim_resource insert that would teach its name again
            ingest_jobs(sat.schema, [make_job(1), make_job(2, resource="r2")])
            hub.join(
                sat, mode=mode,
                filter=ReplicationFilter(exclude_resources={"secret"}),
            )
            ingest_jobs(sat.schema, [make_job(10, resource="r2")])
            sat.schema.table("dim_resource").update_where(
                lambda row: row["name"] == "r2", {"name": "secret"}
            )
        hub.sync()
        assert hub.ship_loose()["l"].status == "applied"
        facts = {
            name: hub.database.schema(f"fed_{name}").table("fact_job")
            for name in satellites
        }
        assert facts["l"].checksum() == facts["t"].checksum()
        assert facts["l"].column_values("job_id") == [1]
        for name, sat in satellites.items():
            fed = hub.database.schema(f"fed_{name}")
            assert fed.table("dim_resource").column_values("name") == ["r1"]
            dumped, tight = oracle_tables(sat.schema, {"secret"})
            assert hub_tables(fed) == dumped == tight
        assert check_federation(hub, strict=True).ok


# -- fan-in equivalence under any interleaving ---------------------------------


SETTINGS = property_settings(30)
T0 = ts(2017, 1, 1)

SHIP = st.tuples(st.just("ship"), st.sampled_from(["memory", "file"]))
STEPS = st.one_of(
    st.tuples(st.just("jobs"), st.integers(1, 4), st.sampled_from(["r1", "r2", "secret"])),
    st.tuples(st.just("storage"), st.integers(1, 3), st.sampled_from(["store1", "secret"])),
    st.tuples(st.just("cloud"), st.integers(0, 2)),
    SHIP,
    SHIP,
    st.just(("corrupt",)),
    st.just(("poison",)),
    st.just(("filter",)),
    st.just(("aggregate",)),
    st.just(("convert",)),
    st.just(("rename",)),
)


def cloud_feed(n_vms):
    """The cumulative feed after ``n_vms`` VMs: every VM again, each with
    its whole history (ingesting it deletes and re-inserts the VMs already
    seen); every third VM runs on the excluded resource."""
    return [
        event
        for vm in range(1, n_vms + 1)
        for event in vm_events(
            vm, 7200 * vm, steps=("start", "stop", "start")[: 1 + vm % 3],
            resource="secret" if vm % 3 == 0 else "cloud1",
            first_event_id=10 * vm,
        )
    ]


def oracle_tables(source, excluded):
    """What a fresh full filtered dump ships and a tight channel from LSN 0
    replicates, under a new filter with the same settings.  The tight
    channel answers the resync rule after its catch-up, as a tight member's
    sync does: a stream routes a row by the name its resource had when the
    row went by, and a rename across the routing boundary resyncs."""
    dumped = LooseChannel(
        source, Database("oracle"), "fed",
        filter=ReplicationFilter(tables=None, exclude_resources=excluded),
    ).ship()
    database = Database("tight")
    channel = ReplicationChannel(
        source, database.create_schema("fed"),
        filter=ReplicationFilter(tables=None, exclude_resources=excluded),
    )
    channel.catch_up()
    if channel.resync_due(database):
        channel.resync(database)
    return hub_tables(dumped), hub_tables(channel.target)


class TestFanInEquivalence:
    @SETTINGS
    @given(
        excluded=st.sampled_from([set(), {"secret"}]),
        steps=st.lists(STEPS, min_size=4, max_size=16),
        last=SHIP,
    )
    # a segment dead-letters a poisoned event; the hub lacks it until the
    # filter change's dump covers it
    @example(
        excluded=set(),
        steps=[("ship", "memory"), ("poison",), ("jobs", 2, "r1"), ("ship", "memory")],
        last=("ship", "memory"),
    )
    def test_any_interleaving_ships_what_a_dump_and_a_tight_channel_would(
        self, excluded, steps, last
    ):
        hub = FederationHub("hub")
        sat = XdmodInstance("sat")
        # every realm holds rows of the excluded resource from the start
        steps = [
            ("jobs", 3, "r1"), ("jobs", 2, "secret"), ("storage", 2, "secret"),
            ("cloud", 3), *steps, last,
        ]
        member = hub.join(
            sat, mode="loose", initial_sync=False, quarantine=True,
            filter=ReplicationFilter(tables=None, exclude_resources=excluded),
        )
        next_job = day = n_vms = files = 0
        with tempfile.TemporaryDirectory() as scratch:
            for i, step in enumerate(steps):
                kind, channel = step[0], member.loose_channel
                if kind == "jobs":
                    _, n, resource = step
                    ingest_jobs(sat.schema, [
                        make_job(next_job + i, resource) for i in range(n)
                    ])
                    next_job += n
                elif kind == "storage":
                    _, n, resource = step
                    ingest_storage_snapshots(sat.schema, [
                        storage_doc(user, T0 + 86400 * (day + i), resource=resource)
                        for i, user in enumerate(["alice", "bob", "carol"][:n])
                    ])
                    day += n
                elif kind == "cloud":
                    n_vms += step[1]
                    ingest_cloud_events(sat.schema, cloud_feed(n_vms))
                elif kind == "filter":
                    member.filter.exclude_resources ^= {"secret"}
                elif kind == "rename":
                    # r2 and secret swap names: each moves across the
                    # routing boundary, with whatever rows it holds
                    dim = sat.schema.table("dim_resource")
                    for old, new in (("r2", "swap"), ("secret", "r2"), ("swap", "secret")):
                        dim.update_where(lambda row, old=old: row["name"] == old, {"name": new})
                elif kind == "convert":
                    hub.convert("sat", "tight" if channel is not None else "loose")
                elif kind == "aggregate":
                    hub.aggregate_federation(["month"], incremental=True)
                elif kind == "poison":
                    # the next event the satellite logs fails every apply:
                    # a segment or a pump dead-letters it
                    inject_apply_faults(
                        member.channel,
                        FaultPlan(poison_lsns={sat.schema.binlog.head_lsn}),
                    )
                elif kind == "corrupt":
                    if channel is None or channel.last_shipped_lsn is None:
                        continue
                    before = hub_tables(hub.database.schema(member.fed_schema))
                    lsn = channel.last_shipped_lsn
                    real = channel.export
                    with mock.patch.object(
                        channel, "export",
                        lambda: {**real(), "checksum": "0" * 64},
                    ), pytest.raises(DumpError, match="checksum"):
                        channel.ship()
                    assert channel.last_shipped_lsn == lsn
                    assert hub_tables(hub.database.schema(member.fed_schema)) == before
                else:
                    if channel is None:
                        assert hub.sync()["sat"].status in ("applied", "quarantined")
                    elif step[1] == "file":
                        files += 1
                        channel.ship_via_file(Path(scratch) / f"ship{files}.gz")
                    else:
                        assert hub.ship_loose()["sat"].status in ("applied", "quarantined")
                    if member.dead_letter_depth:
                        # only a dump covers a dead-lettered event: end
                        # with a filter change and one more ship
                        if i == len(steps) - 1:
                            steps += [("filter",), last]
                        continue
                    on_hub = hub_tables(hub.database.schema(member.fed_schema))
                    dumped, tight = oracle_tables(
                        sat.schema, set(member.filter.exclude_resources)
                    )
                    assert on_hub == dumped == tight
        assert member.dead_letter_depth == 0
        fed = hub.database.schema(member.fed_schema)
        hub.aggregate_federation(["month"], incremental=True)
        folded = agg_snapshot(fed)
        hub.aggregate_federation(["month"])
        assert agg_snapshot(fed) == folded


class TestApiAcrossMembershipChanges:
    """An API built once over ``hub.federated_schemas()`` serves what the
    hub holds now: a loose re-ship loads a new ``Schema`` in place of the
    old one, and members join after the API exists."""

    END = ts(2018, 1, 1)

    def jobs_ended(self, api):
        status, payload, _ = get_json(
            api, f"/query?realm=jobs&metric=n_jobs_ended&start={ts(2017, 1, 1)}"
            f"&end={self.END}&period=year",
        )
        assert status == 200
        return sum(row["value"] for row in payload["rows"])

    @staticmethod
    def on_hub(hub):
        return sum(len(s.table("fact_job")) for s in hub.federated_schemas().values())

    def test_api_held_across_a_reship_serves_the_new_facts(self):
        from tests.conftest import build_two_site_federation

        hub, satellites, _, _ = build_two_site_federation(mode_b="loose")
        hub.aggregate_federation()
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        before = self.jobs_ended(api)
        assert before == self.on_hub(hub)
        ingest_jobs(satellites["site1"].schema, [make_job(10**6 + i) for i in range(3)])
        hub.ship_loose()
        hub.aggregate_federation()
        assert self.jobs_ended(api) == before + 3 == self.on_hub(hub)

    def test_replaced_schema_with_an_equal_data_version_is_not_served_from_cache(self):
        def member(cores):
            schema = Database("sat").create_schema("modw")
            ingest_jobs(schema, [replace(make_job(i), cores=cores) for i in range(4)])
            Aggregator(schema).aggregate_all(["year"])
            return schema

        old, new = member(2), member(8)
        assert old.data_version == new.data_version
        sources = {"sat": old}
        service = QueryService({"jobs": jobs_realm()}, sources)
        params = {
            "realm": "jobs", "metric": "cpu_hours", "start": str(ts(2017, 1, 1)),
            "end": str(self.END), "period": "year",
        }
        first = service.respond(params, chart=False)
        sources["sat"] = new  # what a re-ship does to the hub's mapping
        second = service.respond(params, chart=False)
        assert second.cache == "stale"
        assert json.loads(second.body)["rows"][0]["value"] == 4 * json.loads(first.body)["rows"][0]["value"]

    def test_member_that_joins_after_the_api_was_built_shows_up(self):
        from tests.conftest import build_two_site_federation

        hub, _, _, conversion = build_two_site_federation()
        hub.aggregate_federation()
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        before = self.jobs_ended(api)
        late = XdmodInstance("site9", conversion=conversion)
        ingest_jobs(late.schema, [make_job(i, resource="gamma") for i in range(5)])
        hub.join(late, mode="loose")
        hub.aggregate_federation()
        assert self.jobs_ended(api) == before + 5 == self.on_hub(hub)
