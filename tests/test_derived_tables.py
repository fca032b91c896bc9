"""Derived tables: ``TableSchema.derived``.

A derived table (every ``agg_*`` table and ``agg_watermark``) is
recomputed from other tables of its schema.  Its row mutations move the
versions and drop the column cache like any other table's, but build no
row image and append no binlog event; its ``CREATE_TABLE`` / ``DROP_TABLE``
stay logged; replication refuses it because its schema says so.  Replaying
a binlog therefore reproduces every *logged* table, and re-aggregating
reproduces the rest (DESIGN §5, invariants 2 and 4).
"""

from __future__ import annotations

import json

import pytest

from repro.aggregation import JOBS, SPECS, Aggregator
from repro.aggregation.engine import agg_watermark_schema
from repro.core import LooseChannel, ReplicationChannel, ReplicationFilter
from repro.etl import ingest_cloud_events, ingest_jobs, ingest_storage_snapshots
from repro.obs import MetricsRegistry, Observability
from repro.realms import jobs_realm
from repro.timeutil import PERIODS, ts
from repro.ui import XdmodApi
from repro.warehouse import (
    ColumnType,
    Database,
    EventType,
    TableSchema,
    dump_schema,
    load_schema,
    make_columns,
    read_dump_file,
    write_dump_file,
)

from .test_batch_apply import make_job
from .test_batch_loaders import storage_doc, vm_events

C = ColumnType
T0 = ts(2017, 1, 1)
ROW_EVENTS = (EventType.INSERT, EventType.UPDATE, EventType.DELETE, EventType.TRUNCATE)


def rollup_schema(derived=True, name="rollup"):
    return TableSchema(
        name,
        make_columns([("k", C.INT, False), ("total", C.FLOAT)]),
        primary_key=("k",),
        derived=derived,
    )


@pytest.fixture()
def schema():
    return Database("sat", metrics=MetricsRegistry()).create_schema("modw")


def aggregated_satellite():
    """Jobs, storage and cloud facts, fully aggregated."""
    schema = Database("sat").create_schema("modw")
    ingest_jobs(schema, [make_job(i, user=f"u{i % 4}") for i in range(1, 40)])
    ingest_storage_snapshots(
        schema, [storage_doc(u, T0 + 86400 * i) for i, u in enumerate("abcab")]
    )
    ingest_cloud_events(schema, vm_events(1, 0) + vm_events(2, 7200, first_event_id=10))
    Aggregator(schema).aggregate_all()
    return schema


class TestSchemaFlag:
    def test_every_aggregate_table_declares_itself_derived(self):
        for table_schema in (
            *(spec.table_schema(period) for spec in SPECS for period in PERIODS),
            agg_watermark_schema(),
        ):
            assert table_schema.derived, table_schema.name

    def test_description_is_unchanged_unless_derived(self):
        """Emitted only when true: every dump, ``CREATE_TABLE`` payload and
        checksum written before the key existed stays byte-identical."""
        plain = rollup_schema(derived=False).to_dict()
        assert "derived" not in plain
        assert sorted(plain) == ["columns", "name", "primary_key"]
        assert rollup_schema().to_dict() == {**plain, "derived": True}

    def test_round_trips_and_legacy_descriptions_are_not_derived(self):
        assert TableSchema.from_dict(rollup_schema().to_dict()) == rollup_schema()
        legacy = rollup_schema(derived=False).to_dict()
        assert TableSchema.from_dict(legacy).derived is False
        assert TableSchema.from_dict(legacy) == rollup_schema(derived=False)
        assert rollup_schema() != rollup_schema(derived=False)

    def test_flag_is_frozen(self):
        with pytest.raises(AttributeError):
            rollup_schema().derived = False


class TestRowMutationsLogNothing:
    def test_ddl_is_logged_row_mutations_are_not(self, schema):
        table = schema.create_table(rollup_schema())
        head = schema.binlog.head_lsn
        table.insert({"k": 1, "total": 1.0})
        table.upsert({"k": 1, "total": 2.0})
        table.upsert({"k": 2, "total": 2.0})
        table.upsert_columns({"k": [2, 3, 4], "total": [0.5, 1.5, 2.5]})
        table.update_where(lambda r: r["k"] == 3, {"total": 9.0})
        table.update_where(lambda r: r["k"] == 4, {"k": 40})
        table.delete_where(lambda r: r["k"] == 1)
        assert table.delete_key((2,)) is True
        assert list(table.raw_rows()) == [(3, 9.0), (40, 2.5)]
        table.truncate()
        assert schema.binlog.head_lsn == head
        schema.drop_table("rollup")
        assert [(e.etype, e.table) for e in schema.binlog] == [
            (EventType.CREATE_TABLE, "rollup"), (EventType.DROP_TABLE, "rollup"),
        ]
        # both say what the table is, so a filter needs to see only one
        assert schema.binlog.read_from(0)[0].data["derived"] is True
        assert schema.binlog.read_from(1)[0].data == {"derived": True}

    def test_versions_and_column_cache_move_like_a_logged_table(self, schema):
        derived = schema.create_table(rollup_schema())
        logged = schema.create_table(rollup_schema(derived=False, name="plain"))
        for table in (derived, logged):
            start = (table.data_version, schema.data_version)
            table.upsert_columns({"k": [1, 2, 3], "total": [1.0, 2.0, 3.0]})
            assert table.column_array("total").tolist() == [1.0, 2.0, 3.0]
            table.upsert({"k": 2, "total": 20.0})
            assert table.column_array("total").tolist() == [1.0, 20.0, 3.0]
            table.update_where(lambda r: r["k"] == 3, {"total": 30.0})
            table.delete_key((1,))
            assert table.column_array("total").tolist() == [20.0, 30.0]
            table.truncate()
            assert table.column_array("total").tolist() == []
            # 3 + 1 + 1 + 1 + 1 mutations, on the table and on the schema
            assert table.data_version - start[0] == 7
            assert schema.data_version - start[1] == 7
        assert {e.table for e in schema.binlog if e.etype in ROW_EVENTS} == {"plain"}

    def test_a_fold_logs_only_ddl_and_still_stales_the_serving_cache(self):
        schema = Database("sat", metrics=MetricsRegistry()).create_schema("modw")
        ingest_jobs(schema, [make_job(i) for i in range(1, 20)])
        aggregator = Aggregator(schema)
        aggregator.aggregate_jobs("month")
        api = XdmodApi({"jobs": jobs_realm()}, schema, obs=Observability.default())
        query = (
            f"/query?realm=jobs&metric=n_jobs_ended&start={T0}&end={T0 + 90 * 86400}"
            "&group_by=queue&period=month"
        )

        def lookups():
            return {
                result: api.obs.registry.value(
                    "serving_cache_lookups_total", result=result
                )
                for result in ("hit", "miss", "stale")
            }

        def served_jobs():
            status, body = api.handle(query, {})
            assert status == 200
            return sum(row["value"] for row in body["rows"])

        assert served_jobs() == 19 and served_jobs() == 19
        assert lookups() == {"hit": 1.0, "miss": 1.0, "stale": 0.0}
        ingest_jobs(schema, [make_job(i) for i in range(20, 25)])
        head, version = schema.binlog.head_lsn, schema.data_version
        assert aggregator.fold(JOBS, "month") == 5
        assert schema.binlog.head_lsn == head  # the fold wrote no event at all
        assert schema.data_version > version
        assert served_jobs() == 24
        assert lookups()["stale"] == 1.0
        # a rebuild drops and re-creates: DDL, and nothing else, is logged
        aggregator.aggregate_jobs("month")
        logged = schema.binlog.read_from(head)
        assert logged and {e.etype for e in logged} <= {
            EventType.CREATE_TABLE, EventType.DROP_TABLE
        }
        assert not [
            e for e in schema.binlog
            if e.table.startswith("agg_") and e.etype in ROW_EVENTS
        ]


class TestDumpAndReplay:
    def test_derived_survives_dump_file_load(self, tmp_path):
        schema = aggregated_satellite()
        path = write_dump_file(schema, tmp_path / "sat.json.gz")
        loaded = load_schema(Database("restored"), read_dump_file(path))
        assert loaded.checksum() == schema.checksum()
        for name in schema.table_names():
            assert loaded.table(name).schema == schema.table(name).schema
        derived = {n for n in loaded.table_names() if loaded.table(n).schema.derived}
        assert derived == {n for n in schema.table_names() if n.startswith("agg_")}
        # loading a derived table's rows logs nothing either
        assert not [
            e for e in loaded.binlog
            if e.table in derived and e.etype in ROW_EVENTS
        ]

    def test_legacy_dump_without_the_key_loads_as_not_derived(self):
        schema = aggregated_satellite()
        dump = json.loads(json.dumps(dump_schema(schema)))
        for entry in dump["tables"]:
            entry["schema"].pop("derived", None)
        loaded = load_schema(Database("legacy"), dump)
        assert not any(loaded.table(n).schema.derived for n in loaded.table_names())
        assert loaded.checksum() == schema.checksum()

    def test_create_table_replay_keeps_the_flag_and_legacy_events_lack_it(self):
        source = Database("sat").create_schema("modw")
        source.create_table(rollup_schema())
        source.create_table(rollup_schema(derived=False, name="plain"))
        source.drop_table("plain")
        source.create_table(rollup_schema(derived=False, name="plain"))
        replica = Database("replica").create_schema("modw")
        for event in source.binlog:
            replica.apply_event(event)
        assert replica.table("rollup").schema.derived is True
        assert replica.table("plain").schema.derived is False
        # a logged table's DDL is what it was before the key existed
        assert "derived" not in source.binlog.read_from(1)[0].data
        assert source.binlog.read_from(2)[0].data == {}

    def test_replay_then_reaggregate_reproduces_every_table(self):
        """Invariant 4 reproduces the logged tables; invariant 2 (the
        aggregates are a function of the facts) reproduces the rest."""
        source = aggregated_satellite()
        replica = Database("replica").create_schema("modw")
        for event in source.binlog:
            replica.apply_event(event)
        logged = [n for n in source.table_names() if not source.table(n).schema.derived]
        assert [n for n in replica.table_names() if len(replica.table(n))] == [
            n for n in logged if len(source.table(n))
        ]
        for name in logged:
            assert list(replica.table(name).raw_rows()) == list(
                source.table(name).raw_rows()
            )
        assert replica.checksum() != source.checksum()  # the aggregates are empty
        Aggregator(replica).aggregate_all()
        assert replica.table_names() == source.table_names()
        for name in source.table_names():
            if name == "agg_watermark":
                continue  # records fact data_versions, which count replayed deletes too
            assert list(replica.table(name).raw_rows()) == list(
                source.table(name).raw_rows()
            ), name
        marks = ("agg_table", "fact_table", "n_rows")
        assert replica.table("agg_watermark").columns_values(marks) == source.table(
            "agg_watermark"
        ).columns_values(marks)


class TestReplicationRefusesDerivedTables:
    def test_refusal_follows_the_schema_not_the_name(self):
        source = Database("sat").create_schema("modw")
        source.create_table(rollup_schema()).insert({"k": 1, "total": 1.0})
        # a logged table that merely looks like an aggregate
        source.create_table(rollup_schema(derived=False, name="agg_by_hand")).insert(
            {"k": 1, "total": 1.0}
        )
        target = Database("hub").create_schema("fed_sat")
        channel = ReplicationChannel(
            source, target, filter=ReplicationFilter(tables=None)
        )
        channel.catch_up()
        assert target.table_names() == ["agg_by_hand"]
        assert list(target.table("agg_by_hand").raw_rows()) == [(1, 1.0)]
        assert channel.stats.events_filtered == 1  # rollup's CREATE_TABLE
        assert not channel.filter.table_allowed("rollup")
        assert channel.filter.table_allowed("agg_by_hand")

    def test_learned_from_the_create_table_payload_going_by(self):
        source = aggregated_satellite()
        fresh = ReplicationFilter(tables=None)
        assert fresh.table_allowed("agg_job_month")  # nothing seen yet
        for event in source.binlog:
            assert fresh.admit(event) is not event.table.startswith("agg_")
        assert not fresh.table_allowed("agg_job_month")
        assert not fresh.table_allowed("agg_watermark")

    def test_channel_started_mid_log_refuses_a_drop_it_saw_no_create_for(self):
        """No ``CREATE_TABLE`` goes by a channel that starts behind it, and
        the dropped table is gone from the source: the ``DROP_TABLE``
        payload itself says the table was derived."""
        source = aggregated_satellite()
        target = Database("hub").create_schema("fed_sat")
        first = ReplicationChannel(source, target, filter=ReplicationFilter(tables=None))
        first.catch_up()
        hub_side = Aggregator(target)
        hub_side.aggregate_jobs("month")
        rows = list(target.table("agg_job_month").raw_rows())
        assert rows
        restart_at = source.binlog.head_lsn
        source.drop_table("agg_job_month")  # what a satellite rebuild does first
        assert source.binlog.read_from(restart_at)[0].data == {"derived": True}
        restarted = ReplicationChannel(
            source, target, filter=ReplicationFilter(tables=None), start_lsn=restart_at
        )
        restarted.catch_up()
        assert restarted.stats.events_filtered == 1
        assert list(target.table("agg_job_month").raw_rows()) == rows

    def test_whitelist_cannot_let_a_derived_table_through(self):
        source = aggregated_satellite()
        target = Database("hub").create_schema("fed_sat")
        everything = tuple(source.table_names())
        ReplicationChannel(
            source, target, filter=ReplicationFilter(tables=everything)
        ).catch_up()
        assert not [n for n in target.table_names() if n.startswith("agg_")]
        assert "fact_job" in target.table_names()

    def test_loose_shipments_strip_derived_tables(self, tmp_path):
        source = aggregated_satellite()
        hub_db = Database("hub")
        channel = LooseChannel(
            source, hub_db, "fed_sat", filter=ReplicationFilter(tables=None)
        )
        channel.ship_via_file(tmp_path / "shipment.json.gz")
        shipped = hub_db.schema("fed_sat")
        assert not [n for n in shipped.table_names() if n.startswith("agg_")]
        assert shipped.table("fact_job").checksum() == source.table("fact_job").checksum()

    def test_hub_counts_no_aggregate_row_events(self):
        """What the hub used to do per rebuild: log ~one event per aggregate
        row, then count each as filtered on the way to a hub of hubs."""
        source = Database("sat").create_schema("modw")
        ingest_jobs(source, [make_job(i, user=f"u{i % 4}") for i in range(1, 40)])
        obs = Observability.default()
        hub_db = Database("hub", metrics=obs.registry)
        fed = hub_db.create_schema("fed_sat")
        ReplicationChannel(source, fed, obs=obs, name="sat").catch_up()
        logged = obs.registry.value("warehouse_binlog_events_total", schema="fed_sat")
        assert Aggregator(fed).aggregate_all()["agg_job_day"] > 0
        ddl = [e for e in fed.binlog.read_from(int(logged))]
        assert {e.etype for e in ddl} <= {EventType.CREATE_TABLE, EventType.DROP_TABLE}
        assert obs.registry.value(
            "warehouse_binlog_events_total", schema="fed_sat"
        ) == logged + len(ddl)
        # hub of hubs: the upper channel filters that DDL and nothing more
        upper = ReplicationChannel(
            fed, Database("top").create_schema("fed_hub_sat"), obs=obs, name="hub"
        )
        upper.catch_up()
        assert upper.stats.events_filtered == len(ddl)
        assert obs.registry.value(
            "replication_events_filtered_total", channel="hub"
        ) == len(ddl)
