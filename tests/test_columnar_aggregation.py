"""The columnar fold, its oracle, and conservation fixes.

Three families of tests:

1. property tests: the columnar builder and the pure-Python oracle
   (``tests/aggregation_oracles.py``) produce the same aggregate tables
   on randomized job/storage/cloud facts — including zero-walltime jobs,
   zero-length VM intervals, and None/0.0 quotas — and any sequence of
   folds equals the rebuild exactly, late and out-of-order facts
   included, though a fold reads only the rows that can reach a touched
   group (and what it sends to ``group_reduce`` does not grow with the
   history);
2. conservation: per-period sums equal raw-fact totals for every period,
   which the pre-fix engine violated for zero-length jobs;
3. regression tests for the three satellite bugfixes, each written to
   fail on the pre-PR code, plus the columnar-cache invalidation
   contract on ``warehouse.engine.Table``.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aggregation import CLOUD, JOBS, STORAGE, AggregationConfig, Aggregator
from repro.aggregation.columnar import _touching, group_reduce
from repro.aggregation.levels import (
    DEFAULT_JOBSIZE_LEVELS,
    DEFAULT_WALLTIME_LEVELS,
    FIG7_VM_MEMORY_LEVELS,
)
from repro.etl.cloudevents import create_cloud_realm
from repro.etl.star import create_jobs_star
from repro.etl.storagefs import create_storage_realm
from repro.timeutil import PERIODS, SECONDS_PER_HOUR, period_start, ts
from repro.warehouse import Schema, Table
from tests.aggregation_oracles import (
    aggregate_cloud_oracle,
    aggregate_jobs_oracle,
    aggregate_storage_oracle,
)
from tests.conftest import property_settings

T0 = ts(2017, 1, 1)

SETTINGS = property_settings(15)


def build_schema() -> Schema:
    s = Schema("modw")
    create_jobs_star(s)
    create_storage_realm(s)
    create_cloud_realm(s)
    return s


def write_row(table, row):
    """Write one row, as a batch of one."""
    table.upsert_columns({name: [value] for name, value in row.items()})


def insert_job(s, job_id, *, start, wall, cores=4, cpu_hours=None,
               resource_id=1, person_id=1, pi_id=1, app_id=1, queue_id=1,
               wait=600, end=None):
    write_row(s.table("fact_job"), {
        "job_id": job_id, "resource_id": resource_id, "person_id": person_id,
        "pi_id": pi_id, "app_id": app_id, "queue_id": queue_id,
        "submit_ts": start - wait, "start_ts": start,
        "end_ts": start + wall if end is None else end,
        "walltime_s": wall, "wait_s": wait, "req_walltime_s": wall + 60,
        "nodes": max(1, cores // 16), "cores": cores,
        "cpu_hours": cores * wall / SECONDS_PER_HOUR if cpu_hours is None else cpu_hours,
        "node_hours": max(1, cores // 16) * wall / SECONDS_PER_HOUR,
        "xdsu": 1.2 * cores * wall / SECONDS_PER_HOUR,
        "state": "completed", "exit_code": 0,
    })


def insert_snapshot(s, snapshot_id, *, ts_, person_id, soft,
                    resource_id=1, filesystem="home", logical=10.0,
                    resource_type="gpfs"):
    write_row(s.table("fact_storage"), {
        "snapshot_id": snapshot_id, "resource_id": resource_id,
        "filesystem": filesystem, "mountpoint": f"/{filesystem}",
        "resource_type": resource_type, "person_id": person_id,
        "pi": "p", "system_username": f"u{person_id}", "ts": ts_,
        "file_count": 100, "logical_usage_gb": logical,
        "physical_usage_gb": logical * 0.9,
        "soft_quota_gb": soft,
        "hard_quota_gb": None if soft is None else soft * 1.5,
    })


def insert_interval(s, interval_id, *, vm_id, start, dur, state="running",
                    resource_id=1, vcpus=2, mem_gb=1.5):
    write_row(s.table("fact_vm_interval"), {
        "interval_id": interval_id, "vm_id": vm_id,
        "resource_id": resource_id, "person_id": 1, "project": "astro",
        "os": "centos7", "submission_venue": "api",
        "instance_type": "m1.small", "state": state,
        "start_ts": start, "end_ts": start + dur,
        "vcpus": vcpus, "mem_gb": mem_gb, "disk_gb": 20.0,
    })


def insert_vm(s, vm_id, *, provision, terminate, resource_id=1,
              vcpus=2, mem_gb=1.5, n_state_changes=1):
    write_row(s.table("fact_vm"), {
        "vm_id": vm_id, "resource_id": resource_id, "person_id": 1,
        "project": "astro", "os": "centos7", "submission_venue": "api",
        "provision_ts": provision, "terminate_ts": terminate,
        "first_instance_type": "m1.small", "last_instance_type": "m1.small",
        "last_vcpus": vcpus, "last_mem_gb": mem_gb, "last_disk_gb": 20.0,
        "wall_s": 0, "core_hours": 0.0, "reserved_core_hours": 0.0,
        "reserved_mem_gb_hours": 0.0, "reserved_disk_gb_hours": 0.0,
        "n_state_changes": n_state_changes, "n_resizes": 0,
        "running_s": 0, "stopped_s": 0, "paused_s": 0,
    })


def table_rows(s, name):
    if not s.has_table(name):
        return []
    rows = [tuple(sorted(r.items())) for r in s.table(name).rows()]
    # Sort on the non-float fields (period, dimension ids) only: float
    # aggregates may differ between implementations by ~1 ulp (summation
    # order), and letting them participate in the sort mispairs rows that
    # the per-field approx comparison below would accept.
    return sorted(
        rows,
        key=lambda r: [(k, v) for k, v in r if not isinstance(v, float)],
    )


def assert_tables_equal(got, want, label):
    assert len(got) == len(want), (
        f"{label}: {len(got)} rows != {len(want)} rows"
    )
    for rg, rw in zip(got, want):
        for (kg, vg), (kw, vw) in zip(rg, rw):
            assert kg == kw
            if isinstance(vg, float) or isinstance(vw, float):
                assert vg == pytest.approx(vw, rel=1e-9, abs=1e-9), (
                    f"{label}: {kg}: {vg} != {vw}"
                )
            else:
                assert vg == vw, f"{label}: {kg}: {vg!r} != {vw!r}"


# -- strategies ---------------------------------------------------------------

job_facts = st.lists(
    st.tuples(
        st.integers(0, 120 * 86400),           # start offset
        st.one_of(st.just(0), st.integers(1, 60 * 86400)),  # walltime
        st.integers(1, 300),                   # cores
        st.floats(0.0, 50.0),                  # cpu_hours for zero-wall jobs
        st.integers(1, 3),                     # resource
        st.integers(1, 4),                     # person
    ),
    max_size=30,
)

storage_facts = st.lists(
    st.tuples(
        st.integers(0, 90) ,                   # day offset
        st.integers(1, 5),                     # person
        st.sampled_from([None, 0.0, 50.0, 250.0]),  # soft quota
        st.sampled_from(["home", "scratch"]),
        st.floats(0.0, 120.0),                 # logical usage
    ),
    max_size=40,
)

cloud_facts = st.lists(
    st.tuples(
        st.integers(0, 60 * 86400),            # provision offset
        st.lists(                              # intervals: (dur, state)
            st.tuples(
                st.one_of(st.just(0), st.integers(1, 12 * 86400)),
                st.sampled_from(["running", "running", "stopped", "paused"]),
            ),
            min_size=1, max_size=4,
        ),
        st.booleans(),                         # terminated?
        st.sampled_from([0.5, 1.5, 3.0, 6.0, 12.0]),  # mem_gb
    ),
    max_size=10,
)


def populate(s, jobs, snaps, vms, *, job_id0=0, snap_id0=0, vm_id0=0, iv_id0=0):
    for i, (off, wall, cores, zero_cpu, rid, pid) in enumerate(jobs):
        insert_job(
            s, job_id0 + i + 1, start=T0 + off, wall=wall, cores=cores,
            cpu_hours=zero_cpu if wall == 0 else None,
            resource_id=rid, person_id=pid,
        )
    for i, (day, pid, soft, fs, logical) in enumerate(snaps):
        insert_snapshot(
            s, snap_id0 + i + 1, ts_=T0 + day * 86400, person_id=pid,
            soft=soft, filesystem=fs, logical=logical,
        )
    iv_id = iv_id0
    for i, (off, intervals, terminated, mem) in enumerate(vms):
        vm_id = vm_id0 + i + 1
        cursor = T0 + off
        for dur, state in intervals:
            iv_id += 1
            insert_interval(
                s, iv_id, vm_id=vm_id, start=cursor, dur=dur, state=state,
                mem_gb=mem,
            )
            cursor += dur
        insert_vm(
            s, vm_id, provision=T0 + off,
            terminate=cursor if terminated else None, mem_gb=mem,
            n_state_changes=len(intervals),
        )
    return iv_id


AGG_TABLES = ("agg_job_{p}", "agg_storage_{p}", "agg_cloud_{p}")


class TestColumnarOracleParity:
    @SETTINGS
    @given(jobs=job_facts, snaps=storage_facts, vms=cloud_facts,
           period=st.sampled_from(PERIODS))
    def test_columnar_matches_oracle(self, jobs, snaps, vms, period):
        s_fast, s_ref = build_schema(), build_schema()
        populate(s_fast, jobs, snaps, vms)
        populate(s_ref, jobs, snaps, vms)
        fast = Aggregator(s_fast)
        fast.aggregate_jobs(period)
        fast.aggregate_storage(period)
        fast.aggregate_cloud(period)
        config = AggregationConfig()
        aggregate_jobs_oracle(s_ref, config, period)
        aggregate_storage_oracle(s_ref, config, period)
        aggregate_cloud_oracle(s_ref, config, period)
        for pattern in AGG_TABLES:
            name = pattern.format(p=period)
            assert_tables_equal(
                table_rows(s_fast, name), table_rows(s_ref, name), name
            )

    @SETTINGS
    @given(jobs=job_facts, snaps=storage_facts, vms=cloud_facts,
           period=st.sampled_from(PERIODS),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_incremental_matches_full_rebuild(self, jobs, snaps, vms, period, cuts):
        # fold after each of a random sequence of batches; the rebuild on
        # the same schema must then change nothing, bit for bit
        s = build_schema()
        agg = Aggregator(s)
        done_j = done_s = done_v = iv_n = 0
        for cut in sorted(cuts) + [1.0]:
            to_j, to_s, to_v = (
                int(len(jobs) * cut), int(len(snaps) * cut), int(len(vms) * cut)
            )
            iv_n = populate(
                s, jobs[done_j:to_j], snaps[done_s:to_s], vms[done_v:to_v],
                job_id0=done_j, snap_id0=done_s, vm_id0=done_v, iv_id0=iv_n,
            )
            counts = agg.aggregate_all_incremental([period])
            assert counts == {
                f"agg_job_{period}": to_j - done_j,
                f"agg_storage_{period}": to_s - done_s,
                f"agg_cloud_{period}": (
                    to_v - done_v
                    + sum(len(vm[1]) for vm in vms[done_v:to_v])
                ),
            }
            done_j, done_s, done_v = to_j, to_s, to_v
        # folding again with no new facts must process nothing
        counts = agg.aggregate_all_incremental([period])
        assert all(v == 0 for v in counts.values())
        # one bookkeeping table, whatever the sequence of folds
        assert [
            name for name in s.table_names()
            if name.startswith("agg_") and not name.endswith(f"_{period}")
        ] == ["agg_watermark"]

        folded = {
            pattern.format(p=period): table_rows(s, pattern.format(p=period))
            for pattern in AGG_TABLES
        }
        agg.aggregate_all([period])
        for name, rows in folded.items():
            assert rows == table_rows(s, name), name

    def test_full_rebuild_resyncs_incremental_bookkeeping(self):
        s = build_schema()
        agg = Aggregator(s)
        insert_job(s, 1, start=T0, wall=3600)
        agg.aggregate_all_incremental(["month"])
        insert_job(s, 2, start=T0 + 86400, wall=7200)
        agg.aggregate_all(["month"])  # full rebuild covers job 2
        assert agg.fold(JOBS, "month") == 0
        assert agg.fold(STORAGE, "month") == 0
        assert agg.fold(CLOUD, "month") == 0


_upsert_columns = Table.upsert_columns  # unpatched


def upsert_row_by_row(table, columns):
    """What the fold did before it wrote columns: one write per aggregate
    row, each a batch of one."""
    plain = {
        name: column.tolist() if isinstance(column, np.ndarray) else column
        for name, column in columns.items()
    }
    rows = [dict(zip(plain, values)) for values in zip(*plain.values())]
    for row in rows:
        _upsert_columns(table, {name: [value] for name, value in row.items()})
    return len(rows)


def written_state(s):
    """Everything a fold writes, exactly: ``agg_*`` rows in stored order
    (floats as text, so bit for bit), versions, and the schema's log."""
    return {
        "tables": {
            name: (repr(list(s.table(name).raw_rows())), s.table(name).data_version)
            for name in s.table_names() if name.startswith("agg_")
        },
        "schema_version": s.data_version,
        "binlog": [(e.lsn, e.etype, e.table, repr(e.data)) for e in s.binlog],
    }


class TestBatchWriteEqualsRowWrites:
    """The fold's one batch write leaves the tables, the watermark and the
    binlog exactly as upserting the same rows one by one."""

    @SETTINGS
    @given(jobs=job_facts, snaps=storage_facts, vms=cloud_facts,
           period=st.sampled_from(PERIODS), cut=st.floats(0.0, 1.0))
    def test_rebuild_then_fold(self, jobs, snaps, vms, period, cut):
        cut_j, cut_s, cut_v = (int(len(f) * cut) for f in (jobs, snaps, vms))
        batched, looped = build_schema(), build_schema()
        states = []
        row_by_row = mock.patch.object(Table, "upsert_columns", upsert_row_by_row)
        for s, write_path in ((batched, contextlib.nullcontext()), (looped, row_by_row)):
            agg = Aggregator(s)
            with write_path:
                iv_n = populate(s, jobs[:cut_j], snaps[:cut_s], vms[:cut_v])
                agg.aggregate_all([period])
                rebuilt = written_state(s)
                populate(
                    s, jobs[cut_j:], snaps[cut_s:], vms[cut_v:],
                    job_id0=cut_j, snap_id0=cut_s, vm_id0=cut_v, iv_id0=iv_n,
                )
                agg.aggregate_all_incremental([period])
            states.append((rebuilt, written_state(s)))
        assert states[0] == states[1]


def agg_snapshot(s):
    """Every ``agg_*`` table (the watermark included), exactly."""
    return {
        name: table_rows(s, name)
        for name in s.table_names() if name.startswith("agg_")
    }


def seeded(s):
    """A few facts in every realm; returns the last interval id."""
    insert_job(s, 1, start=T0, wall=3600)
    insert_job(s, 2, start=T0 + 20 * 86400, wall=40 * 86400, person_id=2)
    insert_snapshot(s, 1, ts_=T0, person_id=1, soft=50.0)
    insert_snapshot(s, 2, ts_=T0 + 86400, person_id=2, soft=None)
    return populate(s, [], [], [
        (0, [(3600, "running"), (7200, "stopped")], True, 1.5),
        (40 * 86400, [(5 * 86400, "running")], False, 6.0),
    ])


class TestFoldEqualsRebuild:
    """One fold per realm: the incremental verb can never disagree with
    the rebuild, whatever happened to the facts in between."""

    def assert_fold_equals_rebuild(self, s):
        agg = Aggregator(s)
        agg.aggregate_all_incremental()
        folded = agg_snapshot(s)
        agg.aggregate_all()
        assert agg_snapshot(s) == folded

    def test_fold_after_rebuild_on_never_folded_schema_adds_nothing(self):
        # benchmarks/e2e/README.md finding 4: the rebuild used to leave no
        # bookkeeping behind, so the first fold counted every fact again
        s = build_schema()
        seeded(s)
        agg = Aggregator(s)
        agg.aggregate_all()
        rebuilt = agg_snapshot(s)
        version = s.data_version
        counts = agg.aggregate_all_incremental()
        assert set(counts.values()) == {0}
        assert agg_snapshot(s) == rebuilt
        # a fold with nothing to fold writes nothing: served caches stay warm
        assert s.data_version == version

    def test_hub_fold_after_rebuild_adds_nothing(self):
        from tests.conftest import build_two_site_federation

        hub, _, _, _ = build_two_site_federation()
        hub.aggregate_federation()
        rebuilt = {n: agg_snapshot(s) for n, s in hub.federated_schemas().items()}
        report = hub.aggregate_federation(incremental=True)
        assert sorted(report) == sorted(rebuilt)
        for counts in report.values():
            assert set(counts.values()) == {0}
        for name, schema in hub.federated_schemas().items():
            assert agg_snapshot(schema) == rebuilt[name]

    @pytest.mark.parametrize("mutate", [
        lambda s: s.table("fact_job").update_where(
            lambda r: r["job_id"] == 1, {"cpu_hours": 99.0}),
        lambda s: s.table("fact_job").delete_where(lambda r: r["job_id"] == 2),
        lambda s: s.table("fact_storage").update_where(
            lambda r: r["snapshot_id"] == 1, {"logical_usage_gb": 77.0}),
        lambda s: s.table("fact_storage").truncate(),
        lambda s: s.table("fact_vm_interval").delete_where(
            lambda r: r["interval_id"] == 1),
        lambda s: s.table("fact_vm").update_where(
            lambda r: r["vm_id"] == 1, {"last_vcpus": 16}),
        lambda s: s.table("fact_vm").truncate(),
        # a delete hidden behind as many inserts: the row count alone
        # would call this "one row appended"
        lambda s: (
            s.table("fact_job").delete_where(lambda r: r["job_id"] == 1),
            insert_job(s, 8, start=T0 + 5 * 86400, wall=60),
            insert_job(s, 9, start=T0 + 6 * 86400, wall=60),
        ),
        # same name, same row count, different table
        lambda s: (
            s.drop_table("fact_job"),
            create_jobs_star(s),
            insert_job(s, 5, start=T0 + 3 * 86400, wall=600),
            insert_job(s, 6, start=T0 + 4 * 86400, wall=600),
        ),
    ], ids=[
        "update-job", "delete-job", "update-snapshot", "truncate-storage",
        "delete-interval", "update-vm", "truncate-vm", "delete-then-insert",
        "drop-and-recreate",
    ])
    def test_fold_after_non_append_mutation_equals_rebuild(self, mutate):
        s = build_schema()
        iv_n = seeded(s)
        Aggregator(s).aggregate_all_incremental()
        mutate(s)
        # appends on top of the mutation must not mask it
        insert_job(s, 10, start=T0 + 86400, wall=1800)
        insert_snapshot(s, 10, ts_=T0 + 2 * 86400, person_id=3, soft=250.0)
        insert_interval(s, iv_n + 1, vm_id=9, start=T0 + 86400, dur=3600)
        self.assert_fold_equals_rebuild(s)

    def test_fold_after_cumulative_cloud_reingest_equals_rebuild(self):
        # the documented feed shape: ingest_cloud_events deletes and
        # re-inserts a VM it has seen, which id-keyed seen-tables missed
        from repro.etl import ingest_cloud_events
        from repro.simulators import CloudConfig, CloudSimulator

        events = CloudSimulator(CloudConfig(seed=1, vms_per_day=2)).generate(
            T0, T0 + 20 * 86400
        )
        s = Schema("modw")
        agg = Aggregator(s)
        ingest_cloud_events(s, [e for e in events if e["ts"] < T0 + 10 * 86400])
        agg.aggregate_all_incremental()
        ingest_cloud_events(s, events)  # cumulative: re-dumps the first half
        self.assert_fold_equals_rebuild(s)
        raw = sum(vm["core_hours"] for vm in s.table("fact_vm").rows())
        served = sum(r["core_hours"] for r in s.table("agg_cloud_month").rows())
        assert served == pytest.approx(raw)

    def test_storage_resource_type_is_each_groups_newest_snapshot(self):
        # a filesystem retyped between two folds: the fold left January
        # typed "persistent", the rebuild typed every period by the newest
        # snapshot of all, March's "scratch"
        s = build_schema()
        agg = Aggregator(s)
        insert_snapshot(s, 1, ts_=ts(2017, 1, 10), person_id=1, soft=50.0,
                        resource_type="persistent")
        agg.fold(STORAGE, "month")
        insert_snapshot(s, 2, ts_=ts(2017, 3, 10), person_id=1, soft=50.0,
                        resource_type="scratch")
        agg.fold(STORAGE, "month")
        folded = agg_snapshot(s)
        agg.rebuild(STORAGE, "month")
        assert agg_snapshot(s) == folded
        assert [
            (r["period_label"], r["resource_type"])
            for r in s.table("agg_storage_month").rows()
        ] == [("2017-01", "persistent"), ("2017-03", "scratch")]

    def test_only_the_watermark_beside_the_served_tables(self):
        s = build_schema()
        iv_n = seeded(s)
        agg = Aggregator(s)
        agg.aggregate_all_incremental()
        agg.aggregate_all()
        insert_job(s, 10, start=T0 + 86400, wall=1800)
        insert_interval(s, iv_n + 1, vm_id=9, start=T0 + 86400, dur=3600)
        agg.aggregate_all_incremental()
        s.table("fact_storage").truncate()
        agg.aggregate_all_incremental()
        served = {
            f"agg_{realm}_{period}"
            for realm in ("job", "storage", "cloud") for period in PERIODS
        }
        assert {
            n for n in s.table_names() if n.startswith("agg_")
        } == served | {"agg_watermark"}


late_jobs = st.lists(
    st.tuples(
        st.integers(0, 10**6),                     # whose keys it shares
        st.integers(-90 * 86400, 30 * 86400),      # start, from that job's
        st.one_of(                                 # walltime: up to years
            st.just(0), st.integers(1, 86400), st.integers(60 * 86400, 800 * 86400),
        ),
    ),
    min_size=1, max_size=8,
)
late_snapshots = st.lists(
    st.tuples(
        st.integers(0, 10**6),                     # whose group it joins
        st.integers(-40, 5),                       # days from that snapshot
        st.sampled_from(["persistent", "scratch"]),
    ),
    max_size=6,
)
late_vms = st.lists(                               # VM rows, no new interval
    st.tuples(st.integers(-30 * 86400, 90 * 86400), st.booleans(),
              st.sampled_from([0.5, 1.5, 6.0])),
    max_size=3,
)


class TestPrunedFoldEqualsRebuild:
    """A fold reads only the rows that can reach a touched group; facts that
    arrive late, out of order and under keys the history already has,
    that span many periods, or that touch a group without an interval
    still fold to exactly the rebuild."""

    @SETTINGS
    @given(jobs=job_facts, snaps=storage_facts, vms=cloud_facts, late=late_jobs,
           more_snaps=late_snapshots, more_vms=late_vms, period=st.sampled_from(PERIODS))
    def test_late_facts_fold_to_the_rebuild(
        self, jobs, snaps, vms, late, more_snaps, more_vms, period
    ):
        s = build_schema()
        agg = Aggregator(s)
        populate(s, jobs, snaps, vms)
        agg.aggregate_all_incremental([period])
        for i, (pick, shift, wall) in enumerate(late):
            off, _, cores, _, rid, pid = jobs[pick % len(jobs)] if jobs else (0, 0, 4, 0, 1, 1)
            insert_job(s, len(jobs) + i + 1, start=T0 + off + shift, wall=wall,
                       cores=cores, resource_id=rid, person_id=pid)
        for i, (pick, days, kind) in enumerate(more_snaps):
            day, pid, soft, fs, logical = snaps[pick % len(snaps)] if snaps else (
                0, 1, None, "home", 1.0)
            insert_snapshot(s, len(snaps) + i + 1, ts_=T0 + (day + days) * 86400,
                            person_id=pid, soft=soft, filesystem=fs, logical=logical,
                            resource_type=kind)
        for i, (off, terminated, mem) in enumerate(more_vms):
            insert_vm(s, len(vms) + i + 1, provision=T0 + off,
                      terminate=T0 + off + 86400 if terminated else None, mem_gb=mem)
        counts = agg.aggregate_all_incremental([period])
        assert counts == {
            f"agg_job_{period}": len(late),
            f"agg_storage_{period}": len(more_snaps),
            f"agg_cloud_{period}": len(more_vms),
        }
        folded = agg_snapshot(s)
        agg.aggregate_all([period])
        assert agg_snapshot(s) == folded

    @pytest.mark.parametrize("period", ["day", "month"])
    def test_job_ending_before_it_started_folds_to_the_rebuild(self, period):
        # no parser rejects End < Start (walltime_s clamps to 0): the job's
        # end period lies before its start period, beside its history
        s = build_schema()
        agg = Aggregator(s)
        insert_job(s, 1, start=ts(2017, 1, 10), wall=60)
        insert_job(s, 2, start=ts(2017, 3, 10), wall=60)
        agg.fold(JOBS, period)
        insert_job(s, 3, start=ts(2017, 3, 10), wall=0, end=ts(2017, 1, 10))
        agg.fold(JOBS, period)
        folded = agg_snapshot(s)
        agg.rebuild(JOBS, period)
        assert agg_snapshot(s) == folded

    @pytest.mark.parametrize("period", ["day", "month"])
    def test_vm_terminated_before_it_was_provisioned_folds_to_the_rebuild(self, period):
        s = build_schema()
        agg = Aggregator(s)
        insert_interval(s, 1, vm_id=1, start=ts(2017, 1, 10), dur=3600)
        insert_vm(s, 1, provision=ts(2017, 1, 10), terminate=ts(2017, 1, 10) + 3600)
        agg.fold(CLOUD, period)
        insert_vm(s, 2, provision=ts(2017, 3, 10), terminate=ts(2017, 1, 10))
        agg.fold(CLOUD, period)
        folded = agg_snapshot(s)
        agg.rebuild(CLOUD, period)
        assert agg_snapshot(s) == folded


class TestFoldCost:
    """A fold's work follows its delta, not the history: one job folded
    into H or 2H jobs of history sends the same contribution rows to
    ``group_reduce``, for every period."""

    @staticmethod
    def contribution_rows(history, period):
        s = build_schema()
        for i in range(history):  # other people's jobs all over the year
            insert_job(s, i + 1, start=T0 + (i * 7919 * 60) % (360 * 86400),
                       wall=3600 * (1 + i % 30), person_id=10 + i % 40)
        for j in range(3):  # the new job's neighbours: its keys, its month
            insert_job(s, 10**6 + j, start=ts(2017, 5, 3 + j), wall=7200)
        agg = Aggregator(s)
        agg.fold(JOBS, period)
        insert_job(s, 2 * 10**6, start=ts(2017, 5, 9), wall=5400)
        rows = []

        def counted(keys, measures):
            rows.append(len(keys[0]))
            return group_reduce(keys, measures)

        with mock.patch("repro.aggregation.columnar.group_reduce", counted):
            assert agg.fold(JOBS, period) == 1
        folded = agg_snapshot(s)
        agg.rebuild(JOBS, period)
        assert agg_snapshot(s) == folded
        return rows

    @pytest.mark.parametrize("period", PERIODS)
    def test_contribution_rows_do_not_grow_with_history(self, period):
        assert self.contribution_rows(200, period) == self.contribution_rows(400, period)


class TestTouching:
    """The pruning helper on its own: the hull is in whole periods, a key
    value must occur among the fresh rows', NULLs and fresh rows stay."""

    def test_keeps_fresh_rows_null_keys_and_rows_sharing_keys_in_the_hull(self):
        jan, feb, mar = ts(2017, 1, 5), ts(2017, 2, 5), ts(2017, 3, 5)
        columns = {
            "i": np.arange(7),
            "at": np.array([jan, feb, feb, feb, feb, mar, feb]),
            "rid": np.array([1.0, 1.0, 2.0, np.nan, 1.0, 1.0, 1.0]),
            "fs": np.array(["None", "home", "None", "None", None, "None", "None"],
                           dtype=object),
            "proj": np.array([None, None, None, None, "None", None, None], dtype=object),
        }
        fresh = np.array([False, False, False, False, False, False, True])
        ((kept, kept_fresh),) = _touching(
            "month", ("rid", "fs", "proj"), (columns, fresh, "at", "at"),
        )
        # rows 0 and 5 miss February, 1 and 2 have a key value no fresh row
        # has; a NaN or None key value is kept, and "None" is what the
        # fresh row's None is coded as
        assert kept["i"].tolist() == [3, 4, 6]
        assert kept_fresh.tolist() == [False, False, True]

    def test_every_row_fresh_is_returned_as_is(self):
        columns = {"at": np.array([T0, T0 + 86400]), "rid": np.array([1, 2])}
        ((kept, _),) = _touching(
            "year", ("rid",), (columns, np.ones(2, dtype=bool), "at", "at"),
        )
        assert kept is columns


class TestConservation:
    @SETTINGS
    @given(jobs=job_facts)
    def test_job_usage_conserved_every_period(self, jobs):
        """Per-period sums equal raw totals — the docstring's invariant."""
        s = build_schema()
        populate(s, jobs, [], [])
        raw = list(s.table("fact_job").rows())
        agg = Aggregator(s)
        for period in PERIODS:
            agg.aggregate_jobs(period)
            rows = list(s.table(f"agg_job_{period}").rows())
            for measure, raw_total in (
                ("cpu_hours", sum(j["cpu_hours"] for j in raw)),
                ("node_hours", sum(j["node_hours"] for j in raw)),
                ("xdsu", sum(j["xdsu"] for j in raw)),
                ("wall_hours",
                 sum(j["walltime_s"] for j in raw) / SECONDS_PER_HOUR),
                ("wait_hours",
                 sum(j["wait_s"] for j in raw) / SECONDS_PER_HOUR),
                ("n_jobs_ended", len(raw)),
                ("n_jobs_started", len(raw)),
            ):
                agg_total = sum(r[measure] for r in rows)
                assert agg_total == pytest.approx(raw_total, rel=1e-9, abs=1e-9), (
                    f"{period}/{measure}: {agg_total} != {raw_total}"
                )


class TestZeroWalltimeRegression:
    """Bugfix 1: zero-length jobs must not lose their usage."""

    def params(self):
        return dict(start=ts(2017, 2, 14, 12), wall=0, cpu_hours=7.5)

    def test_full_rebuild_keeps_usage(self):
        s = build_schema()
        insert_job(s, 1, **self.params())
        Aggregator(s).aggregate_jobs("month")
        rows = list(s.table("agg_job_month").rows())
        assert sum(r["cpu_hours"] for r in rows) == pytest.approx(7.5)
        # attributed to the period the job ended in
        (row,) = [r for r in rows if r["cpu_hours"] > 0]
        assert row["period_start"] == period_start("month", ts(2017, 2, 14, 12))

    def test_oracle_keeps_usage(self):
        s = build_schema()
        insert_job(s, 1, **self.params())
        aggregate_jobs_oracle(s, AggregationConfig(), "month")
        rows = list(s.table("agg_job_month").rows())
        assert sum(r["cpu_hours"] for r in rows) == pytest.approx(7.5)

    def test_incremental_keeps_usage(self):
        s = build_schema()
        insert_job(s, 1, **self.params())
        Aggregator(s).fold(JOBS, "month")
        rows = list(s.table("agg_job_month").rows())
        assert sum(r["cpu_hours"] for r in rows) == pytest.approx(7.5)


class TestZeroLengthIntervalRegression:
    """Bugfix 2: a VM starting and stopping in the same second is active."""

    def test_instant_vm_counts_as_active(self):
        s = build_schema()
        start = ts(2017, 3, 5, 9)
        insert_interval(s, 1, vm_id=42, start=start, dur=0, state="running")
        Aggregator(s).aggregate_cloud("month")
        rows = list(s.table("agg_cloud_month").rows())
        assert len(rows) == 1
        assert rows[0]["period_start"] == period_start("month", start)
        assert rows[0]["n_vms_active"] == 1
        assert rows[0]["wall_hours"] == 0.0

    def test_instant_vm_not_double_counted(self):
        # the same VM also has a spanning interval in the same period:
        # distinct count stays 1
        s = build_schema()
        start = ts(2017, 3, 5, 9)
        insert_interval(s, 1, vm_id=42, start=start, dur=0, state="running")
        insert_interval(s, 2, vm_id=42, start=start, dur=3600, state="running")
        Aggregator(s).aggregate_cloud("month")
        (row,) = s.table("agg_cloud_month").rows()
        assert row["n_vms_active"] == 1

    def test_oracle_and_incremental_agree(self):
        start = ts(2017, 3, 5, 9)
        results = []
        for mode in ("fast", "oracle", "incremental"):
            s = build_schema()
            insert_interval(s, 1, vm_id=7, start=start, dur=0, state="running")
            if mode == "oracle":
                aggregate_cloud_oracle(s, AggregationConfig(), "month")
            elif mode == "fast":
                Aggregator(s).aggregate_cloud("month")
            else:
                Aggregator(s).fold(CLOUD, "month")
            results.append(table_rows(s, "agg_cloud_month"))
        assert results[0] == results[1] == results[2]


class TestQuotaTruthinessRegression:
    """Bugfix 3: a 0.0 quota is a sample; a NULL quota is not."""

    def test_zero_quota_counts_as_sample(self):
        s = build_schema()
        insert_snapshot(s, 1, ts_=T0, person_id=1, soft=0.0)
        Aggregator(s).aggregate_storage("month")
        (row,) = s.table("agg_storage_month").rows()
        assert row["n_quota_samples"] == 1
        assert row["sum_quota_utilization"] == 0.0

    def test_null_quota_not_a_sample(self):
        s = build_schema()
        insert_snapshot(s, 1, ts_=T0, person_id=1, soft=None)
        Aggregator(s).aggregate_storage("month")
        (row,) = s.table("agg_storage_month").rows()
        assert row["n_quota_samples"] == 0

    def test_mixed_quotas(self):
        s = build_schema()
        insert_snapshot(s, 1, ts_=T0, person_id=1, soft=None)
        insert_snapshot(s, 2, ts_=T0, person_id=2, soft=0.0)
        insert_snapshot(s, 3, ts_=T0, person_id=3, soft=100.0, logical=50.0)
        for build in (
            lambda: Aggregator(s).aggregate_storage("month"),
            lambda: aggregate_storage_oracle(s, AggregationConfig(), "month"),
        ):
            build()
            (row,) = s.table("agg_storage_month").rows()
            assert row["n_quota_samples"] == 2
            assert row["sum_quota_utilization"] == pytest.approx(0.5)


class TestColumnarCache:
    """Table.column_array contract: cached until any mutation."""

    def test_cache_reused_until_mutation(self):
        s = build_schema()
        insert_job(s, 1, start=T0, wall=3600)
        table = s.table("fact_job")
        v0 = table.data_version
        a = table.column_array("cpu_hours")
        assert table.column_array("cpu_hours") is a  # cached
        insert_job(s, 2, start=T0, wall=7200)
        assert table.data_version > v0
        b = table.column_array("cpu_hours")
        assert b is not a
        assert len(b) == 2

    def test_delete_truncate_and_upsert_invalidate(self):
        s = build_schema()
        insert_job(s, 1, start=T0, wall=3600)
        table = s.table("fact_job")
        table.column_array("job_id")
        v = table.data_version
        table.delete_where(lambda r: r["job_id"] == 1)
        assert table.data_version > v
        assert len(table.column_array("job_id")) == 0
        insert_job(s, 3, start=T0, wall=60)
        v = table.data_version
        table.truncate()
        assert table.data_version > v
        assert len(table.column_array("job_id")) == 0

    def test_null_and_string_columns(self):
        s = build_schema()
        insert_vm(s, 1, provision=T0, terminate=None)
        insert_vm(s, 2, provision=T0, terminate=T0 + 3600)
        table = s.table("fact_vm")
        term = table.column_array("terminate_ts")
        assert term.dtype == np.float64  # NULLs force float64 + NaN
        assert math.isnan(term[0]) and term[1] == T0 + 3600
        proj = table.column_array("project")
        assert proj.dtype == object
        assert list(proj) == ["astro", "astro"]


class TestCodesOfAgreement:
    @SETTINGS
    @given(values=st.lists(
        st.one_of(
            st.floats(-10.0, 10_000.0),
            st.just(float("nan")),
        ),
        max_size=50,
    ))
    def test_codes_match_level_of(self, values):
        for levels in (
            DEFAULT_WALLTIME_LEVELS, DEFAULT_JOBSIZE_LEVELS,
            FIG7_VM_MEMORY_LEVELS,
        ):
            codes = levels.codes_of(values)
            labels = [levels.coded_labels[c] for c in codes]
            assert labels == [levels.level_of(v) for v in values]


class TestGroupReduce:
    def test_matches_python_grouping(self):
        keys = [np.array([1, 2, 1, 2, 1]), np.array([0, 0, 1, 0, 0])]
        vals = {"x": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
        uniq, sums = group_reduce(keys, vals)
        got = {
            (int(uniq[0][i]), int(uniq[1][i])): sums["x"][i]
            for i in range(len(uniq[0]))
        }
        assert got == {(1, 0): 6.0, (1, 1): 3.0, (2, 0): 6.0}

    def test_empty(self):
        uniq, sums = group_reduce(
            [np.array([], dtype=np.int64)], {"x": np.array([])}
        )
        assert len(uniq[0]) == 0 and len(sums["x"]) == 0


class TestFederationIncremental:
    def test_hub_incremental_equals_full(self):
        from tests.conftest import build_two_site_federation

        hub, satellites, _, _ = build_two_site_federation()
        hub.aggregate_federation(["month"], incremental=True)
        inc_tables = {
            name: table_rows(schema, "agg_job_month")
            for name, schema in hub.federated_schemas().items()
        }
        hub.aggregate_federation(["month"])  # full rebuild
        for name, schema in hub.federated_schemas().items():
            assert_tables_equal(
                inc_tables[name], table_rows(schema, "agg_job_month"),
                f"{name}/agg_job_month",
            )
        # a second incremental pass after the rebuild folds nothing
        report = hub.aggregate_federation(["month"], incremental=True)
        for counts in report.values():
            assert all(v == 0 for v in counts.values())
