"""Ablation A10: columnar aggregation fast path vs the pure-Python oracle.

The nightly aggregation step is the repo's hottest path.  This bench
measures all three realms at scale:

- jobs: the columnar ``aggregate_jobs`` (NumPy group-index reductions
  over cached column arrays) against ``aggregate_jobs_oracle``
  (``tests/aggregation_oracles.py``) on the same facts.  The acceptance
  bar is a >= 3x speedup at 100k fact rows.
- storage / cloud: columnar vs oracle, plus the fold asserted identical
  to a full rebuild and its steady-state no-op cost.

Run from the repository root (the oracles import as ``tests.…``):
``PYTHONPATH=src:. python -m pytest benchmarks/bench_a10_columnar_agg.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.aggregation import CLOUD, STORAGE, Aggregator
from repro.timeutil import SECONDS_PER_HOUR, ts
from repro.warehouse import Database

from conftest import emit, emit_metrics
from tests.aggregation_oracles import (
    aggregate_cloud_oracle,
    aggregate_jobs_oracle,
    aggregate_storage_oracle,
)

T0 = ts(2017, 1, 1)


def _jobs_schema(n: int):
    """Direct fact inserts (no ETL) so setup stays a small share of the run."""
    from repro.etl.star import create_jobs_star

    schema = Database().create_schema("modw")
    create_jobs_star(schema)
    fact = schema.table("fact_job")
    rng = random.Random(10)
    rows = []
    for i in range(n):
        start = T0 + rng.randrange(0, 300 * 86400)
        wall = 0 if i % 97 == 0 else rng.randrange(1, 3 * 86400)
        cores = (1, 4, 16, 64)[i % 4]
        # realistic aggregation regime: many facts per group (users run
        # many jobs a month), so agg rows << fact rows
        person = 1 + i % 12
        rows.append({
            "job_id": i + 1, "resource_id": 1 + i % 3,
            "person_id": person, "pi_id": 1 + person % 4,
            "app_id": 1 + person % 6, "queue_id": 1,
            "submit_ts": start - 600, "start_ts": start,
            "end_ts": start + wall, "walltime_s": wall,
            "wait_s": rng.randrange(0, 7200), "req_walltime_s": wall + 60,
            "nodes": max(1, cores // 16), "cores": cores,
            "cpu_hours": cores * wall / SECONDS_PER_HOUR,
            "node_hours": max(1, cores // 16) * wall / SECONDS_PER_HOUR,
            "xdsu": 1.2 * cores * wall / SECONDS_PER_HOUR,
            "state": "completed", "exit_code": 0,
        })
    fact.upsert_rows(tuple(rows[0]), [tuple(row.values()) for row in rows])
    return schema


def _storage_schema(n: int):
    from repro.etl.storagefs import create_storage_realm

    schema = Database().create_schema("modw")
    create_storage_realm(schema)
    fact = schema.table("fact_storage")
    rng = random.Random(11)
    rows = []
    for i in range(n):
        fs = ("home", "scratch", "projects")[i % 3]
        soft = (None, 0.0, 100.0, 250.0)[i % 4]
        rows.append({
            "snapshot_id": i + 1, "resource_id": 1 + i % 2,
            "filesystem": fs, "mountpoint": f"/{fs}",
            "resource_type": "gpfs" if fs == "home" else "lustre",
            "person_id": 1 + i % 30, "pi": "p", "system_username": "u",
            "ts": T0 + (i % 180) * 86400,
            "file_count": rng.randrange(10, 100_000),
            "logical_usage_gb": rng.random() * 500,
            "physical_usage_gb": rng.random() * 450,
            "soft_quota_gb": soft,
            "hard_quota_gb": None if soft is None else soft * 1.5,
        })
    fact.upsert_rows(tuple(rows[0]), [tuple(row.values()) for row in rows])
    return schema


def _cloud_schema(n_vms: int):
    from repro.etl.cloudevents import create_cloud_realm

    schema = Database().create_schema("modw")
    create_cloud_realm(schema)
    vm_fact = schema.table("fact_vm")
    iv_fact = schema.table("fact_vm_interval")
    rng = random.Random(12)
    iv_id = 0
    vms, ivs = [], []
    for i in range(n_vms):
        vm_id = i + 1
        project = ("astro", "bio", "chem")[i % 3]
        mem = (0.5, 1.5, 3.0, 6.0)[i % 4]
        vcpus = 1 + i % 8
        prov = T0 + rng.randrange(0, 200 * 86400)
        cursor = prov
        n_ivs = 1 + i % 4
        for k in range(n_ivs):
            dur = 0 if (i + k) % 53 == 0 else rng.randrange(1, 10 * 86400)
            iv_id += 1
            ivs.append({
                "interval_id": iv_id, "vm_id": vm_id, "resource_id": 1,
                "person_id": 1 + i % 20, "project": project,
                "os": ("centos7", "ubuntu16")[i % 2],
                "submission_venue": ("api", "gui")[k % 2],
                "instance_type": "m1.small",
                "state": ("running", "running", "stopped", "paused")[k % 4],
                "start_ts": cursor, "end_ts": cursor + dur,
                "vcpus": vcpus, "mem_gb": mem, "disk_gb": 20.0,
            })
            cursor += dur
        vms.append({
            "vm_id": vm_id, "resource_id": 1, "person_id": 1 + i % 20,
            "project": project, "os": ("centos7", "ubuntu16")[i % 2],
            "submission_venue": "api", "provision_ts": prov,
            "terminate_ts": cursor if i % 5 else None,
            "first_instance_type": "m1.small",
            "last_instance_type": "m1.small", "last_vcpus": vcpus,
            "last_mem_gb": mem, "last_disk_gb": 20.0,
            "wall_s": 0, "core_hours": 0.0, "reserved_core_hours": 0.0,
            "reserved_mem_gb_hours": 0.0, "reserved_disk_gb_hours": 0.0,
            "n_state_changes": n_ivs, "n_resizes": 0,
            "running_s": 0, "stopped_s": 0, "paused_s": 0,
        })
    for table, rows in ((iv_fact, ivs), (vm_fact, vms)):
        table.upsert_rows(tuple(rows[0]), [tuple(row.values()) for row in rows])
    return schema


def _table_snapshot(schema, name):
    return sorted(
        tuple(sorted(r.items())) for r in schema.table(name).rows()
    )


def _assert_rows_match(got, want, label):
    assert len(got) == len(want), label
    for rg, rw in zip(got, want):
        for (kg, vg), (kw, vw) in zip(rg, rw):
            assert kg == kw
            if isinstance(vg, float) or isinstance(vw, float):
                assert vg == pytest.approx(vw, rel=1e-9, abs=1e-9), (
                    f"{label}: {kg}"
                )
            else:
                assert vg == vw, f"{label}: {kg}"


@pytest.mark.parametrize("n_jobs", [5000, 100000])
def test_a10_columnar_vs_oracle_jobs(benchmark, n_jobs):
    schema = _jobs_schema(n_jobs)
    aggregator = Aggregator(schema)

    columnar_rows = benchmark(aggregator.aggregate_jobs, "month")
    columnar_snapshot = _table_snapshot(schema, "agg_job_month")
    columnar_s = benchmark.stats.stats.mean

    t0 = time.perf_counter()
    oracle_rows = aggregate_jobs_oracle(schema, aggregator.config, "month")
    oracle_s = time.perf_counter() - t0
    _assert_rows_match(
        columnar_snapshot, _table_snapshot(schema, "agg_job_month"),
        "columnar vs oracle",
    )

    speedup = oracle_s / columnar_s
    emit(f"a10_columnar_jobs_{n_jobs}", "\n".join([
        f"A10 jobs aggregation over {n_jobs} fact rows ({columnar_rows} agg rows):",
        f"  pure-Python oracle (before): {oracle_s * 1e3:.1f} ms",
        f"  columnar fast path (after):  {columnar_s * 1e3:.1f} ms",
        f"  speedup: {speedup:.1f}x",
    ]))
    emit_metrics(f"a10_columnar_jobs_{n_jobs}", {
        "columnar_time": (columnar_s, "s"),
        "oracle_time": (oracle_s, "s"),
        "speedup": (speedup, "x"),
    })
    assert columnar_rows == oracle_rows
    if n_jobs >= 100000:
        # acceptance bar: >= 3x over the oracle at 100k fact rows
        assert speedup >= 3.0, f"columnar speedup {speedup:.2f}x < 3x"


@pytest.mark.parametrize("n_snaps", [2000, 50000])
def test_a10_columnar_vs_oracle_storage(benchmark, n_snaps):
    schema = _storage_schema(n_snaps)
    aggregator = Aggregator(schema)

    benchmark(aggregator.aggregate_storage, "month")
    columnar_snapshot = _table_snapshot(schema, "agg_storage_month")
    columnar_s = benchmark.stats.stats.mean

    t0 = time.perf_counter()
    aggregate_storage_oracle(schema, aggregator.config, "month")
    oracle_s = time.perf_counter() - t0
    _assert_rows_match(
        columnar_snapshot, _table_snapshot(schema, "agg_storage_month"),
        "columnar vs oracle",
    )
    emit(f"a10_columnar_storage_{n_snaps}", "\n".join([
        f"A10 storage aggregation over {n_snaps} snapshots:",
        f"  pure-Python oracle (before): {oracle_s * 1e3:.1f} ms",
        f"  columnar fast path (after):  {columnar_s * 1e3:.1f} ms",
        f"  speedup: {oracle_s / columnar_s:.1f}x",
    ]))
    emit_metrics(f"a10_columnar_storage_{n_snaps}", {
        "columnar_time": (columnar_s, "s"),
        "oracle_time": (oracle_s, "s"),
        "speedup": (oracle_s / columnar_s, "x"),
    })


@pytest.mark.parametrize("n_vms", [500, 10000])
def test_a10_columnar_vs_oracle_cloud(benchmark, n_vms):
    schema = _cloud_schema(n_vms)
    aggregator = Aggregator(schema)

    benchmark(aggregator.aggregate_cloud, "month")
    columnar_snapshot = _table_snapshot(schema, "agg_cloud_month")
    columnar_s = benchmark.stats.stats.mean

    t0 = time.perf_counter()
    aggregate_cloud_oracle(schema, aggregator.config, "month")
    oracle_s = time.perf_counter() - t0
    _assert_rows_match(
        columnar_snapshot, _table_snapshot(schema, "agg_cloud_month"),
        "columnar vs oracle",
    )
    emit(f"a10_columnar_cloud_{n_vms}", "\n".join([
        f"A10 cloud aggregation over {n_vms} VMs:",
        f"  pure-Python oracle (before): {oracle_s * 1e3:.1f} ms",
        f"  columnar fast path (after):  {columnar_s * 1e3:.1f} ms",
        f"  speedup: {oracle_s / columnar_s:.1f}x",
    ]))
    emit_metrics(f"a10_columnar_cloud_{n_vms}", {
        "columnar_time": (columnar_s, "s"),
        "oracle_time": (oracle_s, "s"),
        "speedup": (oracle_s / columnar_s, "x"),
    })


def test_a10_incremental_identical_to_rebuild(benchmark):
    """Incremental storage/cloud folds match a drop-and-rebuild exactly."""
    n_snaps, n_vms = 5000, 800
    inc_schema = Database().create_schema("modw")
    full_schema = Database().create_schema("modw")
    for target in (inc_schema, full_schema):
        src_storage = _storage_schema(n_snaps)
        src_cloud = _cloud_schema(n_vms)
        for source, name in (
            (src_storage, "fact_storage"), (src_cloud, "fact_vm"),
            (src_cloud, "fact_vm_interval"),
        ):
            table = source.table(name)
            target.create_table(table.schema).upsert_columns(
                {c: table.column_values(c) for c in table.schema.column_names}
            )

    inc = Aggregator(inc_schema)
    # first fold covers everything ingested so far; time the steady-state
    # second fold, which sees no new facts
    inc.fold(STORAGE, "month")
    inc.fold(CLOUD, "month")

    def noop_fold():
        return inc.fold(STORAGE, "month") + inc.fold(CLOUD, "month")

    folded = benchmark(noop_fold)
    assert folded == 0

    full = Aggregator(full_schema)
    full.aggregate_storage("month")
    full.aggregate_cloud("month")
    for name in ("agg_storage_month", "agg_cloud_month"):
        _assert_rows_match(
            _table_snapshot(inc_schema, name),
            _table_snapshot(full_schema, name),
            name,
        )
    emit("a10_incremental_parity", "\n".join([
        f"A10 incremental parity ({n_snaps} snapshots, {n_vms} VMs):",
        "  incremental storage+cloud fold == full rebuild: True",
        f"  steady-state no-op fold: {benchmark.stats.stats.mean * 1e3:.1f} ms",
    ]))
    emit_metrics("a10_incremental_parity", {
        "noop_fold_time": (benchmark.stats.stats.mean, "s"),
    })
