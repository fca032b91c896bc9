"""Ablation A3: re-aggregation cost when hub levels change.

The Table I scenario: a new satellite joins, the administrator redefines
the hub's wall-time levels, and "re-aggregate[s] all raw federation data."
This bench measures that full rebuild as a function of raw row count, and
confirms totals are invariant across the level change.

Run from the repository root (the oracle imports as ``tests.…``):
``PYTHONPATH=src:. python -m pytest benchmarks/bench_a3_reaggregation.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.aggregation import (
    AggregationConfig,
    Aggregator,
    DEFAULT_WALLTIME_LEVELS,
    TABLE1_FEDERATION_HUB,
)
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Database

from conftest import emit, emit_metrics
from tests.aggregation_oracles import aggregate_jobs_oracle


def _schema_with_jobs(n: int):
    schema = Database().create_schema("modw")
    jobs = [
        ParsedJob(
            job_id=i, user=f"u{i % 41}", pi=f"pi{i % 9}", queue="normal",
            application=f"app{i % 13}",
            submit_ts=ts(2017, 1, 1) + i * 120,
            start_ts=ts(2017, 1, 1) + i * 120 + 600,
            end_ts=ts(2017, 1, 1) + i * 120 + 600 + (i % 50 + 1) * 1800,
            nodes=1, cores=2 ** (i % 6), req_walltime_s=90000,
            state="COMPLETED", exit_code=0, resource="r1",
        )
        for i in range(n)
    ]
    ingest_jobs(schema, jobs)
    return schema


@pytest.mark.parametrize("n_jobs", [1000, 5000, 20000])
def test_a3_reaggregation_scaling(benchmark, n_jobs):
    schema = _schema_with_jobs(n_jobs)
    aggregator = Aggregator(
        schema, AggregationConfig(walltime_levels=DEFAULT_WALLTIME_LEVELS)
    )
    aggregator.aggregate_jobs("month")
    total_before = sum(
        r["cpu_hours"] for r in schema.table("agg_job_month").rows()
    )

    def reaggregate():
        return aggregator.reaggregate(
            AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB), ["month"]
        )

    built = benchmark(reaggregate)

    total_after = sum(
        r["cpu_hours"] for r in schema.table("agg_job_month").rows()
    )
    # the benchmark fixture times the default (columnar) rebuild; time the
    # pure-Python oracle once for the before/after comparison
    t0 = time.perf_counter()
    aggregate_jobs_oracle(schema, aggregator.config, "month")
    oracle_s = time.perf_counter() - t0
    columnar_s = benchmark.stats.stats.mean
    emit(f"a3_reaggregation_{n_jobs}", "\n".join([
        f"A3 re-aggregation over {n_jobs} raw jobs:",
        f"  agg rows rebuilt: {built['agg_job_month']}",
        f"  CPU-hour total invariant: {abs(total_after - total_before) < 1e-6}",
        f"  columnar rebuild: {columnar_s * 1e3:.1f} ms",
        f"  pure-Python oracle: {oracle_s * 1e3:.1f} ms"
        f"  ({oracle_s / columnar_s:.1f}x slower)",
    ]))
    emit_metrics(f"a3_reaggregation_{n_jobs}", {
        "columnar_rebuild_time": (columnar_s, "s"),
        "oracle_rebuild_time": (oracle_s, "s"),
        "agg_rows_rebuilt": (float(built["agg_job_month"]), "rows"),
    })
    assert total_after == pytest.approx(total_before)
