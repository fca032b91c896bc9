"""SUPReMM (performance realm) ingestion.

The SUPReMM module "collects data from system hardware counters to offer
viewing and analysis of both aggregate and individual job-level data".  Two
tables result:

- ``fact_job_perf`` — per-job summary statistics (avg/max of the nine
  metrics).  This is the *summarized* performance data the paper plans to
  replicate to federation hubs in a later release.
- ``job_timeseries`` — the full sampled series plus the job script, stored
  as JSON.  This is the storage-intensive detail that federation
  deliberately does **not** replicate (Section II-C5); the replicator's
  default table filter excludes it.
"""

from __future__ import annotations

from typing import Iterable

from ..simulators.perf import PERF_METRICS, JobPerformance
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .star import DimensionCache, create_jobs_star, land

C = ColumnType

#: Tables excluded from federation replication by default (II-C5).
HEAVY_TABLES = ("job_timeseries",)


def perf_fact_schema() -> TableSchema:
    columns = [("job_id", C.INT, False), ("resource_id", C.INT, False)]
    for metric in PERF_METRICS:
        columns.append((f"{metric}_avg", C.FLOAT, False))
        columns.append((f"{metric}_max", C.FLOAT, False))
    return TableSchema(
        "fact_job_perf",
        make_columns(columns),
        primary_key=("resource_id", "job_id"),
    )


def timeseries_schema() -> TableSchema:
    return TableSchema(
        "job_timeseries",
        make_columns([
            ("job_id", C.INT, False),
            ("resource_id", C.INT, False),
            ("interval_s", C.INT, False),
            ("start_ts", C.TIMESTAMP, False),
            ("series", C.JSON, False),
            ("job_script", C.STR, False),
        ]),
        primary_key=("resource_id", "job_id"),
    )


def create_supremm_realm(schema: Schema) -> None:
    create_jobs_star(schema)
    if not schema.has_table("fact_job_perf"):
        schema.create_table(perf_fact_schema())
    if not schema.has_table("job_timeseries"):
        schema.create_table(timeseries_schema())


def ingest_performance(
    schema: Schema,
    performances: Iterable[JobPerformance],
) -> int:
    """Ingest job performance records; returns the number ingested.

    Upserts by (resource, job), so re-processing a window is idempotent.
    The batch is staged and lands all or nothing: dimensions, then
    ``fact_job_perf``, then ``job_timeseries``, one batch write each.
    """
    create_supremm_realm(schema)
    dims = DimensionCache(schema)
    facts: list[dict] = []
    series: list[dict] = []
    for perf in performances:
        resource_id = dims.resource_id(perf.resource)
        facts.append(
            {"job_id": perf.job_id, "resource_id": resource_id, **perf.summary()}
        )
        series.append(
            {
                "job_id": perf.job_id,
                "resource_id": resource_id,
                "interval_s": perf.interval_s,
                "start_ts": int(perf.timestamps[0]) if len(perf.timestamps) else 0,
                "series": {
                    name: [round(float(v), 4) for v in values]
                    for name, values in perf.series.items()
                },
                "job_script": perf.job_script,
            }
        )
    land(
        dims.stage(
            (schema.table("fact_job_perf"), facts),
            (schema.table("job_timeseries"), series),
        )
    )
    return len(facts)
