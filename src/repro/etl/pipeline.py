"""ETL orchestration: the per-instance ingest pipeline.

An XDMoD instance runs a nightly pipeline: shred new resource-manager logs,
ingest them into the data warehouse, then aggregate (see
:mod:`repro.aggregation`).  :class:`IngestPipeline` bundles the shred+ingest
steps for every supported source type and tracks per-source high-water
marks so repeated runs are incremental — the property live (tight)
federation relies on, since the replicator streams whatever the pipeline
commits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..obs import Observability
from ..simulators.hpl import ConversionTable
from ..simulators.perf import JobPerformance
from ..warehouse import ColumnType, Database, Schema, TableSchema, make_columns
from .cloudevents import ingest_cloud_events
from .perfingest import ingest_performance
from .slurm import ParsedJob, parse_sacct_log
from .star import PersonInfo, ingest_jobs
from .storagefs import ingest_storage_snapshots

C = ColumnType

#: Name of the primary warehouse schema on every instance (XDMoD's `modw`).
WAREHOUSE_SCHEMA = "modw"


def marker_schema() -> TableSchema:
    return TableSchema(
        "etl_markers",
        make_columns([
            ("source", C.STR, False),
            ("high_water_ts", C.TIMESTAMP, False),
            ("records_total", C.INT, False),
        ]),
        primary_key=("source",),
    )


class _StageCount:
    """Mutable record counter yielded by ``IngestPipeline._stage``."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records = 0


@dataclass
class IngestReport:
    """Counts from one pipeline run."""

    jobs: int = 0
    perf: int = 0
    storage: int = 0
    storage_rejected: int = 0
    vms: int = 0
    cloud_rejected: int = 0

    def total(self) -> int:
        return self.jobs + self.perf + self.storage + self.vms


class IngestPipeline:
    """Shred + ingest for one XDMoD instance's warehouse schema."""

    def __init__(
        self,
        database: Database,
        *,
        schema_name: str = WAREHOUSE_SCHEMA,
        conversion: ConversionTable | None = None,
        directory: Mapping[str, PersonInfo] | None = None,
        science_fields: Mapping[str, str] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.database = database
        self.schema: Schema = database.ensure_schema(schema_name)
        self.conversion = conversion or ConversionTable()
        self.directory = dict(directory or {})
        self.science_fields = dict(science_fields or {})
        self.obs = obs
        if not self.schema.has_table("etl_markers"):
            self.schema.create_table(marker_schema())

    # -- telemetry -----------------------------------------------------------

    @contextmanager
    def _stage(self, source: str):
        """Span + per-source record count/duration around one ingest call.

        The yielded object carries a mutable ``records``; metrics are
        published once per stage, not per record.
        """
        stage = _StageCount()
        if self.obs is None:
            yield stage
            return
        registry = self.obs.registry
        start = self.obs.clock.now()
        with self.obs.tracer.span(f"ingest_{source}", source=source):
            try:
                yield stage
            finally:
                registry.counter(
                    "etl_ingest_records_total",
                    "Records ingested per ETL source",
                    ("source",),
                ).labels(source=source).inc(stage.records)
                registry.histogram(
                    "etl_ingest_seconds",
                    "Wall time of one ingest stage per ETL source",
                    ("source",),
                ).labels(source=source).observe(self.obs.clock.now() - start)

    # -- markers -------------------------------------------------------------

    def high_water(self, source: str) -> int:
        row = self.schema.table("etl_markers").get((source,))
        return row["high_water_ts"] if row else 0

    def _advance(self, source: str, ts: int, records: int) -> None:
        markers = self.schema.table("etl_markers")
        row = markers.get((source,))
        markers.upsert_columns(
            {
                "source": [source],
                "high_water_ts": [max(ts, row["high_water_ts"] if row else 0)],
                "records_total": [(row["records_total"] if row else 0) + records],
            }
        )

    # -- sources -------------------------------------------------------------

    def ingest_sacct(
        self, log_text: str, *, default_resource: str = "unknown"
    ) -> int:
        """Shred a sacct dump and ingest the jobs realm."""
        jobs = list(
            parse_sacct_log(log_text, default_resource=default_resource)
        )
        return self.ingest_parsed_jobs(jobs)

    def ingest_pbs(
        self, log_text: str, *, default_resource: str = "unknown"
    ) -> int:
        """Shred a PBS/Torque accounting log and ingest the jobs realm."""
        from .pbs import parse_pbs_log

        jobs = list(parse_pbs_log(log_text, default_resource=default_resource))
        return self.ingest_parsed_jobs(jobs)

    def ingest_parsed_jobs(self, jobs: Iterable[ParsedJob]) -> int:
        jobs = list(jobs)
        with self._stage("jobs") as stage:
            n = ingest_jobs(
                self.schema,
                jobs,
                conversion=self.conversion,
                directory=self.directory,
                science_fields=self.science_fields,
            )
            stage.records = n
            if jobs:
                self._advance("jobs", max(j.end_ts for j in jobs), n)
        return n

    def ingest_performance(self, performances: Iterable[JobPerformance]) -> int:
        performances = list(performances)
        with self._stage("supremm") as stage:
            n = ingest_performance(self.schema, performances)
            stage.records = n
            if performances:
                self._advance(
                    "supremm",
                    max(int(p.timestamps[-1]) for p in performances if len(p.timestamps)),
                    n,
                )
        return n

    def ingest_storage(
        self, documents: Iterable[Mapping[str, Any]], *, strict: bool = True
    ) -> tuple[int, int]:
        documents = list(documents)
        with self._stage("storage") as stage:
            ingested, rejected = ingest_storage_snapshots(
                self.schema, documents, strict=strict
            )
            stage.records = ingested
            if documents:
                self._advance("storage", max(d["ts"] for d in documents), ingested)
        return ingested, rejected

    def ingest_cloud(
        self, events: Iterable[Mapping[str, Any]], *, strict: bool = True
    ) -> tuple[int, int]:
        events = list(events)
        with self._stage("cloud") as stage:
            vms, rejected = ingest_cloud_events(self.schema, events, strict=strict)
            stage.records = vms
            if events:
                self._advance("cloud", max(e["ts"] for e in events), vms)
        return vms, rejected

    # -- orchestration ---------------------------------------------------------

    def run(
        self,
        *,
        sacct_logs: Mapping[str, str] | None = None,
        performances: Iterable[JobPerformance] | None = None,
        storage_docs: Iterable[Mapping[str, Any]] | None = None,
        cloud_events: Iterable[Mapping[str, Any]] | None = None,
    ) -> IngestReport:
        """One full pipeline pass over whatever sources are supplied.

        ``sacct_logs`` maps resource name -> log text.
        """
        report = IngestReport()
        for resource, log_text in (sacct_logs or {}).items():
            report.jobs += self.ingest_sacct(log_text, default_resource=resource)
        if performances is not None:
            report.perf = self.ingest_performance(performances)
        if storage_docs is not None:
            report.storage, report.storage_rejected = self.ingest_storage(
                storage_docs, strict=False
            )
        if cloud_events is not None:
            report.vms, report.cloud_rejected = self.ingest_cloud(
                cloud_events, strict=False
            )
        return report
