"""Aggregate-table builder: XDMoD's nightly pre-binning step.

"Every day, aggregation processes run against newly ingested data in the
XDMoD data warehouse, binning numeric data in aggregation tables.  XDMoD
can then use these tables to group metrics by appropriately-sized
dimensions."

For each period (day/month/quarter/year) the engine builds:

- ``agg_job_<period>`` from ``fact_job`` — grouped by period x resource x
  person x PI x application x queue x wall-time level x job-size level,
  with additive measures.  Usage measures (CPU hours, node hours, XD SUs,
  wall hours) are *apportioned* across the periods a job overlaps, so
  period totals conserve the raw totals exactly; zero-length jobs
  (``walltime_s == 0`` or ``end_ts == start_ts``) attribute their full
  usage to the period they ended in.  Job counts attribute to the period
  the job ended in (XDMoD's "jobs ended" convention), and wait time to
  the period the job started in.
- ``agg_storage_<period>`` from ``fact_storage`` — per-timestamp totals
  averaged within the period (storage metrics are point-in-time gauges,
  not additive).  A ``NULL`` soft quota means "no quota configured" and
  is excluded from ``n_quota_samples``; an explicit ``0.0`` quota is a
  real sample.
- ``agg_cloud_<period>`` from ``fact_vm`` / ``fact_vm_interval`` — running
  core-hours apportioned by overlap, binned by the VM-memory level set
  (Figure 7), plus VM started/ended/active counts.  A running interval
  with ``start_ts == end_ts`` accrues no hours but still counts its VM
  toward ``n_vms_active`` in the period containing ``start_ts``.

There is one aggregation path per realm: the columnar builder in
:mod:`repro.aggregation.columnar`, run by :meth:`Aggregator._fold`.  A
fold recomputes, from all their facts, exactly the groups that fact rows
appended since the last fold contribute to, and upserts them — the builder
returns them as a column batch, written with one
:meth:`repro.warehouse.Table.upsert_columns`; it records how far it got in
the ``agg_watermark`` table.  The two verbs differ only
in where the fold starts: ``aggregate_<realm>`` drops the table and its
watermark and folds from row 0 (the Table I re-aggregation: hub levels
change when a new satellite joins), ``aggregate_<realm>_incremental``
folds from the watermark — and rebuilds by itself when anything other
than appends happened to the facts since.  Raw tables are never modified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .columnar import build_cloud_rows, build_job_rows, build_storage_rows
from .levels import (
    DEFAULT_JOBSIZE_LEVELS,
    DEFAULT_WALLTIME_LEVELS,
    FIG7_VM_MEMORY_LEVELS,
    AggregationLevelSet,
)

C = ColumnType


@dataclass(frozen=True)
class AggregationConfig:
    """Per-instance aggregation settings (the JSON-managed knobs)."""

    walltime_levels: AggregationLevelSet = DEFAULT_WALLTIME_LEVELS
    jobsize_levels: AggregationLevelSet = DEFAULT_JOBSIZE_LEVELS
    vm_memory_levels: AggregationLevelSet = FIG7_VM_MEMORY_LEVELS
    periods: tuple[str, ...] = ("day", "month", "quarter", "year")


def agg_job_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_job_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("person_id", C.INT, False),
            ("pi_id", C.INT, False),
            ("app_id", C.INT, False),
            ("queue_id", C.INT, False),
            ("walltime_level", C.STR, False),
            ("jobsize_level", C.STR, False),
            ("n_jobs_ended", C.INT, False),
            ("n_jobs_started", C.INT, False),
            ("cpu_hours", C.FLOAT, False),
            ("node_hours", C.FLOAT, False),
            ("xdsu", C.FLOAT, False),
            ("wall_hours", C.FLOAT, False),
            ("wait_hours", C.FLOAT, False),
        ]),
        primary_key=(
            "period_start", "resource_id", "person_id", "pi_id",
            "app_id", "queue_id", "walltime_level", "jobsize_level",
        ),
        derived=True,
    )


def agg_storage_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_storage_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("resource_type", C.STR, False),
            ("avg_file_count", C.FLOAT, False),
            ("avg_logical_gb", C.FLOAT, False),
            ("avg_physical_gb", C.FLOAT, False),
            ("sum_quota_utilization", C.FLOAT, False),
            ("n_quota_samples", C.INT, False),
            ("avg_soft_quota_gb", C.FLOAT, False),
            ("avg_hard_quota_gb", C.FLOAT, False),
            ("user_count", C.INT, False),
            ("n_snapshots", C.INT, False),
        ]),
        primary_key=("period_start", "resource_id", "filesystem"),
        derived=True,
    )


def agg_cloud_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_cloud_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("project", C.STR, False),
            ("os", C.STR, False),
            ("submission_venue", C.STR, False),
            ("memory_level", C.STR, False),
            ("core_hours", C.FLOAT, False),
            ("wall_hours", C.FLOAT, False),
            ("mem_gb_hours", C.FLOAT, False),
            ("disk_gb_hours", C.FLOAT, False),
            ("stopped_hours", C.FLOAT, False),
            ("paused_hours", C.FLOAT, False),
            ("n_state_changes", C.INT, False),
            ("n_vms_active", C.INT, False),
            ("n_vms_started", C.INT, False),
            ("n_vms_ended", C.INT, False),
            ("total_cores", C.FLOAT, False),
        ]),
        primary_key=(
            "period_start", "resource_id", "project", "os",
            "submission_venue", "memory_level",
        ),
        derived=True,
    )


def agg_watermark_schema() -> TableSchema:
    """How far into each fact table each aggregate table has folded.

    ``n_rows`` / ``version`` are the fact table's live row count and
    ``data_version`` when the aggregate table last folded it.
    """
    return TableSchema(
        "agg_watermark",
        make_columns([
            ("agg_table", C.STR, False),
            ("fact_table", C.STR, False),
            ("n_rows", C.INT, False),
            ("version", C.INT, False),
        ]),
        primary_key=("agg_table", "fact_table"),
        derived=True,
    )


@dataclass(frozen=True)
class _Realm:
    """What one fold needs to know about a realm."""

    agg_schema: Callable[[str], TableSchema]
    #: the first is the one the realm cannot aggregate without
    fact_tables: tuple[str, ...]
    build: Callable[..., dict[str, Any]]


_JOBS = _Realm(agg_job_schema, ("fact_job",), build_job_rows)
_STORAGE = _Realm(agg_storage_schema, ("fact_storage",), build_storage_rows)
_CLOUD = _Realm(
    agg_cloud_schema, ("fact_vm_interval", "fact_vm"), build_cloud_rows
)


def _replace_table(schema: Schema, table_schema: TableSchema) -> None:
    if schema.has_table(table_schema.name):
        schema.drop_table(table_schema.name)
    schema.create_table(table_schema)


def _observed(realm: str, mode: str):
    """Wrap one aggregation entry point with telemetry.

    Publishes a span, an ``aggregation_build_seconds`` observation, and
    an ``aggregation_rows_total`` bump per call (batch-level: one
    histogram sample per build, never per row).  A plain pass-through
    when the aggregator has no telemetry bundle.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, period: str) -> int:
            obs = self.obs
            if obs is None:
                return fn(self, period)
            registry = obs.registry
            start = obs.clock.now()
            with obs.tracer.span(
                f"aggregate_{realm}", realm=realm, mode=mode, period=period
            ):
                rows = fn(self, period)
            registry.histogram(
                "aggregation_build_seconds",
                "Wall time of one aggregation build",
                ("realm", "mode"),
            ).labels(realm=realm, mode=mode).observe(obs.clock.now() - start)
            registry.counter(
                "aggregation_rows_total",
                "Rows written (full) or facts folded (incremental) per build",
                ("realm", "mode"),
            ).labels(realm=realm, mode=mode).inc(rows)
            return rows

        return wrapper

    return decorate


class Aggregator:
    """Runs the aggregation step against one warehouse schema."""

    def __init__(
        self,
        schema: Schema,
        config: AggregationConfig | None = None,
        *,
        obs=None,
    ) -> None:
        self.schema = schema
        self.config = config or AggregationConfig()
        self.obs = obs

    # -- the fold -------------------------------------------------------------

    def _unfolded(self, realm: _Realm, agg_name: str) -> dict[str, int] | None:
        """Per fact table, the first row ``agg_name`` has not folded — or
        ``None`` when only a rebuild is safe.

        "Only appends since the last fold" is observed, not assumed: every
        mutation bumps a table's ``data_version`` once and only an insert
        adds a row, so the version moved by exactly the rows gained iff
        every mutation was an append.  An update, delete, truncate, cloud
        re-ingest, a fact table that came or went, or a missing aggregate
        table all fail the test.
        """
        schema = self.schema
        if not (schema.has_table(agg_name) and schema.has_table("agg_watermark")):
            return None
        marks = schema.table("agg_watermark")
        since: dict[str, int] = {}
        for name in realm.fact_tables:
            mark = marks.get((agg_name, name))
            present = schema.has_table(name)
            if mark is None and not present:
                continue
            if mark is None or not present:
                return None
            fact = schema.table(name)
            gained = len(fact) - mark["n_rows"]
            if gained < 0 or fact.data_version - mark["version"] != gained:
                return None
            since[name] = mark["n_rows"]
        return since

    def _fold(self, realm: _Realm, period: str, *, rebuild: bool) -> int:
        """Fold the realm's unfolded facts into its ``<period>`` table.

        With ``rebuild`` (or when :meth:`_unfolded` says so) the table and
        its watermark are dropped first, so every fact is unfolded.
        Returns the number of fact rows folded.
        """
        schema = self.schema
        agg_schema = realm.agg_schema(period)
        since = None if rebuild else self._unfolded(realm, agg_schema.name)
        if since is None:
            _replace_table(schema, agg_schema)
            if not schema.has_table("agg_watermark"):
                schema.create_table(agg_watermark_schema())
            schema.table("agg_watermark").delete_where(
                lambda mark: mark["agg_table"] == agg_schema.name
            )
            since = {}
        facts = [schema.table(n) for n in realm.fact_tables if schema.has_table(n)]
        folded = sum(len(fact) - since.get(fact.name, 0) for fact in facts)
        if folded == 0:
            return 0
        agg = schema.table(agg_schema.name)
        if schema.has_table(realm.fact_tables[0]):
            agg.upsert_columns(
                realm.build(schema, self.config, period, since, obs=self.obs)
            )
        schema.table("agg_watermark").upsert_columns({
            "agg_table": [agg.name] * len(facts),
            "fact_table": [fact.name for fact in facts],
            "n_rows": [len(fact) for fact in facts],
            "version": [fact.data_version for fact in facts],
        })
        return folded

    def _rebuild(self, realm: _Realm, period: str) -> int:
        self._fold(realm, period, rebuild=True)
        return len(self.schema.table(realm.agg_schema(period).name))

    # -- per-realm verbs ------------------------------------------------------

    @_observed("jobs", "full")
    def aggregate_jobs(self, period: str) -> int:
        """(Re)build ``agg_job_<period>`` from row 0; returns rows written."""
        return self._rebuild(_JOBS, period)

    @_observed("jobs", "incremental")
    def aggregate_jobs_incremental(self, period: str) -> int:
        """Fold newly ingested jobs into ``agg_job_<period>`` in place.

        This is XDMoD's actual nightly mode: "aggregation processes run
        against newly ingested data".  Only the groups the new jobs
        contribute to are recomputed and upserted; the table equals a
        full :meth:`aggregate_jobs` rebuild over the same facts exactly.
        After anything but appends to ``fact_job`` the fold rebuilds.

        Returns the number of jobs folded in.
        """
        return self._fold(_JOBS, period, rebuild=False)

    @_observed("storage", "full")
    def aggregate_storage(self, period: str) -> int:
        """(Re)build ``agg_storage_<period>`` from row 0; returns rows written."""
        return self._rebuild(_STORAGE, period)

    @_observed("storage", "incremental")
    def aggregate_storage_incremental(self, period: str) -> int:
        """Fold newly ingested snapshots into ``agg_storage_<period>``.

        Same contract as :meth:`aggregate_jobs_incremental`; returns the
        number of snapshots folded in.  Assumes ``resource_type`` is
        stable per (resource, filesystem), which ingest guarantees.
        """
        return self._fold(_STORAGE, period, rebuild=False)

    @_observed("cloud", "full")
    def aggregate_cloud(self, period: str) -> int:
        """(Re)build ``agg_cloud_<period>`` from row 0; returns rows written."""
        return self._rebuild(_CLOUD, period)

    @_observed("cloud", "incremental")
    def aggregate_cloud_incremental(self, period: str) -> int:
        """Fold newly ingested cloud facts into ``agg_cloud_<period>``.

        Same contract as :meth:`aggregate_jobs_incremental`; returns the
        number of intervals + VM facts folded in.  A cumulative event-feed
        re-ingest deletes and re-inserts its VMs, so it rebuilds.
        """
        return self._fold(_CLOUD, period, rebuild=False)

    # -- orchestration ---------------------------------------------------------

    def aggregate_all(self, periods: Sequence[str] | None = None) -> dict[str, int]:
        """Run every realm's aggregation for every configured period."""
        out: dict[str, int] = {}
        for period in periods or self.config.periods:
            out[f"agg_job_{period}"] = self.aggregate_jobs(period)
            out[f"agg_storage_{period}"] = self.aggregate_storage(period)
            out[f"agg_cloud_{period}"] = self.aggregate_cloud(period)
        return out

    def aggregate_all_incremental(
        self, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Fold every realm's newly ingested facts for every period.

        Returns facts-folded counts keyed like :meth:`aggregate_all`.
        """
        out: dict[str, int] = {}
        for period in periods or self.config.periods:
            out[f"agg_job_{period}"] = self.aggregate_jobs_incremental(period)
            out[f"agg_storage_{period}"] = self.aggregate_storage_incremental(period)
            out[f"agg_cloud_{period}"] = self.aggregate_cloud_incremental(period)
        return out

    def reaggregate(
        self, config: AggregationConfig, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Change aggregation levels and rebuild — the Table I scenario.

        "If ... aggregation levels must be redefined on the federation hub
        to accommodate a new satellite instance, the administrator will
        update the appropriate configuration file on the federation hub,
        then re-aggregate all raw federation data."
        """
        self.config = config
        return self.aggregate_all(periods)
