"""Aggregate-table builder: XDMoD's nightly pre-binning step.

"Every day, aggregation processes run against newly ingested data in the
XDMoD data warehouse, binning numeric data in aggregation tables.  XDMoD
can then use these tables to group metrics by appropriately-sized
dimensions."

Each aggregated realm is declared once, as an :class:`AggregateSpec` —
its fact tables, the columns and key of its ``<prefix>_<period>`` table,
its builder in :mod:`repro.aggregation.columnar` — which the fold,
:meth:`Aggregator.aggregate_all`, the realms and repolint's catalog all
read: a new realm costs one spec and one builder.  For each period:

- ``agg_job_<period>`` (:data:`JOBS`) from ``fact_job`` — grouped by
  period x resource x person x PI x application x queue x wall-time level
  x job-size level, with additive measures.  Usage measures (CPU hours,
  node hours, XD SUs, wall hours) are *apportioned* across the periods a
  job overlaps, so period totals conserve the raw totals exactly;
  zero-length jobs (``walltime_s == 0`` or ``end_ts == start_ts``)
  attribute their full usage to the period they ended in.  Job counts
  attribute to the period the job ended in (XDMoD's "jobs ended"
  convention), and wait time to the period the job started in.
- ``agg_storage_<period>`` (:data:`STORAGE`) from ``fact_storage`` —
  per-timestamp totals averaged within the period (storage metrics are
  point-in-time gauges, not additive).  A ``NULL`` soft quota means "no
  quota configured" and is excluded from ``n_quota_samples``; an explicit
  ``0.0`` quota is a real sample.
- ``agg_cloud_<period>`` (:data:`CLOUD`) from ``fact_vm`` /
  ``fact_vm_interval`` — running core-hours apportioned by overlap, binned
  by the VM-memory level set (Figure 7), plus VM started/ended/active
  counts.  A running interval with ``start_ts == end_ts`` accrues no hours
  but still counts its VM toward ``n_vms_active`` in the period containing
  ``start_ts``.
- ``agg_allocation_<period>`` (:data:`ALLOCATIONS`) — charges in the
  period of their ``end_ts``, grants pro-rated over their windows; built
  on demand (:func:`repro.realms.aggregate_allocations`), not by
  :meth:`Aggregator.aggregate_all`.

:meth:`Aggregator.fold` recomputes, from all their facts, exactly the
groups that fact rows appended since the last fold contribute to, writes
them with one :meth:`repro.warehouse.Table.upsert_columns` and records how
far it got in the ``agg_watermark`` table; after anything but appends it
rebuilds by itself.  :meth:`Aggregator.rebuild` is the same fold from row
0, after dropping the table and its watermark (the Table I
re-aggregation: hub levels change when a new satellite joins).  Raw
tables are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .columnar import (
    build_allocation_rows,
    build_cloud_rows,
    build_job_rows,
    build_storage_rows,
)
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


@dataclass(frozen=True)
class AggregateSpec:
    """One realm's aggregate, declared once.

    ``columns`` are the ``<prefix>_<period>`` table's columns after
    ``period_start`` and ``period_label`` (none is nullable), ``key`` the
    ones that follow ``period_start`` in its primary key.  The fold
    watches ``fact_tables``, the first of which the realm cannot aggregate
    without; ``build`` is the realm's builder in
    :mod:`repro.aggregation.columnar`.
    """

    realm: str
    prefix: str
    fact_tables: tuple[str, ...]
    columns: tuple[tuple[str, ColumnType], ...]
    key: tuple[str, ...]
    build: Callable[..., dict[str, Any]]

    def table_schema(self, period: str) -> TableSchema:
        """The derived ``<prefix>_<period>`` table."""
        return TableSchema(
            f"{self.prefix}_{period}",
            make_columns([
                ("period_start", C.TIMESTAMP, False),
                ("period_label", C.STR, False),
                *((name, ctype, False) for name, ctype in self.columns),
            ]),
            primary_key=("period_start", *self.key),
            derived=True,
        )


JOBS = AggregateSpec(
    "jobs", "agg_job", ("fact_job",),
    (
        ("resource_id", C.INT),
        ("person_id", C.INT),
        ("pi_id", C.INT),
        ("app_id", C.INT),
        ("queue_id", C.INT),
        ("walltime_level", C.STR),
        ("jobsize_level", C.STR),
        ("n_jobs_ended", C.INT),
        ("n_jobs_started", C.INT),
        ("cpu_hours", C.FLOAT),
        ("node_hours", C.FLOAT),
        ("xdsu", C.FLOAT),
        ("wall_hours", C.FLOAT),
        ("wait_hours", C.FLOAT),
    ),
    (
        "resource_id", "person_id", "pi_id", "app_id", "queue_id",
        "walltime_level", "jobsize_level",
    ),
    build_job_rows,
)

STORAGE = AggregateSpec(
    "storage", "agg_storage", ("fact_storage",),
    (
        ("resource_id", C.INT),
        ("filesystem", C.STR),
        ("resource_type", C.STR),
        ("avg_file_count", C.FLOAT),
        ("avg_logical_gb", C.FLOAT),
        ("avg_physical_gb", C.FLOAT),
        ("sum_quota_utilization", C.FLOAT),
        ("n_quota_samples", C.INT),
        ("avg_soft_quota_gb", C.FLOAT),
        ("avg_hard_quota_gb", C.FLOAT),
        ("user_count", C.INT),
        ("n_snapshots", C.INT),
    ),
    ("resource_id", "filesystem"),
    build_storage_rows,
)

CLOUD = AggregateSpec(
    "cloud", "agg_cloud", ("fact_vm_interval", "fact_vm"),
    (
        ("resource_id", C.INT),
        ("project", C.STR),
        ("os", C.STR),
        ("submission_venue", C.STR),
        ("memory_level", C.STR),
        ("core_hours", C.FLOAT),
        ("wall_hours", C.FLOAT),
        ("mem_gb_hours", C.FLOAT),
        ("disk_gb_hours", C.FLOAT),
        ("stopped_hours", C.FLOAT),
        ("paused_hours", C.FLOAT),
        ("n_state_changes", C.INT),
        ("n_vms_active", C.INT),
        ("n_vms_started", C.INT),
        ("n_vms_ended", C.INT),
        ("total_cores", C.FLOAT),
    ),
    ("resource_id", "project", "os", "submission_venue", "memory_level"),
    build_cloud_rows,
)

ALLOCATIONS = AggregateSpec(
    "allocations", "agg_allocation",
    ("fact_allocation_charge", "dim_allocation", "dim_resource"),
    (
        ("allocation_id", C.INT),
        ("project", C.STR),
        ("resource_id", C.INT),
        ("xdsu_charged", C.FLOAT),
        ("n_jobs_charged", C.INT),
        ("su_granted", C.FLOAT),
    ),
    ("allocation_id",),
    build_allocation_rows,
)

#: Every realm's aggregate; :meth:`Aggregator.aggregate_all` builds all but
#: :data:`ALLOCATIONS` (built on demand), in this order.
SPECS = (JOBS, STORAGE, CLOUD, ALLOCATIONS)


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

    # -- the two verbs --------------------------------------------------------

    def rebuild(self, spec: AggregateSpec, period: str) -> int:
        """(Re)build ``<prefix>_<period>`` from row 0, after dropping the
        table and its watermark; returns rows written."""
        return self._run(spec, period, "full")

    def fold(self, spec: AggregateSpec, period: str) -> int:
        """Fold newly ingested facts into ``<prefix>_<period>`` in place —
        XDMoD's nightly mode, "aggregation processes run against newly
        ingested data" — and return the number of fact rows folded.  The
        table equals a :meth:`rebuild` over the same facts exactly; after
        anything but appends to the spec's fact tables it is one."""
        return self._run(spec, period, "incremental")

    def _run(self, spec: AggregateSpec, period: str, mode: str) -> int:
        """:meth:`_fold` as one ``aggregate_<realm>`` span, one
        ``aggregation_build_seconds`` observation and one
        ``aggregation_rows_total`` bump (batch-level: never per row); a
        plain call when the aggregator has no telemetry bundle."""
        obs = self.obs
        if obs is None:
            return self._fold(spec, period, rebuild=mode == "full")
        start = obs.clock.now()
        with obs.tracer.span(
            f"aggregate_{spec.realm}", realm=spec.realm, mode=mode, period=period
        ):
            rows = self._fold(spec, period, rebuild=mode == "full")
        registry = obs.registry
        registry.histogram(
            "aggregation_build_seconds",
            "Wall time of one aggregation build",
            ("realm", "mode"),
        ).labels(realm=spec.realm, mode=mode).observe(obs.clock.now() - start)
        registry.counter(
            "aggregation_rows_total",
            "Rows written (full) or facts folded (incremental) per build",
            ("realm", "mode"),
        ).labels(realm=spec.realm, mode=mode).inc(rows)
        return rows

    # -- the fold -------------------------------------------------------------

    def _unfolded(self, spec: AggregateSpec, agg_name: str) -> dict[str, int] | None:
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
        for name in spec.fact_tables:
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

    def _fold(self, spec: AggregateSpec, period: str, *, rebuild: bool) -> int:
        """Fold the spec's unfolded facts into its ``<period>`` table.

        With ``rebuild`` (or when :meth:`_unfolded` says so) the table and
        its watermark are dropped first, so every fact is unfolded.
        Returns the table's row count after a ``rebuild``, else the number
        of fact rows folded.
        """
        schema = self.schema
        agg_name = f"{spec.prefix}_{period}"
        since = None if rebuild else self._unfolded(spec, agg_name)
        if since is None:
            if schema.has_table(agg_name):
                schema.drop_table(agg_name)
            schema.create_table(spec.table_schema(period))
            if not schema.has_table("agg_watermark"):
                schema.create_table(agg_watermark_schema())
            schema.table("agg_watermark").delete_where(
                lambda mark: mark["agg_table"] == agg_name
            )
            since = {}
        agg = schema.table(agg_name)
        facts = [schema.table(n) for n in spec.fact_tables if schema.has_table(n)]
        folded = sum(len(fact) - since.get(fact.name, 0) for fact in facts)
        if folded:
            if schema.has_table(spec.fact_tables[0]):
                columns = spec.build(schema, self.config, period, since)
                if columns and self.obs is not None:
                    self.obs.registry.counter(
                        "aggregation_rows_built_total",
                        "Aggregate rows produced by the columnar builders",
                        ("realm", "period"),
                    ).labels(realm=spec.realm, period=period).inc(
                        len(columns["period_start"])
                    )
                agg.upsert_columns(columns)
            schema.table("agg_watermark").upsert_columns({
                "agg_table": [agg.name] * len(facts),
                "fact_table": [fact.name for fact in facts],
                "n_rows": [len(fact) for fact in facts],
                "version": [fact.data_version for fact in facts],
            })
        return len(agg) if rebuild else folded

    # -- per-realm rebuilds by name -------------------------------------------

    def aggregate_jobs(self, period: str) -> int:
        return self.rebuild(JOBS, period)

    def aggregate_storage(self, period: str) -> int:
        return self.rebuild(STORAGE, period)

    def aggregate_cloud(self, period: str) -> int:
        return self.rebuild(CLOUD, period)

    # -- orchestration ---------------------------------------------------------

    def aggregate_all(self, periods: Sequence[str] | None = None) -> dict[str, int]:
        """Rebuild the jobs, storage and cloud tables for every configured
        period; returns rows written per table."""
        return {
            f"{spec.prefix}_{period}": self.rebuild(spec, period)
            for period in periods or self.config.periods
            for spec in (JOBS, STORAGE, CLOUD)
        }

    def aggregate_all_incremental(
        self, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Fold every realm's newly ingested facts for every period.

        Returns facts-folded counts keyed like :meth:`aggregate_all`.
        """
        return {
            f"{spec.prefix}_{period}": self.fold(spec, period)
            for period in periods or self.config.periods
            for spec in (JOBS, STORAGE, CLOUD)
        }

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
