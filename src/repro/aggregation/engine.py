"""Aggregate-table builder: XDMoD's nightly pre-binning step.

"Every day, aggregation processes run against newly ingested data in the
XDMoD data warehouse, binning numeric data in aggregation tables.  XDMoD
can then use these tables to group metrics by appropriately-sized
dimensions."

Each aggregated realm is declared once, as an :class:`AggregateSpec` —
the columns and key of its ``<prefix>_<period>`` table, the tables it
reads and what each of their rows contributes, in the vocabulary of
:mod:`repro.aggregation.columnar` — which the one builder
(:func:`repro.aggregation.columnar.build`), the fold,
:meth:`Aggregator.aggregate_all`, the realms and repolint's catalog all
read: a new realm is one spec and no code.  For each period:

- ``agg_job_<period>`` (:data:`JOBS`): usage apportioned across the periods
  a job overlaps (a zero-length job's lands in its end period), job counts
  where jobs ended and started, wait where they started;
- ``agg_storage_<period>`` (:data:`STORAGE`): per-timestamp totals averaged
  within the period (gauges); a ``NULL`` soft quota is no sample, ``0.0`` is;
- ``agg_cloud_<period>`` (:data:`CLOUD`): running hours apportioned by
  overlap, binned by VM memory (Figure 7), and VM started/ended/active
  counts (a zero-length running interval counts its VM as active);
- ``agg_allocation_<period>`` (:data:`ALLOCATIONS`): charges where they
  ended, grants pro-rated over their windows; built on demand
  (:func:`repro.realms.aggregate_allocations`), not by
  :meth:`Aggregator.aggregate_all`;
- ``agg_supremm_<period>`` (:data:`SUPREMM`): each job's CPU hours and,
  per metric, its average times those hours, where the job ended (a job
  with no CPU hours or no ``fact_job`` row adds nothing); built only on a
  schema with ``fact_job_perf``.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from ..simulators.perf import PERF_METRICS
from ..timeutil import SECONDS_PER_HOUR
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .columnar import Columns, Distinct, Plan, Source, at, build, over
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
    ones that follow ``period_start`` in its primary key.  ``sources`` say
    what each table's rows contribute (:mod:`repro.aggregation.columnar`);
    ``levels`` bins a key by an :class:`AggregationConfig` level set
    (``{key: field}``); ``pick`` takes a column from one row of each group
    (``{column: None}``: its first contribution row; ``{column: by}``: its
    row with the largest ``by``); ``finish`` divides a summed measure by
    another (``{average: count}``).  Every other column is a measure.  A
    ``snapshot`` spec's rows are gauge readings, attributed with
    :func:`~repro.aggregation.columnar.at` only: its measures are summed
    per timestamp first, then over a group's timestamps.
    """

    realm: str
    prefix: str
    columns: tuple[tuple[str, ColumnType], ...]
    key: tuple[str, ...]
    sources: tuple[Source, ...]
    levels: Mapping[str, str] = field(default_factory=dict)
    pick: Mapping[str, str | None] = field(default_factory=dict)
    finish: Mapping[str, str] = field(default_factory=dict)
    snapshot: bool = False

    @cached_property
    def fact_tables(self) -> tuple[str, ...]:
        """The tables the fold watches: every source's, then every joined
        one; the realm cannot aggregate without the first."""
        return (
            *(s.table for s in self.sources),
            *(s.join[1] for s in self.sources if s.join),
        )

    @cached_property
    def plan(self) -> Plan:
        """The declarations as :func:`repro.aggregation.columnar.build`
        reads them, derived once."""
        return Plan.of(self)

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


def _hours(column: str) -> Callable[[Columns], np.ndarray]:
    """``column``, in seconds, as hours."""
    return lambda c: c[column] / SECONDS_PER_HOUR


def _share(c: Columns) -> np.ndarray:
    """The share of a job's wall time in the period."""
    return c["overlap"] / c["walltime_s"]


def _apportioned(column: str) -> Callable[[Columns], np.ndarray]:
    """A job's ``column`` times :func:`_share`."""
    return lambda c: c[column] * c[_share]


def _overlap_hours(c: Columns) -> np.ndarray:
    """The hours a row overlaps the period."""
    return c["overlap"] / SECONDS_PER_HOUR


def _per_hour(column: str) -> Callable[[Columns], np.ndarray]:
    """``column`` times the hours a row overlaps the period."""
    return lambda c: c[column] * c[_overlap_hours]


def _or_zero(column: str) -> Callable[[Columns], np.ndarray]:
    """``column`` with NULL as 0."""
    return lambda c: np.where(np.isnan(c[column]), 0.0, c[column])


def _if(test: Callable[[Columns], np.ndarray], value: Callable[[Columns], np.ndarray]):
    """``value`` on the rows ``test`` holds on, else 0."""
    return lambda c: np.where(c[test], c[value], 0.0)


def _running(c: Columns) -> np.ndarray:
    return c["state"] == "running"


def _stopped(c: Columns) -> np.ndarray:
    return c["state"] == "stopped"


def _quota_utilization(c: Columns) -> np.ndarray:
    """Logical usage over a positive soft quota, else 0: a ``0.0`` quota is
    a sample of undefined utilization, a NULL one no sample."""
    soft = c["soft_quota_gb"]
    return np.divide(c["logical_usage_gb"], soft, out=np.zeros(len(soft)), where=soft > 0)


JOBS = AggregateSpec(
    "jobs", "agg_job",
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
    (Source(
        "fact_job",
        (
            "resource_id", "person_id", "pi_id", "app_id", "queue_id",
            "start_ts", "end_ts", "walltime_s", "wait_s", "cores",
            "cpu_hours", "node_hours", "xdsu",
        ),
        (
            at("end_ts", n_jobs_ended=1),
            at("start_ts", n_jobs_started=1, wait_hours=_hours("wait_s")),
            over(
                "start_ts", "end_ts", where=lambda c: c["walltime_s"] > 0,
                cpu_hours=_apportioned("cpu_hours"), node_hours=_apportioned("node_hours"),
                xdsu=_apportioned("xdsu"), wall_hours=_overlap_hours,
            ),
            # a zero-length job's usage lands, whole, in its end period
            at(
                "end_ts",
                where=lambda c: (c["walltime_s"] <= 0) | (c["end_ts"] <= c["start_ts"]),
                cpu_hours="cpu_hours", node_hours="node_hours", xdsu="xdsu",
                wall_hours=_hours("walltime_s"),
            ),
        ),
        rename={"walltime_level": "walltime_s", "jobsize_level": "cores"},
    ),),
    levels={"walltime_level": "walltime_levels", "jobsize_level": "jobsize_levels"},
)

STORAGE = AggregateSpec(
    "storage", "agg_storage",
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
    (Source(
        "fact_storage",
        (
            "ts", "resource_id", "filesystem", "resource_type", "person_id",
            "file_count", "logical_usage_gb", "physical_usage_gb",
            "soft_quota_gb", "hard_quota_gb",
        ),
        (at(
            "ts",
            avg_file_count="file_count", avg_logical_gb="logical_usage_gb",
            avg_physical_gb="physical_usage_gb",
            sum_quota_utilization=_quota_utilization,
            n_quota_samples=lambda c: ~np.isnan(c["soft_quota_gb"]),
            avg_soft_quota_gb=_or_zero("soft_quota_gb"),
            avg_hard_quota_gb=_or_zero("hard_quota_gb"),
            user_count=Distinct("person_id"), n_snapshots=Distinct("ts"),
        ),),
    ),),
    pick={"resource_type": "ts"},  # the group's newest snapshot's
    finish={
        name: "n_snapshots" for name in (
            "avg_file_count", "avg_logical_gb", "avg_physical_gb",
            "avg_soft_quota_gb", "avg_hard_quota_gb",
        )
    },
    snapshot=True,
)

CLOUD = AggregateSpec(
    "cloud", "agg_cloud",
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
    (
        Source(
            "fact_vm_interval",
            (
                "resource_id", "vm_id", "project", "os", "submission_venue",
                "state", "start_ts", "end_ts", "vcpus", "mem_gb", "disk_gb",
            ),
            (
                # one row per (interval, overlapped period), every state
                over(
                    "start_ts", "end_ts",
                    core_hours=_if(_running, _per_hour("vcpus")),
                    wall_hours=_if(_running, _overlap_hours),
                    mem_gb_hours=_if(_running, _per_hour("mem_gb")),
                    disk_gb_hours=_if(_running, _per_hour("disk_gb")),
                    stopped_hours=_if(_stopped, _overlap_hours),
                    paused_hours=_if(lambda c: ~c[_running] & ~c[_stopped], _overlap_hours),
                    n_vms_active=Distinct("vm_id", where=_running),
                ),
                # a zero-length running interval accrues no hours, but its VM
                # was active in the period containing start_ts
                at("start_ts",
                   where=lambda c: (c["end_ts"] == c["start_ts"]) & c[_running],
                   n_vms_active=Distinct("vm_id")),
            ),
            rename={"memory_level": "mem_gb"},
        ),
        Source(
            "fact_vm",
            (
                "resource_id", "project", "os", "submission_venue",
                "provision_ts", "terminate_ts", "last_vcpus", "last_mem_gb",
                "n_state_changes",
            ),
            (
                at("provision_ts", n_vms_started=1, total_cores="last_vcpus",
                   n_state_changes="n_state_changes"),
                at("terminate_ts", n_vms_ended=1),
            ),
            rename={"memory_level": "last_mem_gb"},
        ),
    ),
    levels={"memory_level": "vm_memory_levels"},
)

ALLOCATIONS = AggregateSpec(
    "allocations", "agg_allocation",
    (
        ("allocation_id", C.INT),
        ("project", C.STR),
        ("resource_id", C.INT),
        ("xdsu_charged", C.FLOAT),
        ("n_jobs_charged", C.INT),
        ("su_granted", C.FLOAT),
    ),
    ("allocation_id",),
    (
        Source(
            "fact_allocation_charge",
            ("allocation_id", "project", "resource_id", "end_ts", "xdsu_charged"),
            (at("end_ts", xdsu_charged="xdsu_charged", n_jobs_charged=1),),
        ),
        # a grant is pro-rated over its validity window, charged or not
        Source(
            "dim_allocation",
            ("allocation_id", "project", "resource", "su_granted", "start_ts", "end_ts"),
            (over(
                "start_ts", "end_ts",
                su_granted=lambda c: c["su_granted"] * c["overlap"] / (c["end_ts"] - c["start_ts"]),
            ),),
            join=(("resource",), "dim_resource", ("name",), ("resource_id",)),
        ),
    ),
    # a group's project and resource are its first charge's, else its grant's
    pick={"project": None, "resource_id": None},
)


SUPREMM = AggregateSpec(
    "supremm", "agg_supremm",
    (
        ("resource_id", C.INT),
        ("person_id", C.INT),
        ("app_id", C.INT),
        ("cpu_hours", C.FLOAT),
        *((f"{m}_weighted", C.FLOAT) for m in PERF_METRICS),
    ),
    ("resource_id", "person_id", "app_id"),
    (Source(
        "fact_job_perf",
        ("resource_id", "job_id", *(f"{m}_avg" for m in PERF_METRICS)),
        (at("end_ts", where=lambda c: c["cpu_hours"] > 0, cpu_hours="cpu_hours",
            **{f"{m}_weighted": lambda c, m=m: c[f"{m}_avg"] * c["cpu_hours"]
               for m in PERF_METRICS}),),
        # job ids are unique per resource only
        join=(("resource_id", "job_id"), "fact_job", ("resource_id", "job_id"),
              ("end_ts", "cpu_hours", "person_id", "app_id")),
    ),),
)

#: Every realm's aggregate; :meth:`Aggregator.aggregate_all` builds all but
#: :data:`ALLOCATIONS` (built on demand), in this order.
SPECS = (JOBS, STORAGE, CLOUD, SUPREMM, ALLOCATIONS)


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
                columns = build(spec, schema, self.config, period, since)
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

    def _all(self, verb: Callable[[AggregateSpec, str], int],
             periods: Sequence[str] | None) -> dict[str, int]:
        """``verb`` on the jobs, storage, cloud and SUPReMM tables of every
        period; SUPReMM's only over performance data, so no other schema gains it."""
        perf = self.schema.has_table(SUPREMM.fact_tables[0])
        return {
            f"{spec.prefix}_{period}": verb(spec, period)
            for period in periods or self.config.periods
            for spec in (JOBS, STORAGE, CLOUD, SUPREMM) if perf or spec is not SUPREMM
        }

    def aggregate_all(self, periods: Sequence[str] | None = None) -> dict[str, int]:
        """Rebuild the nightly tables for every configured period; rows written per table."""
        return self._all(self.rebuild, periods)

    def aggregate_all_incremental(
        self, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Fold every realm's newly ingested facts for every period.

        Returns facts-folded counts keyed like :meth:`aggregate_all`.
        """
        return self._all(self.fold, periods)

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
