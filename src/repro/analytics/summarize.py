"""SUPReMM-style job summarization: timeseries -> statistics -> score.

The paper's Job Viewer story stops at per-member drill-down of the raw
nine-metric timeseries; MPCDF-style monitoring (PAPERS.md) goes one step
further and derives *job-level insight* from them — roofline position,
"memory-bound" tags, efficiency classification.  This module is that
summarization stage: it folds each job's node timeseries
(``job_timeseries``) into

- per-job statistics (means, p05/p95 quantiles, temporal imbalance),
- categorical tags (``memory-bound``, ``idle-tail``, ``io-heavy``,
  ``low-cpu``), and
- a 0–1 efficiency score,

persisted in the ``fact_job_analytics`` fact table.  The fact table is
resource-scoped and replicates through the federation's SUPReMM summary
filter (:func:`repro.core.supremm_summary_filter`), so the hub can rank
jobs federation-wide while the storage-intensive raw series stay on the
satellite (Section II-C5).  All writes go through
:meth:`~repro.warehouse.engine.Table.upsert_columns`, so re-summarizing a
window is idempotent and every mutation bumps ``Schema.data_version`` —
the serving cache's invalidation stamp stays correct for free.

Scoring formula (documented in docs/observability.md):

``score = clamp01(cpu_term * (1 - idle_tail_frac) * (0.35 + 0.65 * intensity_ratio))``

where ``cpu_term`` is the mean ``cpu_user`` relative to the application
profile's expected CPU fraction (clamped to 1), ``idle_tail_frac`` is the
trailing fraction of samples with ``cpu_user`` below the idle threshold,
and ``intensity_ratio`` is the measured arithmetic intensity
(FLOPS per unit memory bandwidth) relative to the application's expected
per-core intensity, clamped to 1.  A healthy job scores near 1; an
idle-tail job loses its tail factor and a cache-thrashing job loses most
of the intensity factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..etl.star import DimensionCache, dimension_labels, land
from ..obs import Observability
from ..obs.anomaly import SCORE_SERIES
from ..simulators.workload import DEFAULT_APPLICATIONS, ApplicationProfile
from ..warehouse import ColumnType, Schema, TableSchema, make_columns

C = ColumnType

__all__ = [
    "ANALYTICS_TABLE",
    "JobSummary",
    "analytics_fact_schema",
    "create_analytics_table",
    "ingest_summaries",
    "job_scores",
    "summarize_schema",
    "summarize_series",
]

#: The analytics fact table extending the SUPReMM realm.
ANALYTICS_TABLE = "fact_job_analytics"

#: ``cpu_user`` below this fraction counts as an idle sample.
IDLE_CPU_THRESHOLD = 0.15
#: Trailing idle fraction at or above this earns the ``idle-tail`` tag.
IDLE_TAIL_TAG_FRACTION = 0.2
#: Normalized intensity ratio below this earns ``memory-bound``.
MEMORY_BOUND_RATIO = 0.5
#: Combined read+write I/O average (MB/s) at or above this earns
#: ``io-heavy``.
IO_HEAVY_MBS = 200.0
#: ``cpu_term`` below this earns ``low-cpu``.
LOW_CPU_RATIO = 0.5
#: The simulator's nominal per-node memory bandwidth scale (GB/s at
#: ``mem_fraction == 1``); anchors the expected arithmetic intensity.
NOMINAL_MEM_BW_GBS = 40.0
#: Headroom multiplier on the expected per-core intensity: any node
#: running at least ~4 busy cores clears it, so nominal jobs saturate
#: the ratio at 1.0 regardless of application.
INTENSITY_HEADROOM = 4.0

_APP_INDEX: Mapping[str, ApplicationProfile] = {
    app.name: app for app in DEFAULT_APPLICATIONS
}


def _profile_for(application: str) -> ApplicationProfile:
    return _APP_INDEX.get(application, _APP_INDEX["uncategorized"])


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@dataclass(frozen=True)
class JobSummary:
    """The summarized form of one job's performance timeseries."""

    job_id: int
    resource: str
    application: str
    efficiency_score: float
    tags: tuple[str, ...]
    cpu_user_avg: float
    cpu_user_p05: float
    cpu_user_p95: float
    cpu_imbalance: float
    idle_tail_frac: float
    mem_used_avg_gb: float
    mem_bw_avg_gbs: float
    flops_avg_gf: float
    io_avg_mbs: float
    intensity_ratio: float
    n_samples: int

    def row(self, resource_id: int) -> dict:
        """The ``fact_job_analytics`` row for this summary."""
        return {
            "job_id": self.job_id,
            "resource_id": resource_id,
            "application": self.application,
            "efficiency_score": self.efficiency_score,
            "tags": ",".join(self.tags),
            "cpu_user_avg": self.cpu_user_avg,
            "cpu_user_p05": self.cpu_user_p05,
            "cpu_user_p95": self.cpu_user_p95,
            "cpu_imbalance": self.cpu_imbalance,
            "idle_tail_frac": self.idle_tail_frac,
            "mem_used_avg_gb": self.mem_used_avg_gb,
            "mem_bw_avg_gbs": self.mem_bw_avg_gbs,
            "flops_avg_gf": self.flops_avg_gf,
            "io_avg_mbs": self.io_avg_mbs,
            "intensity_ratio": self.intensity_ratio,
            "n_samples": self.n_samples,
        }


def analytics_fact_schema() -> TableSchema:
    return TableSchema(
        ANALYTICS_TABLE,
        make_columns([
            ("job_id", C.INT, False),
            ("resource_id", C.INT, False),
            ("application", C.STR, False),
            ("efficiency_score", C.FLOAT, False),
            ("tags", C.STR, False),  # comma-joined; "" means untagged
            ("cpu_user_avg", C.FLOAT, False),
            ("cpu_user_p05", C.FLOAT, False),
            ("cpu_user_p95", C.FLOAT, False),
            ("cpu_imbalance", C.FLOAT, False),
            ("idle_tail_frac", C.FLOAT, False),
            ("mem_used_avg_gb", C.FLOAT, False),
            ("mem_bw_avg_gbs", C.FLOAT, False),
            ("flops_avg_gf", C.FLOAT, False),
            ("io_avg_mbs", C.FLOAT, False),
            ("intensity_ratio", C.FLOAT, False),
            ("n_samples", C.INT, False),
        ]),
        primary_key=("resource_id", "job_id"),
    )


def create_analytics_table(schema: Schema) -> None:
    if not schema.has_table(ANALYTICS_TABLE):
        schema.create_table(analytics_fact_schema())


def summarize_series(
    job_id: int,
    resource: str,
    application: str,
    series: Mapping[str, Sequence[float]],
) -> JobSummary:
    """Fold one job's nine-metric timeseries into a :class:`JobSummary`.

    Pure and deterministic: the same series always produce the same
    statistics, tags and score.
    """
    cpu = [float(v) for v in series.get("cpu_user", ())]
    n = len(cpu)
    app = _profile_for(application)

    cpu_avg = _mean(cpu)
    cpu_sorted = sorted(cpu)
    cpu_p05 = _quantile(cpu_sorted, 0.05)
    cpu_p95 = _quantile(cpu_sorted, 0.95)
    if cpu_avg > 0.0 and n > 1:
        variance = sum((v - cpu_avg) ** 2 for v in cpu) / n
        cpu_imbalance = math.sqrt(variance) / cpu_avg
    else:
        cpu_imbalance = 0.0

    idle_tail = 0
    for value in reversed(cpu):
        if value >= IDLE_CPU_THRESHOLD:
            break
        idle_tail += 1
    idle_tail_frac = idle_tail / n if n else 0.0

    mem_used_avg = _mean(series.get("mem_used_gb", ()))
    mem_bw_avg = _mean(series.get("mem_bw_gbs", ()))
    flops_avg = _mean(series.get("flops_gf", ()))
    io_avg = _mean(series.get("io_read_mbs", ())) + _mean(
        series.get("io_write_mbs", ())
    )

    # measured arithmetic intensity vs. the application's expected
    # per-core intensity (with INTENSITY_HEADROOM cores of headroom)
    expected = app.flops_per_core / max(
        app.mem_fraction * NOMINAL_MEM_BW_GBS, 1e-9
    )
    measured = flops_avg / max(mem_bw_avg, 1e-9)
    intensity_ratio = _clamp01(measured / (INTENSITY_HEADROOM * expected))

    cpu_term = _clamp01(cpu_avg / max(app.cpu_fraction, 1e-9))
    score = _clamp01(
        cpu_term * (1.0 - idle_tail_frac) * (0.35 + 0.65 * intensity_ratio)
    )

    tags: list[str] = []
    if intensity_ratio < MEMORY_BOUND_RATIO:
        tags.append("memory-bound")
    if idle_tail_frac >= IDLE_TAIL_TAG_FRACTION:
        tags.append("idle-tail")
    if io_avg >= IO_HEAVY_MBS:
        tags.append("io-heavy")
    if cpu_term < LOW_CPU_RATIO:
        tags.append("low-cpu")

    return JobSummary(
        job_id=job_id,
        resource=resource,
        application=application,
        efficiency_score=score,
        tags=tuple(tags),
        cpu_user_avg=cpu_avg,
        cpu_user_p05=cpu_p05,
        cpu_user_p95=cpu_p95,
        cpu_imbalance=cpu_imbalance,
        idle_tail_frac=idle_tail_frac,
        mem_used_avg_gb=mem_used_avg,
        mem_bw_avg_gbs=mem_bw_avg,
        flops_avg_gf=flops_avg,
        io_avg_mbs=io_avg,
        intensity_ratio=intensity_ratio,
        n_samples=n,
    )


def ingest_summaries(schema: Schema, summaries: Iterable[JobSummary]) -> int:
    """Upsert summaries into ``fact_job_analytics``; returns rows written."""
    create_analytics_table(schema)
    dims = DimensionCache(schema)
    rows = [summary.row(dims.resource_id(summary.resource)) for summary in summaries]
    land(dims.stage((schema.table(ANALYTICS_TABLE), rows)))
    return len(rows)


def summarize_schema(
    schema: Schema,
    *,
    obs: Observability | None = None,
    member: str = "",
) -> int:
    """Summarize every job with stored timeseries in one instance schema.

    The satellite-side analytics stage: joins ``job_timeseries`` to
    ``fact_job`` (composite ``(resource_id, job_id)`` key — job ids are
    only unique per resource), resolves the application dimension, and
    upserts one ``fact_job_analytics`` row per job.  With an
    observability bundle, bumps ``analytics_jobs_summarized_total`` and
    feeds each score into the metrics history under
    :data:`SCORE_SERIES` for the anomaly detector's baselines.
    """
    if not schema.has_table("job_timeseries"):
        return 0
    resources = dimension_labels(schema, "dim_resource")
    applications = dimension_labels(schema, "dim_application")
    fact_job = schema.table("fact_job")
    counter = None
    if obs is not None:
        counter = obs.registry.counter(
            "analytics_jobs_summarized_total",
            "Jobs folded into fact_job_analytics summaries",
            ("member",),
        ).labels(member=member or schema.name)
    summaries: list[JobSummary] = []
    for resource_id, job_id, series in schema.table("job_timeseries").columns_values(
        ("resource_id", "job_id", "series")
    ):
        job = fact_job.get((resource_id, job_id))
        application = (
            applications.get(job["app_id"], "uncategorized")
            if job is not None else "uncategorized"
        )
        summary = summarize_series(
            job_id, resources.get(resource_id, str(resource_id)), application, series
        )
        summaries.append(summary)
        if counter is not None:
            counter.inc()
        if obs is not None:
            obs.history.observe(
                SCORE_SERIES,
                summary.efficiency_score,
                member=member or schema.name,
                app=summary.application,
            )
    return ingest_summaries(schema, summaries)


def job_scores(
    sources: Schema | Mapping[str, Schema],
    *,
    start: int | None = None,
    end: int | None = None,
    application: str | None = None,
    member: str | None = None,
) -> list[dict]:
    """Per-job efficiency rows, ranked least efficient first.

    Reads the :data:`ANALYTICS_TABLE` this stage maintains, joined to
    ``fact_job`` for the time filter (``start <= end_ts < end``).  Against
    a federated source mapping this is the "least efficient jobs
    federation-wide" view: one ranked list across every member, each row
    carrying the member name (``"local"`` for a bare schema).  Ties rank
    deterministically (score, member, resource, job id).
    """
    source_map = {"local": sources} if isinstance(sources, Schema) else sources
    rows: list[dict] = []
    for name, schema in sorted(source_map.items()):
        if member is not None and name != member:
            continue
        if not schema.has_table(ANALYTICS_TABLE):
            continue
        fact_job = schema.table("fact_job")
        resources = dimension_labels(schema, "dim_resource")
        for (
            resource_id, job_id, app, score, tags, cpu_user_avg,
            idle_tail_frac, intensity_ratio, n_samples,
        ) in schema.table(ANALYTICS_TABLE).columns_values((
            "resource_id", "job_id", "application", "efficiency_score", "tags",
            "cpu_user_avg", "idle_tail_frac", "intensity_ratio", "n_samples",
        )):
            if application is not None and app != application:
                continue
            job = fact_job.get((resource_id, job_id))
            end_ts = job["end_ts"] if job is not None else None
            if start is not None or end is not None:
                if end_ts is None:
                    continue
                if start is not None and end_ts < start:
                    continue
                if end is not None and end_ts >= end:
                    continue
            rows.append(
                {
                    "member": name,
                    "resource": resources.get(resource_id, str(resource_id)),
                    "job_id": job_id,
                    "application": app,
                    "score": score,
                    "tags": [t for t in tags.split(",") if t],
                    "end_ts": end_ts,
                    "cpu_user_avg": cpu_user_avg,
                    "idle_tail_frac": idle_tail_frac,
                    "intensity_ratio": intensity_ratio,
                    "n_samples": n_samples,
                }
            )
    rows.sort(key=lambda r: (r["score"], r["member"], r["resource"], r["job_id"]))
    return rows
