"""The SUPReMM (job performance) realm.

"The SUPReMM realm, meanwhile, contributes metrics describing individual
job-level performance data, such as total memory, CPU usage, memory
bandwidth, I/O bandwidth, block read and block write rates.  These
performance data are collected from system hardware counters, then
aggregated by XDMoD."

Unlike the accounting realms, SUPReMM queries run against the per-job fact
table (``fact_job_perf``) joined to ``fact_job`` — performance averages
are weighted by each job's CPU time, matching XDMoD's core-hour-weighted
statistics.  Note this realm is *not* federated in the initial release
(Section II-C5); :meth:`SupremmRealm.query` over a mapping of sources
implements the paper's planned subsequent release, answering over hubs
whose channels use :func:`repro.core.supremm_summary_filter` (summaries
only — the raw timeseries never replicate).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.identity import IdentityMap
from ..simulators.perf import PERF_METRICS
from ..timeutil import period_label, period_start
from ..warehouse import Schema
from .base import Metric, Realm, RealmQueryError, RealmResult, ResultRow, check_query
from .jobs import JOBS_DIMENSIONS

#: Chartable SUPReMM statistics: core-hour-weighted averages of the
#: per-job average for each hardware-counter metric.
SUPREMM_METRIC_NAMES = tuple(f"avg_{m}" for m in PERF_METRICS)


class SupremmRealm(Realm):
    """Fact-level performance queries for one XDMoD instance."""

    def __init__(self) -> None:
        super().__init__(
            "supremm", None,
            [
                Metric(
                    name,
                    f"Avg {name[4:].replace('_', ' ')} (core-hour weighted)",
                    "",
                    name,
                )
                for name in SUPREMM_METRIC_NAMES
            ],
            [
                spec for spec in JOBS_DIMENSIONS
                if spec.name in ("resource", "application", "person")
            ],
        )

    def query(
        self,
        sources: Schema | Mapping[str, Schema],
        metric: str,
        *,
        start: int,
        end: int,
        period: str = "month",
        group_by: str | None = None,
        filters: Mapping[str, Iterable[str]] | None = None,
        view: str = "timeseries",
        idmap: IdentityMap | None = None,
    ) -> RealmResult:
        """Core-hour-weighted average of a per-job performance statistic.

        Over a mapping of sources — the II-C5 next release — per-schema
        weighted sums merge their numerators and denominators *before* the
        division, so federation-wide averages remain exactly
        core-hour-weighted, never averages of averages.  Takes
        :meth:`Realm.query`'s arguments; filters, the aggregate view and
        an identity map raise :class:`RealmQueryError`.
        """
        check_query(start, end, period, view)
        m = self.metric(metric)
        gspec = self.dimension(group_by) if group_by else None
        if filters or view != "timeseries" or idmap is not None:
            raise RealmQueryError(
                "supremm: a timeseries only, with no filters or identity map"
            )
        if isinstance(sources, Schema):
            sources = {"local": sources}
        column = f"{metric[4:]}_avg"  # strip avg_ -> summary column prefix
        acc: dict[tuple[str, int], list[float]] = {}  # (num, den) per cell
        for schema in sources.values():
            if not schema.has_table("fact_job_perf"):
                continue
            # composite-key join: job ids are only unique per resource
            jobs_by_key = {
                (r["resource_id"], r["job_id"]): r
                for r in schema.table("fact_job").rows()
            }
            labels = {
                r[gspec.dim_key]: r[gspec.dim_label]
                for r in schema.table(gspec.dim_table).rows()
            } if gspec else {}
            for perf in schema.table("fact_job_perf").rows():
                job = jobs_by_key.get((perf["resource_id"], perf["job_id"]))
                if job is None or not (start <= job["end_ts"] < end):
                    continue
                weight = job["cpu_hours"] or 0.0
                if weight <= 0:
                    continue
                key = job[gspec.column] if gspec else None
                group = str(labels.get(key, key)) if gspec else self.TOTAL
                entry = acc.setdefault((group, period_start(period, job["end_ts"])), [0.0, 0.0])
                entry[0] += perf[column] * weight
                entry[1] += weight
        result = RealmResult(metric=m, dimension=group_by)
        for (group, p), (num, den) in sorted(acc.items()):
            result.rows.append(
                ResultRow(group, p, period_label(period, p), num / den if den else None)
            )
        return result

    # -- job-level analytics (fact_job_analytics) ----------------------------

    def job_scores(
        self,
        sources: Schema | Mapping[str, Schema],
        *,
        start: int | None = None,
        end: int | None = None,
        application: str | None = None,
        member: str | None = None,
    ) -> list[dict]:
        """Per-job efficiency rows, ranked least efficient first.

        Reads the ``fact_job_analytics`` table the summarization stage
        (:mod:`repro.analytics.summarize`) maintains, joined to
        ``fact_job`` for the time filter.  Against a federated source
        mapping this is the "least efficient jobs federation-wide" view:
        one ranked list across every member, each row carrying the member
        name.  Ties rank deterministically (score, member, resource,
        job id).
        """
        source_map = (
            {"local": sources} if isinstance(sources, Schema) else sources
        )
        rows: list[dict] = []
        for name, schema in sorted(source_map.items()):
            if member is not None and name != member:
                continue
            if not schema.has_table("fact_job_analytics"):
                continue
            jobs_by_key = {
                (r["resource_id"], r["job_id"]): r
                for r in schema.table("fact_job").rows()
            }
            resources = {
                r["resource_id"]: r["name"]
                for r in schema.table("dim_resource").rows()
            }
            for fact in schema.table("fact_job_analytics").rows():
                if application is not None and fact["application"] != application:
                    continue
                job = jobs_by_key.get((fact["resource_id"], fact["job_id"]))
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
                        "resource": resources.get(
                            fact["resource_id"], str(fact["resource_id"])
                        ),
                        "job_id": fact["job_id"],
                        "application": fact["application"],
                        "score": fact["efficiency_score"],
                        "tags": [t for t in fact["tags"].split(",") if t],
                        "end_ts": end_ts,
                        "cpu_user_avg": fact["cpu_user_avg"],
                        "idle_tail_frac": fact["idle_tail_frac"],
                        "intensity_ratio": fact["intensity_ratio"],
                        "n_samples": fact["n_samples"],
                    }
                )
        rows.sort(
            key=lambda r: (r["score"], r["member"], r["resource"], r["job_id"])
        )
        return rows

    def query_efficiency(
        self,
        sources: Schema | Mapping[str, Schema],
        *,
        start: int | None = None,
        end: int | None = None,
        limit: int | None = None,
        application: str | None = None,
        member: str | None = None,
    ) -> list[dict]:
        """The worst-first efficiency ranking (optionally truncated)."""
        rows = self.job_scores(
            sources, start=start, end=end,
            application=application, member=member,
        )
        return rows if limit is None else rows[:limit]


def supremm_realm() -> SupremmRealm:
    """Construct the SUPReMM realm."""
    return SupremmRealm()
