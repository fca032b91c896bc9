"""The Job Viewer: per-job accounting, performance timeseries, job script.

"With XDMoD's Job Viewer, users can probe performance data about a job's
executable, its accounting data, job scripts, application, and timeseries
plots of metrics such as CPU user, flops, parallel file system usage, and
memory usage."  Access is ACL-scoped: users see their own jobs, PIs their
group's, center staff everything (:func:`repro.auth.job_viewer_allowed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..auth.accounts import AuthError, Session, job_viewer_allowed
from ..etl.star import dimension_labels
from ..timeutil import iso
from ..warehouse import Schema


class JobNotFoundError(LookupError):
    """No such job in this instance's warehouse."""


@dataclass(frozen=True)
class JobDetail:
    """Everything the Job Viewer shows for one job."""

    accounting: Mapping[str, Any]
    performance_summary: Mapping[str, float] | None
    timeseries: Mapping[str, list[float]] | None
    timeseries_interval_s: int | None
    job_script: str | None

    @property
    def has_performance(self) -> bool:
        return self.performance_summary is not None


class JobViewer:
    """Per-job detail lookups over one instance schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def _resource_id(self, resource: str) -> int:
        for resource_id, name in dimension_labels(self.schema, "dim_resource").items():
            if name == resource:
                return resource_id
        raise JobNotFoundError(f"unknown resource {resource!r}")

    def _labels(self) -> dict[str, dict[int, str]]:
        return {
            table: dimension_labels(self.schema, table)
            for table in ("dim_person", "dim_pi", "dim_application", "dim_queue", "dim_resource")
        }

    def fetch(
        self,
        resource: str,
        job_id: int,
        *,
        session: Session | None = None,
    ) -> JobDetail:
        """Fetch one job's full detail, enforcing the viewer ACL.

        Without a session the call is administrative (tests, exports).
        """
        resource_id = self._resource_id(resource)
        fact = self.schema.table("fact_job").get((resource_id, job_id))
        if fact is None:
            raise JobNotFoundError(f"no job {job_id} on {resource!r}")
        labels = self._labels()
        owner = labels["dim_person"].get(fact["person_id"], "?")
        pi = labels["dim_pi"].get(fact["pi_id"], "?")
        if session is not None and not job_viewer_allowed(
            session, job_owner=owner, job_pi=pi
        ):
            raise AuthError(
                f"{session.username!r} may not view job {job_id} on {resource!r}"
            )
        accounting = {
            "job_id": fact["job_id"],
            "resource": resource,
            "user": owner,
            "pi": pi,
            "application": labels["dim_application"].get(fact["app_id"], "?"),
            "queue": labels["dim_queue"].get(fact["queue_id"], "?"),
            "submit": iso(fact["submit_ts"]),
            "start": iso(fact["start_ts"]),
            "end": iso(fact["end_ts"]),
            "nodes": fact["nodes"],
            "cores": fact["cores"],
            "walltime_s": fact["walltime_s"],
            "wait_s": fact["wait_s"],
            "cpu_hours": fact["cpu_hours"],
            "xdsu": fact["xdsu"],
            "state": fact["state"],
            "exit_code": fact["exit_code"],
        }
        summary = None
        series = None
        interval = None
        script = None
        if self.schema.has_table("fact_job_perf"):
            perf = self.schema.table("fact_job_perf").get((resource_id, job_id))
            if perf is not None:
                summary = {
                    k: v for k, v in perf.items()
                    if k not in ("job_id", "resource_id")
                }
        if self.schema.has_table("job_timeseries"):
            ts_row = self.schema.table("job_timeseries").get((resource_id, job_id))
            if ts_row is not None:
                series = ts_row["series"]
                interval = ts_row["interval_s"]
                script = ts_row["job_script"]
        return JobDetail(
            accounting=accounting,
            performance_summary=summary,
            timeseries=series,
            timeseries_interval_s=interval,
            job_script=script,
        )

    def search(
        self,
        *,
        user: str | None = None,
        resource: str | None = None,
        state: str | None = None,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """Find jobs by user/resource/state (the viewer's search box)."""
        labels = self._labels()
        person_ids = None
        if user is not None:
            person_ids = {
                pid for pid, name in labels["dim_person"].items() if name == user
            }
        resource_ids = None
        if resource is not None:
            resource_ids = {
                rid for rid, name in labels["dim_resource"].items()
                if name == resource
            }
        out = []
        facts = self.schema.table("fact_job").columns_values((
            "job_id", "person_id", "resource_id", "state", "end_ts", "cpu_hours",
        ))
        for job_id, person_id, resource_id, job_state, end_ts, cpu_hours in facts:
            if person_ids is not None and person_id not in person_ids:
                continue
            if resource_ids is not None and resource_id not in resource_ids:
                continue
            if state is not None and job_state != state:
                continue
            out.append(
                {
                    "job_id": job_id,
                    "resource": labels["dim_resource"].get(resource_id),
                    "user": labels["dim_person"].get(person_id),
                    "state": job_state,
                    "end": iso(end_ts),
                    "cpu_hours": cpu_hours,
                }
            )
            if len(out) >= limit:
                break
        return out
