"""The HPC Jobs realm: aggregate usage metrics from accounting data.

"The HPC Jobs realm metrics, describing aggregate usage, consist of
measures that are gleaned largely from job accounting data" — job counts,
CPU hours, wall times, wait times, job sizes, and the standardized XD SU
charge (Figure 1 plots total XD SUs charged per resource).
"""

from __future__ import annotations

from ..aggregation import JOBS
from .base import DimensionSpec, Metric, Realm

JOBS_METRICS = (
    Metric("n_jobs_ended", "Number of Jobs Ended", "jobs", "n_jobs_ended"),
    Metric("n_jobs_started", "Number of Jobs Started", "jobs", "n_jobs_started"),
    Metric("cpu_hours", "CPU Hours: Total", "CPU hours", "cpu_hours"),
    Metric("node_hours", "Node Hours: Total", "node hours", "node_hours"),
    Metric("xdsu", "XD SUs Charged: Total", "XD SU", "xdsu"),
    Metric("wall_hours", "Wall Hours: Total", "hours", "wall_hours"),
    Metric(
        "avg_cpu_hours", "CPU Hours: Per Job", "CPU hours",
        "cpu_hours", denominator="n_jobs_ended",
    ),
    Metric(
        "avg_wall_hours", "Wall Hours: Per Job", "hours",
        "wall_hours", denominator="n_jobs_ended",
    ),
    Metric(
        "avg_wait_hours", "Wait Hours: Per Job", "hours",
        "wait_hours", denominator="n_jobs_started",
    ),
    Metric(
        "avg_job_size", "Job Size: Per Job (weighted by wall hours)", "cores",
        "cpu_hours", denominator="wall_hours",
    ),
)

JOBS_DIMENSIONS = (
    DimensionSpec(
        "resource", "Resource", "resource_id",
        dim_table="dim_resource", dim_key="resource_id", dim_label="name",
    ),
    DimensionSpec(
        "person", "User", "person_id",
        dim_table="dim_person", dim_key="person_id", dim_label="username",
        qualify=True,
    ),
    DimensionSpec(
        "pi", "PI", "pi_id",
        dim_table="dim_pi", dim_key="pi_id", dim_label="username",
        qualify=True,
    ),
    DimensionSpec(
        "application", "Application", "app_id",
        dim_table="dim_application", dim_key="app_id", dim_label="name",
    ),
    # institutional hierarchy (Open XDMoD's hierarchy.json) and science
    # field drill-downs resolve through the same star joins
    DimensionSpec(
        "decanal_unit", "Decanal Unit", "person_id",
        dim_table="dim_person", dim_key="person_id", dim_label="decanal_unit",
    ),
    DimensionSpec(
        "department", "Department", "person_id",
        dim_table="dim_person", dim_key="person_id", dim_label="department",
    ),
    DimensionSpec(
        "science_field", "Field of Science", "app_id",
        dim_table="dim_application", dim_key="app_id", dim_label="science_field",
    ),
    DimensionSpec(
        "gateway", "Science Gateway", "person_id",
        dim_table="dim_person", dim_key="person_id", dim_label="gateway_label",
    ),
    DimensionSpec(
        "queue", "Queue", "queue_id",
        dim_table="dim_queue", dim_key="queue_id", dim_label="name",
    ),
    DimensionSpec("walltime_level", "Job Wall Time", "walltime_level"),
    DimensionSpec("jobsize_level", "Job Size (cores)", "jobsize_level"),
)


def jobs_realm() -> Realm:
    """Construct the HPC Jobs realm."""
    return Realm(JOBS.realm, JOBS.prefix, JOBS_METRICS, JOBS_DIMENSIONS)
