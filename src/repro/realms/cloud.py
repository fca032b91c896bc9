"""The Cloud realm (Section III-B, in development in the paper).

Initial metrics "acknowledge the contrasts with traditional HPC": average
cores per VM; average cores/disk/memory reserved (weighted by wall hours);
core or wall hours total; cores total; number of VMs ended, running, or
started.  Dimensions include instance type, project, resource, user, and
VM size by cores or memory.

Figure 7 charts **average core hours per VM, by VM memory size** with bins
<1 GB, 1-2 GB, 2-4 GB, 4-8 GB.
"""

from __future__ import annotations

from ..aggregation import CLOUD
from .base import DimensionSpec, Metric, Realm

CLOUD_METRICS = (
    Metric("core_hours", "Core Hours: Total", "core hours", "core_hours"),
    Metric("wall_hours", "Wall Hours: Total", "hours", "wall_hours"),
    Metric("cores_total", "Cores: Total", "cores", "total_cores"),
    Metric("n_vms_started", "Number of VMs Started", "VMs", "n_vms_started"),
    Metric("n_vms_ended", "Number of VMs Ended", "VMs", "n_vms_ended"),
    Metric("n_vms_running", "Number of VMs Running", "VMs", "n_vms_active"),
    Metric(
        "avg_core_hours_per_vm", "Average Core Hours per VM", "core hours",
        "core_hours", denominator="n_vms_active",
    ),
    Metric(
        "avg_cores_per_vm", "Average Cores per VM (weighted by wall hours)",
        "cores", "core_hours", denominator="wall_hours",
    ),
    Metric(
        "avg_wall_hours_per_vm", "Average Wall Hours per VM", "hours",
        "wall_hours", denominator="n_vms_active",
    ),
    Metric(
        "avg_mem_reserved_gb",
        "Average Memory Reserved (weighted by wall hours)", "GB",
        "mem_gb_hours", denominator="wall_hours",
    ),
    Metric(
        "avg_disk_reserved_gb",
        "Average Disk Reserved (weighted by wall hours)", "GB",
        "disk_gb_hours", denominator="wall_hours",
    ),
    # measures the paper lists as "considered for addition in subsequent
    # releases": VM events / state changes and time spent per state
    Metric("n_state_changes", "Count of State Changes", "changes",
           "n_state_changes"),
    Metric("stopped_hours", "Time Spent Stopped", "hours", "stopped_hours"),
    Metric("paused_hours", "Time Spent Paused", "hours", "paused_hours"),
)

CLOUD_DIMENSIONS = (
    DimensionSpec(
        "resource", "Resource", "resource_id",
        dim_table="dim_resource", dim_key="resource_id", dim_label="name",
    ),
    DimensionSpec("project", "Project", "project"),
    DimensionSpec("memory_level", "VM Size: Memory", "memory_level"),
    DimensionSpec("os", "Operating System", "os"),
    DimensionSpec("submission_venue", "Submission Venue", "submission_venue"),
)


def cloud_realm() -> Realm:
    """Construct the Cloud realm."""
    return Realm(CLOUD.realm, CLOUD.prefix, CLOUD_METRICS, CLOUD_DIMENSIONS)
