"""The Storage realm (Section III-A, in development in the paper).

"The storage realm will assist centers in tracking storage utilization,
user quota utilization, and eventually, storage performance and metadata
measures as well."  Initial metrics: file count, logical and physical
usage, hard and soft quota thresholds, logical quota utilization, and user
count.  Dimensions: resource (filesystem), mountpoint, resource type,
user, PI, and system username.

Figure 6 charts monthly file count and physical storage usage.
"""

from __future__ import annotations

from ..aggregation import STORAGE
from .base import DimensionSpec, Metric, Realm

STORAGE_METRICS = (
    Metric("file_count", "File Count", "files", "avg_file_count"),
    Metric("logical_usage_gb", "Logical Usage", "GB", "avg_logical_gb"),
    Metric("physical_usage_gb", "Physical Usage", "GB", "avg_physical_gb"),
    Metric("logical_usage_tb", "Logical Usage", "TB", "avg_logical_gb", scale=1e-3),
    Metric("physical_usage_tb", "Physical Usage", "TB", "avg_physical_gb", scale=1e-3),
    Metric(
        "quota_utilization", "Logical Quota Utilization", "fraction",
        "sum_quota_utilization", denominator="n_quota_samples",
    ),
    Metric("user_count", "User Count", "users", "user_count"),
    Metric("soft_quota_gb", "Soft Quota Threshold", "GB", "avg_soft_quota_gb"),
    Metric("hard_quota_gb", "Hard Quota Threshold", "GB", "avg_hard_quota_gb"),
)

STORAGE_DIMENSIONS = (
    DimensionSpec(
        "resource", "Resource", "resource_id",
        dim_table="dim_resource", dim_key="resource_id", dim_label="name",
    ),
    DimensionSpec("filesystem", "Filesystem", "filesystem"),
    DimensionSpec("resource_type", "Resource Type", "resource_type"),
)


def storage_realm() -> Realm:
    """Construct the Storage realm."""
    return Realm(STORAGE.realm, STORAGE.prefix, STORAGE_METRICS, STORAGE_DIMENSIONS)
