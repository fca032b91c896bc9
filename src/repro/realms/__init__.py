"""Data realms: Jobs, SUPReMM (performance), Storage, and Cloud.

Construct a realm with its factory and query it against one schema (a
single instance) or a mapping of instance-name -> schema (a federation
hub's replicated schemas)::

    realm = jobs_realm()
    result = realm.query(
        hub.federated_schemas(), "xdsu",
        start=t0, end=t1, period="month", group_by="resource",
    )
    result.top(3)   # Figure 1's ranking
"""

from .allocations import (
    ALLOCATIONS_DIMENSIONS,
    ALLOCATIONS_METRICS,
    Allocation,
    aggregate_allocations,
    allocation_balances,
    allocations_realm,
    create_allocations_realm,
    reconcile_charges,
    register_allocations,
)
from .base import (
    DimensionSpec,
    Metric,
    Realm,
    RealmQueryError,
    RealmResult,
    ResultRow,
)
from .cloud import CLOUD_DIMENSIONS, CLOUD_METRICS, cloud_realm
from .jobs import JOBS_DIMENSIONS, JOBS_METRICS, jobs_realm
from .storage import STORAGE_DIMENSIONS, STORAGE_METRICS, storage_realm
from .supremm import SUPREMM_METRIC_NAMES, SupremmRealm, supremm_realm

__all__ = [
    "ALLOCATIONS_DIMENSIONS",
    "ALLOCATIONS_METRICS",
    "Allocation",
    "aggregate_allocations",
    "allocation_balances",
    "allocations_realm",
    "create_allocations_realm",
    "reconcile_charges",
    "register_allocations",
    "CLOUD_DIMENSIONS",
    "CLOUD_METRICS",
    "DimensionSpec",
    "JOBS_DIMENSIONS",
    "JOBS_METRICS",
    "Metric",
    "Realm",
    "RealmQueryError",
    "RealmResult",
    "ResultRow",
    "STORAGE_DIMENSIONS",
    "STORAGE_METRICS",
    "SUPREMM_METRIC_NAMES",
    "SupremmRealm",
    "cloud_realm",
    "jobs_realm",
    "storage_realm",
    "supremm_realm",
]
