"""The Allocations realm: grants, charges, burn rate.

The paper's Section III notes XDMoD supports "Jobs, Performance, and
Allocations data".  An allocation grants a project a budget of service
units on a resource over a validity window; jobs charge against it in
XD SUs.  This module provides the allocation store, the charge
reconciliation (joining ``fact_job`` to the covering allocation), and an
aggregate-table-backed realm with the metrics resource managers watch:
SUs granted / charged / remaining, and utilization of the grant.

Charges use the standardized XD SU column, so allocations on
differently-provisioned resources are directly comparable — the same
argument Section II-C6 makes for federation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

from ..aggregation import ALLOCATIONS, Aggregator
from ..etl.star import dimension_labels
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .base import DimensionSpec, Metric, Realm

C = ColumnType


@dataclass(frozen=True)
class Allocation:
    """One service-unit grant."""

    allocation_id: int
    project: str  # PI username / account the grant belongs to
    resource: str
    su_granted: float
    start_ts: int
    end_ts: int

    def active_at(self, ts: int) -> bool:
        return self.start_ts <= ts < self.end_ts


#: ``dim_allocation``'s columns: the :class:`Allocation` fields, in order
_ALLOCATION_FIELDS = tuple(f.name for f in fields(Allocation))


def allocation_schemas() -> list[TableSchema]:
    return [
        TableSchema(
            "dim_allocation",
            make_columns([
                ("allocation_id", C.INT, False),
                ("project", C.STR, False),
                ("resource", C.STR, False),
                ("su_granted", C.FLOAT, False),
                ("start_ts", C.TIMESTAMP, False),
                ("end_ts", C.TIMESTAMP, False),
            ]),
            primary_key=("allocation_id",),
        ),
        TableSchema(
            "fact_allocation_charge",
            make_columns([
                ("charge_id", C.INT, False),
                ("allocation_id", C.INT, False),
                ("job_id", C.INT, False),
                ("resource_id", C.INT, False),
                ("project", C.STR, False),
                ("end_ts", C.TIMESTAMP, False),
                ("xdsu_charged", C.FLOAT, False),
            ]),
            primary_key=("charge_id",),
        ),
    ]


def create_allocations_realm(schema: Schema) -> None:
    for table_schema in allocation_schemas():
        if not schema.has_table(table_schema.name):
            schema.create_table(table_schema)


def register_allocations(schema: Schema, allocations: Iterable[Allocation]) -> int:
    """Store allocation grants; returns count registered (upsert by id).

    All or nothing: every grant is checked before any is stored, so a
    grant with an empty validity window or a negative budget raises
    :class:`ValueError` and leaves ``dim_allocation`` as it was.
    """
    allocations = list(allocations)
    for allocation in allocations:
        if allocation.end_ts <= allocation.start_ts:
            raise ValueError(
                f"allocation {allocation.allocation_id}: empty validity window"
            )
        if allocation.su_granted < 0:
            raise ValueError(
                f"allocation {allocation.allocation_id}: negative grant"
            )
    create_allocations_realm(schema)
    return schema.table("dim_allocation").upsert_columns({
        name: [getattr(a, name) for a in allocations] for name in _ALLOCATION_FIELDS
    })


def reconcile_charges(schema: Schema) -> tuple[int, int]:
    """(Re)build ``fact_allocation_charge`` from ``fact_job``.

    A job charges the allocation whose (project == the job's PI, resource,
    window covering the job's end time) matches.  Returns
    ``(charged_jobs, uncovered_jobs)`` — uncovered jobs ran without an
    active allocation, a condition centers audit for.
    """
    create_allocations_realm(schema)
    charges = schema.table("fact_allocation_charge")
    charges.truncate()
    if not schema.has_table("fact_job"):
        return 0, 0

    resource_names = dimension_labels(schema, "dim_resource")
    pi_names = dimension_labels(schema, "dim_pi")
    by_key: dict[tuple[str, str], list[Allocation]] = {}
    for grant in schema.table("dim_allocation").columns_values(_ALLOCATION_FIELDS):
        allocation = Allocation(*grant)
        by_key.setdefault(
            (allocation.project, allocation.resource), []
        ).append(allocation)

    rows: list[tuple] = []
    uncovered = 0
    jobs = schema.table("fact_job").columns_values(
        ("job_id", "pi_id", "resource_id", "end_ts", "xdsu")
    )
    for job_id, pi_id, resource_id, end_ts, xdsu in jobs:
        project = pi_names.get(pi_id, "")
        resource = resource_names.get(resource_id, "")
        candidates = by_key.get((project, resource), ())
        match = next((a for a in candidates if a.active_at(end_ts)), None)
        if match is None:
            uncovered += 1
            continue
        rows.append(
            (len(rows) + 1, match.allocation_id, job_id, resource_id, project, end_ts, xdsu)
        )
    charges.upsert_rows(
        ("charge_id", "allocation_id", "job_id", "resource_id", "project", "end_ts",
         "xdsu_charged"),
        rows,
    )
    return len(rows), uncovered


def aggregate_allocations(schema: Schema, period: str) -> int:
    """Build ``agg_allocation_<period>`` from the charge facts.

    ``su_granted`` is apportioned across the allocation's validity window
    (pro-rated per period) so utilization-per-period is meaningful.  A
    rebuild of :data:`repro.aggregation.ALLOCATIONS`; returns rows written.
    """
    return Aggregator(schema).rebuild(ALLOCATIONS, period)


ALLOCATIONS_METRICS = (
    Metric("xdsu_charged", "XD SUs Charged", "XD SU", "xdsu_charged"),
    Metric("su_granted", "SUs Granted (pro-rated)", "XD SU", "su_granted"),
    Metric("n_jobs_charged", "Jobs Charged", "jobs", "n_jobs_charged"),
    Metric(
        "grant_utilization", "Allocation Utilization", "fraction",
        "xdsu_charged", denominator="su_granted",
    ),
)

ALLOCATIONS_DIMENSIONS = (
    DimensionSpec("project", "Project", "project"),
    DimensionSpec(
        "resource", "Resource", "resource_id",
        dim_table="dim_resource", dim_key="resource_id", dim_label="name",
    ),
    DimensionSpec("allocation", "Allocation", "allocation_id"),
)


def allocations_realm() -> Realm:
    """Construct the Allocations realm."""
    return Realm(
        ALLOCATIONS.realm, ALLOCATIONS.prefix,
        ALLOCATIONS_METRICS, ALLOCATIONS_DIMENSIONS,
    )


def allocation_balances(schema: Schema) -> list[dict]:
    """Point-in-time remaining balance per allocation (ops report)."""
    create_allocations_realm(schema)
    charged: dict[int, float] = {}
    charges = schema.table("fact_allocation_charge").columns_values(
        ("allocation_id", "xdsu_charged")
    )
    for allocation_id, xdsu_charged in charges:
        charged[allocation_id] = charged.get(allocation_id, 0.0) + xdsu_charged
    out = []
    grants = schema.table("dim_allocation").columns_values(
        ("allocation_id", "project", "resource", "su_granted")
    )
    for allocation_id, project, resource, su_granted in grants:
        used = charged.get(allocation_id, 0.0)
        out.append(
            {
                "allocation_id": allocation_id,
                "project": project,
                "resource": resource,
                "su_granted": su_granted,
                "xdsu_charged": used,
                "remaining": su_granted - used,
                "overspent": used > su_granted,
            }
        )
    out.sort(key=lambda r: r["allocation_id"])
    return out
