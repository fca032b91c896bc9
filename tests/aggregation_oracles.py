"""Pure-Python reference builders for the four aggregate realms.

The per-row, dict-bucketing implementations the columnar builders in
:mod:`repro.aggregation.columnar` replaced.  They are the oracle the
property tests (``tests/test_columnar_aggregation.py``,
``tests/test_aggregate_specs.py``) and benches A10 / A3 compare the
shipped fold against row-for-row: each rebuilds ``agg_<realm>_<period>``
from scratch by walking every fact as a dict.
"""

from __future__ import annotations

from repro.aggregation import (
    ALLOCATIONS,
    CLOUD,
    JOBS,
    STORAGE,
    AggregationConfig,
)
from repro.timeutil import (
    SECONDS_PER_HOUR,
    overlap_seconds,
    period_label,
    period_range,
    period_start,
)
from repro.warehouse import Schema, TableSchema


def _replace_table(schema: Schema, table_schema: TableSchema) -> None:
    if schema.has_table(table_schema.name):
        schema.drop_table(table_schema.name)
    schema.create_table(table_schema)


def aggregate_jobs_oracle(
    schema: Schema, config: AggregationConfig, period: str
) -> int:
    """Pure-Python reference rebuild of ``agg_job_<period>``."""
    _replace_table(schema, JOBS.table_schema(period))
    if not schema.has_table("fact_job"):
        return 0
    agg = schema.table(f"agg_job_{period}")
    buckets: dict[tuple, dict[str, float]] = {}

    def bucket(key: tuple) -> dict[str, float]:
        entry = buckets.get(key)
        if entry is None:
            entry = {
                "n_jobs_ended": 0, "n_jobs_started": 0, "cpu_hours": 0.0,
                "node_hours": 0.0, "xdsu": 0.0, "wall_hours": 0.0,
                "wait_hours": 0.0,
            }
            buckets[key] = entry
        return entry

    for job in schema.table("fact_job").rows():
        wl_level = config.walltime_levels.level_of(job["walltime_s"])
        sz_level = config.jobsize_levels.level_of(job["cores"])
        dims = (
            job["resource_id"], job["person_id"], job["pi_id"],
            job["app_id"], job["queue_id"], wl_level, sz_level,
        )
        # counts: end / start attribution
        end_period = period_start(period, job["end_ts"])
        bucket((end_period, *dims))["n_jobs_ended"] += 1
        start_period = period_start(period, job["start_ts"])
        b = bucket((start_period, *dims))
        b["n_jobs_started"] += 1
        b["wait_hours"] += job["wait_s"] / SECONDS_PER_HOUR
        # usage: apportion across overlapped periods
        if job["walltime_s"] > 0 and job["end_ts"] > job["start_ts"]:
            total = job["walltime_s"]
            for p_start, p_end in period_range(
                period, job["start_ts"], job["end_ts"]
            ):
                ov = overlap_seconds(job["start_ts"], job["end_ts"], p_start, p_end)
                if ov <= 0:
                    continue
                frac = ov / total
                b = bucket((p_start, *dims))
                b["cpu_hours"] += job["cpu_hours"] * frac
                b["node_hours"] += job["node_hours"] * frac
                b["xdsu"] += job["xdsu"] * frac
                b["wall_hours"] += total * frac / SECONDS_PER_HOUR
        else:
            # zero-length jobs span no period window, so apportionment
            # would drop their usage entirely; conserve the raw totals
            # by attributing full usage to the end period
            b = bucket((end_period, *dims))
            b["cpu_hours"] += job["cpu_hours"]
            b["node_hours"] += job["node_hours"]
            b["xdsu"] += job["xdsu"]
            b["wall_hours"] += job["walltime_s"] / SECONDS_PER_HOUR

    for key in sorted(buckets):
        p_start, rid, pid, piid, aid, qid, wl_level, sz_level = key
        measures = buckets[key]
        agg.insert(
            {
                "period_start": p_start,
                "period_label": period_label(period, p_start),
                "resource_id": rid,
                "person_id": pid,
                "pi_id": piid,
                "app_id": aid,
                "queue_id": qid,
                "walltime_level": wl_level,
                "jobsize_level": sz_level,
                "n_jobs_ended": int(measures["n_jobs_ended"]),
                "n_jobs_started": int(measures["n_jobs_started"]),
                "cpu_hours": measures["cpu_hours"],
                "node_hours": measures["node_hours"],
                "xdsu": measures["xdsu"],
                "wall_hours": measures["wall_hours"],
                "wait_hours": measures["wait_hours"],
            }
        )
    return len(agg)


def aggregate_storage_oracle(
    schema: Schema, config: AggregationConfig, period: str
) -> int:
    """Pure-Python reference rebuild of ``agg_storage_<period>``."""
    _replace_table(schema, STORAGE.table_schema(period))
    if not schema.has_table("fact_storage"):
        return 0
    agg = schema.table(f"agg_storage_{period}")
    # First collapse per-timestamp totals across users, then average the
    # per-timestamp totals within each period (gauge semantics).
    per_ts: dict[tuple, dict[str, float]] = {}
    users: dict[tuple, set[int]] = {}
    # per (period, resource, filesystem): (ts, resource_type) of the newest
    # snapshot, the later row on a tie
    newest: dict[tuple, tuple[int, str]] = {}
    for snap in schema.table("fact_storage").rows():
        tkey = (snap["ts"], snap["resource_id"], snap["filesystem"])
        entry = per_ts.setdefault(
            tkey,
            {"file_count": 0.0, "logical_gb": 0.0, "physical_gb": 0.0,
             "quota_util": 0.0, "quota_n": 0.0,
             "soft_quota_gb": 0.0, "hard_quota_gb": 0.0},
        )
        entry["file_count"] += snap["file_count"]
        entry["logical_gb"] += snap["logical_usage_gb"]
        entry["physical_gb"] += snap["physical_usage_gb"]
        soft = snap["soft_quota_gb"]
        entry["soft_quota_gb"] += soft if soft is not None else 0.0
        hard = snap["hard_quota_gb"]
        entry["hard_quota_gb"] += hard if hard is not None else 0.0
        if soft is not None:
            # NULL means no quota configured; an explicit 0.0 quota is
            # a real sample (utilization against it is undefined, so it
            # contributes 0 to the utilization sum)
            if soft > 0:
                entry["quota_util"] += snap["logical_usage_gb"] / soft
            entry["quota_n"] += 1
        pkey = (
            period_start(period, snap["ts"]),
            snap["resource_id"], snap["filesystem"],
        )
        users.setdefault(pkey, set()).add(snap["person_id"])
        if pkey not in newest or snap["ts"] >= newest[pkey][0]:
            newest[pkey] = (snap["ts"], snap["resource_type"])

    periods: dict[tuple, list[dict[str, float]]] = {}
    for (ts_, rid, fs), entry in per_ts.items():
        periods.setdefault(
            (period_start(period, ts_), rid, fs), []
        ).append(entry)
    for key in sorted(periods):
        p_start, rid, fs = key
        samples = periods[key]
        n = len(samples)
        quota_n = sum(s["quota_n"] for s in samples)
        agg.insert(
            {
                "period_start": p_start,
                "period_label": period_label(period, p_start),
                "resource_id": rid,
                "filesystem": fs,
                "resource_type": newest[key][1],
                "avg_file_count": sum(s["file_count"] for s in samples) / n,
                "avg_logical_gb": sum(s["logical_gb"] for s in samples) / n,
                "avg_physical_gb": sum(s["physical_gb"] for s in samples) / n,
                "sum_quota_utilization": sum(s["quota_util"] for s in samples),
                "n_quota_samples": int(quota_n),
                "avg_soft_quota_gb": sum(s["soft_quota_gb"] for s in samples) / n,
                "avg_hard_quota_gb": sum(s["hard_quota_gb"] for s in samples) / n,
                "user_count": len(users[key]),
                "n_snapshots": n,
            }
        )
    return len(agg)


def aggregate_cloud_oracle(
    schema: Schema, config: AggregationConfig, period: str
) -> int:
    """Pure-Python reference rebuild of ``agg_cloud_<period>``."""
    _replace_table(schema, CLOUD.table_schema(period))
    if not schema.has_table("fact_vm_interval"):
        return 0
    agg = schema.table(f"agg_cloud_{period}")
    levels = config.vm_memory_levels
    buckets: dict[tuple, dict[str, float]] = {}
    active_vms: dict[tuple, set[int]] = {}

    def bucket(key: tuple) -> dict[str, float]:
        entry = buckets.get(key)
        if entry is None:
            entry = {
                "core_hours": 0.0, "wall_hours": 0.0, "total_cores": 0.0,
                "mem_gb_hours": 0.0, "disk_gb_hours": 0.0,
                "stopped_hours": 0.0, "paused_hours": 0.0,
                "n_state_changes": 0,
                "n_vms_started": 0, "n_vms_ended": 0,
            }
            buckets[key] = entry
        return entry

    for iv in schema.table("fact_vm_interval").rows():
        mem_level = levels.level_of(iv["mem_gb"])
        dims = (
            iv["resource_id"], iv["project"], iv["os"],
            iv["submission_venue"], mem_level,
        )
        if iv["end_ts"] == iv["start_ts"] and iv["state"] == "running":
            # a VM that started and stopped within the same second
            # accrues no hours but was still active in that period
            key = (period_start(period, iv["start_ts"]), *dims)
            bucket(key)
            active_vms.setdefault(key, set()).add(iv["vm_id"])
            continue
        for p_start, p_end in period_range(period, iv["start_ts"], iv["end_ts"]):
            ov = overlap_seconds(iv["start_ts"], iv["end_ts"], p_start, p_end)
            if ov <= 0:
                continue
            b = bucket((p_start, *dims))
            hours = ov / SECONDS_PER_HOUR
            if iv["state"] == "running":
                b["core_hours"] += iv["vcpus"] * hours
                b["wall_hours"] += hours
                # reservations weighted by wall hours (Section III-B)
                b["mem_gb_hours"] += iv["mem_gb"] * hours
                b["disk_gb_hours"] += iv["disk_gb"] * hours
                active_vms.setdefault(
                    (p_start, *dims), set()
                ).add(iv["vm_id"])
            elif iv["state"] == "stopped":
                b["stopped_hours"] += hours
            else:
                b["paused_hours"] += hours

    if schema.has_table("fact_vm"):
        for vm in schema.table("fact_vm").rows():
            mem_level = levels.level_of(vm["last_mem_gb"])
            dims = (
                vm["resource_id"], vm["project"], vm["os"],
                vm["submission_venue"], mem_level,
            )
            b = bucket((period_start(period, vm["provision_ts"]), *dims))
            b["n_vms_started"] += 1
            b["total_cores"] += vm["last_vcpus"]
            b["n_state_changes"] += vm["n_state_changes"]
            if vm["terminate_ts"] is not None:
                bucket(
                    (period_start(period, vm["terminate_ts"]), *dims)
                )["n_vms_ended"] += 1

    for key in sorted(buckets):
        p_start, rid, project, os, venue, mem_level = key
        measures = buckets[key]
        agg.insert(
            {
                "period_start": p_start,
                "period_label": period_label(period, p_start),
                "resource_id": rid,
                "project": project,
                "os": os,
                "submission_venue": venue,
                "memory_level": mem_level,
                "core_hours": measures["core_hours"],
                "wall_hours": measures["wall_hours"],
                "mem_gb_hours": measures["mem_gb_hours"],
                "disk_gb_hours": measures["disk_gb_hours"],
                "stopped_hours": measures["stopped_hours"],
                "paused_hours": measures["paused_hours"],
                "n_state_changes": int(measures["n_state_changes"]),
                "n_vms_active": len(active_vms.get(key, ())),
                "n_vms_started": int(measures["n_vms_started"]),
                "n_vms_ended": int(measures["n_vms_ended"]),
                "total_cores": measures["total_cores"],
            }
        )
    return len(agg)


def aggregate_allocations_oracle(schema: Schema, period: str) -> int:
    """Build ``agg_allocation_<period>`` from the charge facts.

    ``su_granted`` is apportioned across the allocation's validity window
    (pro-rated per period) so utilization-per-period is meaningful.
    """
    name = f"agg_allocation_{period}"
    if schema.has_table(name):
        schema.drop_table(name)
    schema.create_table(ALLOCATIONS.table_schema(period))
    if not schema.has_table("fact_allocation_charge"):
        return 0
    agg = schema.table(name)
    buckets: dict[tuple[int, int], dict] = {}
    alloc_rows = {
        row["allocation_id"]: row
        for row in schema.table("dim_allocation").rows()
    }
    resource_ids = (
        {
            row["name"]: row["resource_id"]
            for row in schema.table("dim_resource").rows()
        }
        if schema.has_table("dim_resource")
        else {}
    )
    for charge in schema.table("fact_allocation_charge").rows():
        key = (period_start(period, charge["end_ts"]), charge["allocation_id"])
        entry = buckets.setdefault(
            key, {"xdsu": 0.0, "n": 0, "project": charge["project"],
                  "resource_id": charge["resource_id"]}
        )
        entry["xdsu"] += charge["xdsu_charged"]
        entry["n"] += 1
    # pro-rate grants over the allocation windows (even with no charges)
    for allocation_id, row in alloc_rows.items():
        span = row["end_ts"] - row["start_ts"]
        for p_start, p_end in period_range(period, row["start_ts"], row["end_ts"]):
            ov = overlap_seconds(row["start_ts"], row["end_ts"], p_start, p_end)
            if ov <= 0:
                continue
            key = (p_start, allocation_id)
            entry = buckets.setdefault(
                key, {"xdsu": 0.0, "n": 0, "project": row["project"],
                      "resource_id": resource_ids.get(row["resource"], 0)}
            )
            entry["granted"] = row["su_granted"] * ov / span
    for (p_start, allocation_id) in sorted(buckets):
        entry = buckets[(p_start, allocation_id)]
        agg.insert(
            {
                "period_start": p_start,
                "period_label": period_label(period, p_start),
                "allocation_id": allocation_id,
                "project": entry["project"],
                "resource_id": entry["resource_id"],
                "xdsu_charged": entry["xdsu"],
                "n_jobs_charged": entry["n"],
                "su_granted": entry.get("granted", 0.0),
            }
        )
    return len(agg)
