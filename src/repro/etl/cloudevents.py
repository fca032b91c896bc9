"""Cloud realm ingestion: VM lifecycle event sessionization.

Section III-B: cloud monitoring differs fundamentally from HPC jobs — VM
wall time is the time a VM spent *running* (not provisioned), VMs stop /
start / pause / resume, and configuration (cores, memory, disk) mutates via
resize.  The ETL therefore reconstructs, from the raw event stream:

- ``fact_vm``: one row per VM with reservation window, running wall
  seconds, core-hours (integrated over the actual flavor in effect during
  each running interval), state-change counts, and time-per-state; and
- ``fact_vm_interval``: one row per contiguous *state interval* carrying
  the flavor in effect, so the aggregation engine can bin core-hours by
  month and by VM memory size (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..timeutil import SECONDS_PER_HOUR
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .jsonschema import JsonSchemaError, validate
from .star import DimensionCache, create_jobs_star, land

C = ColumnType

#: Schema the raw event documents must satisfy.  Compiled once, at the
#: first validation (:mod:`repro.etl.jsonschema`), so it is not edited
#: after import; a ``NaN`` or ``Infinity`` number fails it.
CLOUD_EVENT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "event_id", "vm_id", "event_type", "ts", "instance_type",
        "vcpus", "mem_gb", "disk_gb", "user", "project", "resource",
    ],
    "properties": {
        "event_id": {"type": "integer", "minimum": 1},
        "vm_id": {"type": "integer", "minimum": 1},
        "event_type": {
            "type": "string",
            "enum": [
                "provision", "start", "stop", "pause", "unpause",
                "resize", "terminate",
            ],
        },
        "ts": {"type": "integer", "minimum": 0},
        "instance_type": {"type": "string", "minLength": 1},
        "vcpus": {"type": "integer", "minimum": 1},
        "mem_gb": {"type": "number", "exclusiveMinimum": 0},
        "disk_gb": {"type": "number", "minimum": 0},
        "user": {"type": "string", "minLength": 1},
        "project": {"type": "string", "minLength": 1},
        "resource": {"type": "string", "minLength": 1},
        "os": {"type": "string"},
        "submission_venue": {"type": "string"},
    },
}

CLOUD_REALM_TABLES = ("fact_vm", "fact_vm_interval")

#: VM states an interval can be in.
VM_STATES = ("running", "stopped", "paused")


def cloud_fact_schemas() -> list[TableSchema]:
    return [
        TableSchema(
            "fact_vm",
            make_columns([
                ("vm_id", C.INT, False),
                ("resource_id", C.INT, False),
                ("person_id", C.INT, False),
                ("project", C.STR, False),
                ("os", C.STR, False),
                ("submission_venue", C.STR, False),
                ("provision_ts", C.TIMESTAMP, False),
                ("terminate_ts", C.TIMESTAMP),  # NULL while VM is open
                ("first_instance_type", C.STR, False),
                ("last_instance_type", C.STR, False),
                ("last_vcpus", C.INT, False),
                ("last_mem_gb", C.FLOAT, False),
                ("last_disk_gb", C.FLOAT, False),
                ("wall_s", C.INT, False),          # running seconds
                ("core_hours", C.FLOAT, False),    # integral vcpus*running
                ("reserved_core_hours", C.FLOAT, False),  # provision->end
                ("reserved_mem_gb_hours", C.FLOAT, False),
                ("reserved_disk_gb_hours", C.FLOAT, False),
                ("n_state_changes", C.INT, False),
                ("n_resizes", C.INT, False),
                ("running_s", C.INT, False),
                ("stopped_s", C.INT, False),
                ("paused_s", C.INT, False),
            ]),
            primary_key=("resource_id", "vm_id"),
        ),
        TableSchema(
            "fact_vm_interval",
            make_columns([
                ("interval_id", C.INT, False),
                ("vm_id", C.INT, False),
                ("resource_id", C.INT, False),
                ("person_id", C.INT, False),
                ("project", C.STR, False),
                ("os", C.STR, False),
                ("submission_venue", C.STR, False),
                ("instance_type", C.STR, False),
                ("state", C.STR, False),
                ("start_ts", C.TIMESTAMP, False),
                ("end_ts", C.TIMESTAMP, False),
                ("vcpus", C.INT, False),
                ("mem_gb", C.FLOAT, False),
                ("disk_gb", C.FLOAT, False),
            ]),
            primary_key=("interval_id",),
        ),
    ]


def create_cloud_realm(schema: Schema) -> None:
    create_jobs_star(schema)  # shares dim_resource / dim_person
    for table_schema in cloud_fact_schemas():
        if not schema.has_table(table_schema.name):
            schema.create_table(table_schema)


@dataclass
class _VmState:
    """Accumulator while walking one VM's events in time order."""

    events: list[dict]


def _sessionize(events: list[dict], horizon_ts: int) -> dict[str, Any] | None:
    """Fold one VM's time-ordered events into fact rows.

    Returns the ``fact_vm`` row plus its intervals, or None for an empty
    stream.  A VM with no terminate event is treated as open until
    ``horizon_ts`` (the latest timestamp seen in the whole feed).
    """
    if not events:
        return None
    first = events[0]
    provision_ts = first["ts"]
    state = "stopped"  # provisioned but not yet started
    flavor = (first["instance_type"], first["vcpus"], first["mem_gb"], first["disk_gb"])
    cursor = provision_ts
    intervals: list[dict[str, Any]] = []
    per_state = {"running": 0, "stopped": 0, "paused": 0}
    core_hours = 0.0
    n_state_changes = 0
    n_resizes = 0
    terminate_ts: int | None = None

    def close_interval(end_ts: int) -> None:
        nonlocal core_hours
        if end_ts <= cursor:
            return
        span = end_ts - cursor
        per_state[state] += span
        if state == "running":
            core_hours += flavor[1] * span / SECONDS_PER_HOUR
        intervals.append(
            {
                "state": state,
                "start_ts": cursor,
                "end_ts": end_ts,
                "instance_type": flavor[0],
                "vcpus": flavor[1],
                "mem_gb": flavor[2],
                "disk_gb": flavor[3],
            }
        )

    for event in events:
        etype = event["event_type"]
        ts_ = event["ts"]
        if etype == "provision":
            continue
        close_interval(ts_)
        cursor = max(cursor, ts_)
        if etype == "start" or etype == "unpause":
            if state != "running":
                n_state_changes += 1
            state = "running"
        elif etype == "stop":
            if state != "stopped":
                n_state_changes += 1
            state = "stopped"
        elif etype == "pause":
            if state != "paused":
                n_state_changes += 1
            state = "paused"
        elif etype == "resize":
            n_resizes += 1
            flavor = (
                event["instance_type"], event["vcpus"],
                event["mem_gb"], event["disk_gb"],
            )
        elif etype == "terminate":
            terminate_ts = ts_
            break

    if terminate_ts is None:
        close_interval(horizon_ts)
        end = horizon_ts
    else:
        end = terminate_ts

    reserved_span_h = max(0, end - provision_ts) / SECONDS_PER_HOUR
    return {
        "vm": {
            "vm_id": first["vm_id"],
            "user": first["user"],
            "project": first["project"],
            "resource": first["resource"],
            "os": first.get("os", "unknown"),
            "submission_venue": first.get("submission_venue", "unknown"),
            "provision_ts": provision_ts,
            "terminate_ts": terminate_ts,
            "first_instance_type": first["instance_type"],
            "last_instance_type": flavor[0],
            "last_vcpus": flavor[1],
            "last_mem_gb": flavor[2],
            "last_disk_gb": flavor[3],
            "wall_s": per_state["running"],
            "core_hours": core_hours,
            "reserved_core_hours": flavor[1] * reserved_span_h,
            "reserved_mem_gb_hours": flavor[2] * reserved_span_h,
            "reserved_disk_gb_hours": flavor[3] * reserved_span_h,
            "n_state_changes": n_state_changes,
            "n_resizes": n_resizes,
            "running_s": per_state["running"],
            "stopped_s": per_state["stopped"],
            "paused_s": per_state["paused"],
        },
        "intervals": intervals,
    }


def ingest_cloud_events(
    schema: Schema,
    events: Iterable[Mapping[str, Any]],
    *,
    strict: bool = True,
) -> tuple[int, int]:
    """Validate, sessionize, and ingest a VM event feed.

    Returns ``(vms_ingested, events_rejected)``.  Re-ingesting a VM id on
    the same resource replaces its rows (feeds are cumulative dumps).
    Every event is checked against :data:`CLOUD_EVENT_SCHEMA`, compiled
    once; an event with a non-finite number (``mem_gb=NaN``) is rejected.

    The feed is staged and lands all or nothing: a ``strict`` failure, or
    a value the schema refuses, raises before anything is written.  Then
    the rows of re-ingested VMs are deleted, and dimensions, ``fact_vm``
    and ``fact_vm_interval`` land in that order, one batch write each.
    """
    create_cloud_realm(schema)
    dims = DimensionCache(schema)
    by_vm: dict[int, list[dict]] = {}
    rejected = 0
    horizon = 0
    for event in events:
        try:
            validate(event, CLOUD_EVENT_SCHEMA)
        except JsonSchemaError:
            if strict:
                raise
            rejected += 1
            continue
        e = dict(event)
        by_vm.setdefault(e["vm_id"], []).append(e)
        horizon = max(horizon, e["ts"])

    vm_fact = schema.table("fact_vm")
    interval_fact = schema.table("fact_vm_interval")
    # above every surviving id: a re-ingest deletes a VM's intervals, so the
    # live row count can fall below ids still in use
    next_interval = max(interval_fact.column_values("interval_id"), default=0) + 1
    vm_rows: list[dict[str, Any]] = []
    interval_rows: list[dict[str, Any]] = []
    replaced: set[tuple[int, int]] = set()
    for vm_id in sorted(by_vm):
        vm_events = sorted(by_vm[vm_id], key=lambda e: (e["ts"], e["event_id"]))
        result = _sessionize(vm_events, horizon)
        if result is None:
            continue
        vm = result["vm"]
        resource_id = dims.resource_id(vm["resource"])
        person_id = dims.person_id(vm["user"])
        if vm_fact.get((resource_id, vm_id)) is not None:
            replaced.add((resource_id, vm_id))
        row = {k: v for k, v in vm.items() if k not in ("user", "resource")}
        row["resource_id"] = resource_id
        row["person_id"] = person_id
        vm_rows.append(row)
        for interval in result["intervals"]:
            interval_rows.append(
                {
                    "interval_id": next_interval + len(interval_rows),
                    "vm_id": vm_id,
                    "resource_id": resource_id,
                    "person_id": person_id,
                    "project": vm["project"],
                    "os": vm["os"],
                    "submission_venue": vm["submission_venue"],
                    **interval,
                }
            )
    batches = dims.stage((vm_fact, vm_rows), (interval_fact, interval_rows))
    if replaced:
        interval_fact.delete_where(
            lambda r: (r["resource_id"], r["vm_id"]) in replaced
        )
        for key in sorted(replaced):
            vm_fact.delete_key(key)
    land(batches)
    return len(vm_rows), rejected
