"""Row-at-a-time reference loaders.

These are the star, storage, cloud, performance and analytics loaders as
they stood before PR 16 batched them: one ``insert`` / ``upsert`` per
row, dimension rows written the moment an id is assigned, cloud
re-ingest deleting per VM.  They live here, not under ``src/``, as the
oracles ``tests/test_batch_loaders.py`` holds the batched loaders to:
same tables row for row, same versions, the same multiset of binlog
events.  Behaviour is frozen; do not "improve" them.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.analytics.summarize import (
    ANALYTICS_TABLE,
    JobSummary,
    create_analytics_table,
)
from repro.etl.cloudevents import (
    CLOUD_EVENT_SCHEMA,
    _sessionize,
    create_cloud_realm,
)
from repro.etl.jsonschema import JsonSchemaError, validate
from repro.etl.perfingest import create_supremm_realm
from repro.etl.slurm import ParsedJob
from repro.etl.star import PersonInfo, create_jobs_star
from repro.etl.storagefs import STORAGE_SNAPSHOT_SCHEMA, create_storage_realm
from repro.simulators.hpl import ConversionTable
from repro.simulators.perf import JobPerformance
from repro.timeutil import SECONDS_PER_HOUR
from repro.warehouse import Schema


class DimensionCache:
    """Upsert-or-lookup surrogate ids for the star's dimensions."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._resource: dict[str, int] = {}
        self._person: dict[str, int] = {}
        self._pi: dict[str, int] = {}
        self._app: dict[str, int] = {}
        self._queue: dict[tuple[str, str], int] = {}
        self._prime()

    def _prime(self) -> None:
        """Load existing dimension rows (supports incremental ingest)."""
        s = self._schema
        for row in s.table("dim_resource").rows():
            self._resource[row["name"]] = row["resource_id"]
        for row in s.table("dim_person").rows():
            self._person[row["username"]] = row["person_id"]
        for row in s.table("dim_pi").rows():
            self._pi[row["username"]] = row["pi_id"]
        for row in s.table("dim_application").rows():
            self._app[row["name"]] = row["app_id"]
        for row in s.table("dim_queue").rows():
            self._queue[(row["resource"], row["name"])] = row["queue_id"]

    def resource_id(
        self,
        name: str,
        *,
        nodes: int | None = None,
        cores: int | None = None,
        conversion_factor: float | None = None,
    ) -> int:
        rid = self._resource.get(name)
        if rid is None:
            rid = len(self._resource) + 1
            self._schema.table("dim_resource").insert(
                {
                    "resource_id": rid,
                    "name": name,
                    "nodes": nodes,
                    "cores": cores,
                    "conversion_factor": conversion_factor,
                }
            )
            self._resource[name] = rid
        return rid

    def person_id(self, username: str, info: PersonInfo | None = None) -> int:
        pid = self._person.get(username)
        if pid is None:
            pid = len(self._person) + 1
            info = info or PersonInfo()
            # science-gateway community accounts are flagged by convention
            # (XDMoD maps them from its gateway account list)
            gateway = (
                username[3:] if username.startswith("gw_") else ""
            )
            self._schema.table("dim_person").insert(
                {
                    "person_id": pid,
                    "username": username,
                    "full_name": info.full_name or username,
                    "pi": info.pi,
                    "decanal_unit": info.decanal_unit,
                    "department": info.department,
                    "gateway_label": gateway or "Not a gateway",
                }
            )
            self._person[username] = pid
        return pid

    def pi_id(self, username: str) -> int:
        pid = self._pi.get(username)
        if pid is None:
            pid = len(self._pi) + 1
            self._schema.table("dim_pi").insert(
                {"pi_id": pid, "username": username}
            )
            self._pi[username] = pid
        return pid

    def app_id(self, name: str, science_field: str = "Unknown") -> int:
        aid = self._app.get(name)
        if aid is None:
            aid = len(self._app) + 1
            self._schema.table("dim_application").insert(
                {"app_id": aid, "name": name, "science_field": science_field}
            )
            self._app[name] = aid
        return aid

    def queue_id(self, resource: str, name: str) -> int:
        qid = self._queue.get((resource, name))
        if qid is None:
            qid = len(self._queue) + 1
            self._schema.table("dim_queue").insert(
                {"queue_id": qid, "name": name, "resource": resource}
            )
            self._queue[(resource, name)] = qid
        return qid


def ingest_jobs(
    schema: Schema,
    jobs: Iterable[ParsedJob],
    *,
    conversion: ConversionTable | None = None,
    directory: Mapping[str, PersonInfo] | None = None,
    science_fields: Mapping[str, str] | None = None,
) -> int:
    """Ingest parsed job rows into the star; returns jobs inserted.

    Jobs already present (same resource + job id) are skipped, making
    repeated ingests of overlapping log windows idempotent — exactly the
    behaviour a nightly shredder needs.
    """
    create_jobs_star(schema)
    dims = DimensionCache(schema)
    fact = schema.table("fact_job")
    conversion = conversion or ConversionTable()
    directory = directory or {}
    science_fields = science_fields or {}
    inserted = 0
    for job in jobs:
        resource_id = dims.resource_id(
            job.resource, conversion_factor=conversion.factor(job.resource)
        )
        if fact.get((resource_id, job.job_id)) is not None:
            continue
        cpu_hours = job.cores * job.walltime_s / SECONDS_PER_HOUR
        fact.insert(
            {
                "job_id": job.job_id,
                "resource_id": resource_id,
                "person_id": dims.person_id(job.user, directory.get(job.user)),
                "pi_id": dims.pi_id(job.pi),
                "app_id": dims.app_id(
                    job.application,
                    science_fields.get(job.application, "Unknown"),
                ),
                "queue_id": dims.queue_id(job.resource, job.queue),
                "submit_ts": job.submit_ts,
                "start_ts": job.start_ts,
                "end_ts": job.end_ts,
                "walltime_s": job.walltime_s,
                "wait_s": job.wait_s,
                "req_walltime_s": job.req_walltime_s,
                "nodes": job.nodes,
                "cores": job.cores,
                "cpu_hours": cpu_hours,
                "node_hours": job.nodes * job.walltime_s / SECONDS_PER_HOUR,
                "xdsu": conversion.to_xdsu(job.resource, cpu_hours),
                "state": job.state,
                "exit_code": job.exit_code,
            }
        )
        inserted += 1
    return inserted


def ingest_storage_snapshots(
    schema: Schema,
    documents: Iterable[Mapping[str, Any]],
    *,
    strict: bool = True,
) -> tuple[int, int]:
    """Validate and ingest snapshot documents.

    Returns ``(ingested, rejected)``.  With ``strict=True`` the first
    invalid document raises :class:`JsonSchemaError`; otherwise invalid
    documents are counted and skipped.
    """
    create_storage_realm(schema)
    dims = DimensionCache(schema)
    fact = schema.table("fact_storage")
    next_id = len(fact) + 1
    ingested = rejected = 0
    for doc in documents:
        try:
            validate(doc, STORAGE_SNAPSHOT_SCHEMA)
        except JsonSchemaError:
            if strict:
                raise
            rejected += 1
            continue
        fact.insert(
            {
                "snapshot_id": next_id,
                "resource_id": dims.resource_id(doc["resource"]),
                "filesystem": doc["filesystem"],
                "mountpoint": doc["mountpoint"],
                "resource_type": doc["resource_type"],
                "person_id": dims.person_id(doc["user"]),
                "pi": doc.get("pi", ""),
                "system_username": doc.get("system_username", doc["user"]),
                "ts": doc["ts"],
                "file_count": doc["file_count"],
                "logical_usage_gb": float(doc["logical_usage_gb"]),
                "physical_usage_gb": float(doc["physical_usage_gb"]),
                # NULL = no quota configured; an explicit 0.0 in the
                # document is a real zero quota and must stay distinct
                "soft_quota_gb": (
                    float(doc["soft_quota_gb"])
                    if doc.get("soft_quota_gb") is not None else None
                ),
                "hard_quota_gb": (
                    float(doc["hard_quota_gb"])
                    if doc.get("hard_quota_gb") is not None else None
                ),
            }
        )
        next_id += 1
        ingested += 1
    return ingested, rejected


def ingest_cloud_events(
    schema: Schema,
    events: Iterable[Mapping[str, Any]],
    *,
    strict: bool = True,
) -> tuple[int, int]:
    """Validate, sessionize, and ingest a VM event feed.

    Returns ``(vms_ingested, events_rejected)``.  Re-ingesting a VM id on
    the same resource replaces its rows (feeds are cumulative dumps).
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
    ingested = 0
    for vm_id in sorted(by_vm):
        vm_events = sorted(by_vm[vm_id], key=lambda e: (e["ts"], e["event_id"]))
        result = _sessionize(vm_events, horizon)
        if result is None:
            continue
        vm = result["vm"]
        resource_id = dims.resource_id(vm["resource"])
        person_id = dims.person_id(vm["user"])
        if vm_fact.get((resource_id, vm_id)) is not None:
            interval_fact.delete_where(
                lambda r, v=vm_id, rid=resource_id: r["vm_id"] == v
                and r["resource_id"] == rid
            )
            vm_fact.delete_where(
                lambda r, v=vm_id, rid=resource_id: r["vm_id"] == v
                and r["resource_id"] == rid
            )
        row = {k: v for k, v in vm.items() if k not in ("user", "resource")}
        row["resource_id"] = resource_id
        row["person_id"] = person_id
        vm_fact.insert(row)
        for interval in result["intervals"]:
            interval_fact.insert(
                {
                    "interval_id": next_interval,
                    "vm_id": vm_id,
                    "resource_id": resource_id,
                    "person_id": person_id,
                    "project": vm["project"],
                    "os": vm["os"],
                    "submission_venue": vm["submission_venue"],
                    **interval,
                }
            )
            next_interval += 1
        ingested += 1
    return ingested, rejected


def ingest_performance(
    schema: Schema,
    performances: Iterable[JobPerformance],
) -> int:
    """Ingest job performance records; returns the number ingested.

    Upserts by (resource, job), so re-processing a window is idempotent.
    """
    create_supremm_realm(schema)
    dims = DimensionCache(schema)
    fact = schema.table("fact_job_perf")
    series_table = schema.table("job_timeseries")
    n = 0
    for perf in performances:
        resource_id = dims.resource_id(perf.resource)
        row: dict = {"job_id": perf.job_id, "resource_id": resource_id}
        row.update(perf.summary())
        fact.upsert(row)
        series_table.upsert(
            {
                "job_id": perf.job_id,
                "resource_id": resource_id,
                "interval_s": perf.interval_s,
                "start_ts": int(perf.timestamps[0]) if len(perf.timestamps) else 0,
                "series": {
                    name: [round(float(v), 4) for v in values]
                    for name, values in perf.series.items()
                },
                "job_script": perf.job_script,
            }
        )
        n += 1
    return n


def ingest_summaries(schema: Schema, summaries: Iterable[JobSummary]) -> int:
    """Upsert summaries into ``fact_job_analytics``; returns rows written."""
    create_analytics_table(schema)
    dims = DimensionCache(schema)
    fact = schema.table(ANALYTICS_TABLE)
    n = 0
    for summary in summaries:
        fact.upsert(summary.row(dims.resource_id(summary.resource)))
        n += 1
    return n
