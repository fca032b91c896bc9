"""Star-schema builder for the HPC Jobs realm.

XDMoD's data warehouse is a classic star: dimension tables (person, PI,
resource, queue, application) keyed by surrogate ids, and a job fact table
carrying foreign keys plus the additive measures (CPU hours, node hours,
XD SUs, wait/wall time).  This module creates those tables in a warehouse
schema and ingests :class:`~repro.etl.slurm.ParsedJob` rows, maintaining the
dimensions incrementally.

XD SU standardization happens at ingest: the fact row stores both raw
``cpu_hours`` and ``xdsu`` (CPU hours x the resource's HPL-derived
conversion factor), mirroring how XSEDE XDMoD stores charges in normalized
units (Section II-C6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..simulators.hpl import ConversionTable
from ..timeutil import SECONDS_PER_HOUR
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .slurm import ParsedJob

C = ColumnType

#: Table names of the jobs-realm star (the set tight federation replicates).
JOBS_REALM_TABLES = (
    "dim_resource",
    "dim_person",
    "dim_pi",
    "dim_application",
    "dim_queue",
    "fact_job",
)


def jobs_star_schemas() -> list[TableSchema]:
    """Schemas of the HPC Jobs realm tables."""
    return [
        TableSchema(
            "dim_resource",
            make_columns([
                ("resource_id", C.INT, False),
                ("name", C.STR, False),
                ("nodes", C.INT),
                ("cores", C.INT),
                ("conversion_factor", C.FLOAT),
            ]),
            primary_key=("resource_id",),
        ),
        TableSchema(
            "dim_person",
            make_columns([
                ("person_id", C.INT, False),
                ("username", C.STR, False),
                ("full_name", C.STR),
                ("pi", C.STR),
                ("decanal_unit", C.STR),
                ("department", C.STR),
                ("gateway_label", C.STR),
            ]),
            primary_key=("person_id",),
        ),
        TableSchema(
            "dim_pi",
            make_columns([
                ("pi_id", C.INT, False),
                ("username", C.STR, False),
            ]),
            primary_key=("pi_id",),
        ),
        TableSchema(
            "dim_application",
            make_columns([
                ("app_id", C.INT, False),
                ("name", C.STR, False),
                ("science_field", C.STR),
            ]),
            primary_key=("app_id",),
        ),
        TableSchema(
            "dim_queue",
            make_columns([
                ("queue_id", C.INT, False),
                ("name", C.STR, False),
                ("resource", C.STR, False),
            ]),
            primary_key=("queue_id",),
        ),
        TableSchema(
            "fact_job",
            make_columns([
                ("job_id", C.INT, False),
                ("resource_id", C.INT, False),
                ("person_id", C.INT, False),
                ("pi_id", C.INT, False),
                ("app_id", C.INT, False),
                ("queue_id", C.INT, False),
                ("submit_ts", C.TIMESTAMP, False),
                ("start_ts", C.TIMESTAMP, False),
                ("end_ts", C.TIMESTAMP, False),
                ("walltime_s", C.INT, False),
                ("wait_s", C.INT, False),
                ("req_walltime_s", C.INT, False),
                ("nodes", C.INT, False),
                ("cores", C.INT, False),
                ("cpu_hours", C.FLOAT, False),
                ("node_hours", C.FLOAT, False),
                ("xdsu", C.FLOAT, False),
                ("state", C.STR, False),
                ("exit_code", C.INT, False),
            ]),
            primary_key=("resource_id", "job_id"),
        ),
    ]


def create_jobs_star(schema: Schema) -> None:
    """Create the jobs-realm tables in ``schema`` (idempotent)."""
    for table_schema in jobs_star_schemas():
        if not schema.has_table(table_schema.name):
            schema.create_table(table_schema)


@dataclass(frozen=True)
class PersonInfo:
    """Directory metadata attached to a username at ingest time.

    Open XDMoD sites load this from their institutional hierarchy
    configuration; the workload simulator supplies it from its population.
    """

    full_name: str = ""
    pi: str = ""
    decanal_unit: str = "Unknown"
    department: str = "Unknown"


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


def dimension_labels(schema: Schema, dimension: str) -> dict[int, str]:
    """Map surrogate ids to display labels for one dimension table."""
    table_key = {
        "dim_resource": ("resource_id", "name"),
        "dim_person": ("person_id", "username"),
        "dim_pi": ("pi_id", "username"),
        "dim_application": ("app_id", "name"),
        "dim_queue": ("queue_id", "name"),
    }
    key, label = table_key[dimension]
    return {row[key]: row[label] for row in schema.table(dimension).rows()}
