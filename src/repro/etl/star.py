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
from typing import Any, Iterable, Mapping, Sequence

from ..simulators.hpl import ConversionTable
from ..timeutil import SECONDS_PER_HOUR
from ..warehouse import ColumnType, Schema, Table, TableSchema, make_columns
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


#: one table's share of an ingest batch, as ``Table.upsert_columns`` takes it
Batch = tuple[Table, dict[str, list[Any]]]


def land(batches: Iterable[Batch]) -> None:
    """Write staged batches (:meth:`DimensionCache.stage`) in order, one
    batch write per table."""
    for table, columns in batches:
        table.upsert_columns(columns)


class DimensionCache:
    """Look up, or assign and stage, the star's surrogate dimension ids.

    A new dimension value gets the next id at once, so fact rows staged in
    the same batch can carry it; its row is held back until the loader
    calls :meth:`stage` and lands the result, dimensions first.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._staged: dict[str, list[dict[str, Any]]] = {}

        def ids(table: str, label: str, key: str) -> dict[str, int]:
            return dict(schema.table(table).columns_values((label, key)))

        # existing dimension rows (supports incremental ingest)
        self._resource = ids("dim_resource", "name", "resource_id")
        self._person = ids("dim_person", "username", "person_id")
        self._pi = ids("dim_pi", "username", "pi_id")
        self._app = ids("dim_application", "name", "app_id")
        self._queue: dict[tuple[str, str], int] = {
            (resource, name): queue_id
            for resource, name, queue_id in schema.table(
                "dim_queue"
            ).columns_values(("resource", "name", "queue_id"))
        }

    def _stage(self, table: str, row: dict[str, Any]) -> None:
        self._staged.setdefault(table, []).append(row)

    def stage(
        self, *facts: tuple[Table, Sequence[Mapping[str, Any]]]
    ) -> list[Batch]:
        """The ingest batch in landing order — the dimension rows staged
        so far, then each of ``facts``' rows — as column batches for
        :func:`land`.  Every batch has been through the checks its write
        makes, so a value a table refuses raises here, before anything of
        the batch is written."""
        staged = [
            (self._schema.table(name), rows) for name, rows in self._staged.items()
        ]
        self._staged = {}
        batches: list[Batch] = []
        for table, rows in (*staged, *facts):
            if rows:
                columns = table.schema.columns_from_rows(rows)
                table.schema.normalize_columns(columns)
                batches.append((table, columns))
        return batches

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
            self._stage(
                "dim_resource",
                {
                    "resource_id": rid,
                    "name": name,
                    "nodes": nodes,
                    "cores": cores,
                    "conversion_factor": conversion_factor,
                },
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
            self._stage(
                "dim_person",
                {
                    "person_id": pid,
                    "username": username,
                    "full_name": info.full_name or username,
                    "pi": info.pi,
                    "decanal_unit": info.decanal_unit,
                    "department": info.department,
                    "gateway_label": gateway or "Not a gateway",
                },
            )
            self._person[username] = pid
        return pid

    def pi_id(self, username: str) -> int:
        pid = self._pi.get(username)
        if pid is None:
            pid = len(self._pi) + 1
            self._stage("dim_pi", {"pi_id": pid, "username": username})
            self._pi[username] = pid
        return pid

    def app_id(self, name: str, science_field: str = "Unknown") -> int:
        aid = self._app.get(name)
        if aid is None:
            aid = len(self._app) + 1
            self._stage(
                "dim_application",
                {"app_id": aid, "name": name, "science_field": science_field},
            )
            self._app[name] = aid
        return aid

    def queue_id(self, resource: str, name: str) -> int:
        qid = self._queue.get((resource, name))
        if qid is None:
            qid = len(self._queue) + 1
            self._stage(
                "dim_queue", {"queue_id": qid, "name": name, "resource": resource}
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

    Jobs already present (same resource + job id), or repeated inside the
    batch, are skipped, making repeated ingests of overlapping log windows
    idempotent — exactly the behaviour a nightly shredder needs.

    The batch is staged and lands all or nothing, dimensions first: one
    batch write per dimension table, then one for ``fact_job``.  A value
    a table refuses anywhere in the batch raises before any row of the
    batch is written (row by row, the rows before it used to land).
    """
    create_jobs_star(schema)
    dims = DimensionCache(schema)
    fact = schema.table("fact_job")
    conversion = conversion or ConversionTable()
    directory = directory or {}
    science_fields = science_fields or {}
    staged: dict[tuple[int, int], dict[str, Any]] = {}
    for job in jobs:
        resource_id = dims.resource_id(
            job.resource, conversion_factor=conversion.factor(job.resource)
        )
        key = (resource_id, job.job_id)
        if key in staged or fact.get(key) is not None:
            continue
        cpu_hours = job.cores * job.walltime_s / SECONDS_PER_HOUR
        staged[key] = {
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
    land(dims.stage((fact, list(staged.values()))))
    return len(staged)


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
