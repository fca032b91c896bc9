"""ETL: shredders, validators, and star-schema ingestion.

One submodule per source type (SLURM accounting, SUPReMM performance, cloud
VM events, storage snapshots) plus the star-schema builder and the
:class:`IngestPipeline` orchestrator.
"""

from .cloudevents import (
    CLOUD_EVENT_SCHEMA,
    CLOUD_REALM_TABLES,
    VM_STATES,
    create_cloud_realm,
    ingest_cloud_events,
)
from .jsonschema import JsonSchemaError, is_valid, validate
from .perfingest import (
    HEAVY_TABLES,
    SUPREMM_REALM_TABLES,
    create_supremm_realm,
    ingest_performance,
)
from .pbs import (
    PbsParseError,
    parse_pbs_log,
    parse_pbs_record,
    to_pbs_log,
    to_pbs_record,
)
from .pipeline import WAREHOUSE_SCHEMA, IngestPipeline, IngestReport
from .slurm import (
    JOB_STATES,
    ParsedJob,
    SacctParseError,
    normalize_state,
    parse_exit_code,
    parse_sacct_line,
    parse_sacct_log,
    parse_timelimit,
)
from .star import (
    JOBS_REALM_TABLES,
    DimensionCache,
    PersonInfo,
    create_jobs_star,
    dimension_labels,
    ingest_jobs,
    jobs_star_schemas,
    land,
)
from .storagefs import (
    STORAGE_REALM_TABLES,
    STORAGE_SNAPSHOT_SCHEMA,
    create_storage_realm,
    ingest_storage_snapshots,
)

__all__ = [
    "CLOUD_EVENT_SCHEMA",
    "CLOUD_REALM_TABLES",
    "DimensionCache",
    "HEAVY_TABLES",
    "IngestPipeline",
    "IngestReport",
    "JOBS_REALM_TABLES",
    "JOB_STATES",
    "JsonSchemaError",
    "ParsedJob",
    "PbsParseError",
    "PersonInfo",
    "STORAGE_REALM_TABLES",
    "STORAGE_SNAPSHOT_SCHEMA",
    "SUPREMM_REALM_TABLES",
    "SacctParseError",
    "VM_STATES",
    "WAREHOUSE_SCHEMA",
    "create_cloud_realm",
    "create_jobs_star",
    "create_storage_realm",
    "create_supremm_realm",
    "dimension_labels",
    "ingest_cloud_events",
    "ingest_jobs",
    "ingest_performance",
    "ingest_storage_snapshots",
    "is_valid",
    "jobs_star_schemas",
    "land",
    "normalize_state",
    "parse_exit_code",
    "parse_pbs_log",
    "parse_pbs_record",
    "parse_sacct_line",
    "parse_sacct_log",
    "parse_timelimit",
    "to_pbs_log",
    "to_pbs_record",
    "validate",
]
