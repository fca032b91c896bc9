"""Aggregation: period binning + configurable numeric aggregation levels.

See Table I of the paper for the wall-time level sets reproduced in
:mod:`repro.aggregation.levels`, and :mod:`repro.aggregation.engine` for the
nightly pre-binning step that builds the ``agg_*`` tables the UI queries.
Each realm has one builder, the columnar fold in
:mod:`repro.aggregation.columnar`; a rebuild is that fold started from
row 0, an incremental pass the same fold started from the watermark.
"""

from .columnar import (
    build_cloud_rows,
    build_job_rows,
    build_storage_rows,
    group_reduce,
)
from .engine import (
    AggregationConfig,
    Aggregator,
    agg_cloud_schema,
    agg_job_schema,
    agg_storage_schema,
)
from .levels import (
    DEFAULT_JOBSIZE_LEVELS,
    DEFAULT_WALLTIME_LEVELS,
    FIG7_VM_MEMORY_LEVELS,
    TABLE1_FEDERATION_HUB,
    TABLE1_INSTANCE_A,
    TABLE1_INSTANCE_B,
    AggregationLevel,
    AggregationLevelSet,
    LevelConfigError,
    merge_level_sets,
)

__all__ = [
    "AggregationConfig",
    "AggregationLevel",
    "AggregationLevelSet",
    "Aggregator",
    "DEFAULT_JOBSIZE_LEVELS",
    "DEFAULT_WALLTIME_LEVELS",
    "FIG7_VM_MEMORY_LEVELS",
    "LevelConfigError",
    "TABLE1_FEDERATION_HUB",
    "TABLE1_INSTANCE_A",
    "TABLE1_INSTANCE_B",
    "agg_cloud_schema",
    "agg_job_schema",
    "agg_storage_schema",
    "build_cloud_rows",
    "build_job_rows",
    "build_storage_rows",
    "group_reduce",
    "merge_level_sets",
]
