"""Aggregation: period binning + configurable numeric aggregation levels.

See Table I of the paper for the wall-time level sets reproduced in
:mod:`repro.aggregation.levels`, and :mod:`repro.aggregation.engine` for the
nightly pre-binning step that builds the ``agg_*`` tables the UI queries.
Each realm is declared once, as an :class:`AggregateSpec` naming its one
builder (``spec.build``), the columnar fold in
:mod:`repro.aggregation.columnar`; ``Aggregator.rebuild`` is that fold
started from row 0, ``Aggregator.fold`` the same fold started from the
watermark.
"""

from .columnar import group_reduce
from .engine import (
    ALLOCATIONS,
    CLOUD,
    JOBS,
    SPECS,
    STORAGE,
    AggregateSpec,
    AggregationConfig,
    Aggregator,
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
    "ALLOCATIONS",
    "AggregateSpec",
    "AggregationConfig",
    "AggregationLevel",
    "AggregationLevelSet",
    "Aggregator",
    "CLOUD",
    "DEFAULT_JOBSIZE_LEVELS",
    "DEFAULT_WALLTIME_LEVELS",
    "FIG7_VM_MEMORY_LEVELS",
    "JOBS",
    "LevelConfigError",
    "SPECS",
    "STORAGE",
    "TABLE1_FEDERATION_HUB",
    "TABLE1_INSTANCE_A",
    "TABLE1_INSTANCE_B",
    "group_reduce",
    "merge_level_sets",
]
