"""The SUPReMM (job performance) realm.

"The SUPReMM realm, meanwhile, contributes metrics describing individual
job-level performance data, such as total memory, CPU usage, memory
bandwidth, I/O bandwidth, block read and block write rates.  These
performance data are collected from system hardware counters, then
aggregated by XDMoD."

Like every realm, SUPReMM answers from its aggregate table:
:data:`repro.aggregation.SUPREMM` folds each job's summary
(``fact_job_perf``), joined to its ``fact_job`` row, into
``agg_supremm_<period>`` by resource, person and application.  Each
statistic is the core-hour-weighted average of the per-job averages —
XDMoD's weighting — whose weighted sum and CPU hours combine before the
division, so a federated average is exact, never an average of averages.
SUPReMM is *not* federated in the initial release (Section II-C5); over
hubs whose channels use :func:`repro.core.supremm_summary_filter`
(summaries only — the raw timeseries never replicate) the same realm
serves the paper's planned subsequent release.
"""

from __future__ import annotations

from ..aggregation import SUPREMM
from ..simulators.perf import PERF_METRICS
from .base import Metric, Realm
from .jobs import JOBS_DIMENSIONS

#: Chartable SUPReMM statistics: core-hour-weighted averages of the
#: per-job average for each hardware-counter metric.
SUPREMM_METRIC_NAMES = tuple(f"avg_{m}" for m in PERF_METRICS)


def supremm_realm() -> Realm:
    """Construct the SUPReMM realm."""
    return Realm(
        SUPREMM.realm, SUPREMM.prefix,
        [
            Metric(
                f"avg_{m}", f"Avg {m.replace('_', ' ')} (core-hour weighted)", "",
                f"{m}_weighted", denominator="cpu_hours",
            )
            for m in PERF_METRICS
        ],
        [d for d in JOBS_DIMENSIONS if d.name in ("resource", "application", "person")],
    )
