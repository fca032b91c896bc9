"""Job-level performance analytics (SUPReMM-style summarization).

Closes the loop from the simulated node timeseries to federation-wide,
user-facing insight:

- :mod:`repro.analytics.summarize` — the satellite-side stage folding
  each job's nine-metric timeseries into statistics, categorical tags
  and a 0–1 efficiency score (``fact_job_analytics``), and
  :func:`~repro.analytics.summarize.job_scores`, the worst-first ranking
  read from it.
- :mod:`repro.analytics.federate` — the hub-side plane collecting the
  federated scores, running the :mod:`repro.obs.anomaly` detector over
  per-application baselines, and feeding the monitor/REST surfaces.
"""

from __future__ import annotations

from .federate import AnalyticsPlane
from .summarize import (
    ANALYTICS_TABLE,
    JobSummary,
    analytics_fact_schema,
    create_analytics_table,
    ingest_summaries,
    job_scores,
    summarize_schema,
    summarize_series,
)

__all__ = [
    "ANALYTICS_TABLE",
    "AnalyticsPlane",
    "JobSummary",
    "analytics_fact_schema",
    "create_analytics_table",
    "ingest_summaries",
    "job_scores",
    "summarize_schema",
    "summarize_series",
]
