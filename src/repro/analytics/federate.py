"""Hub-side analytics: federation-wide efficiency views and anomalies.

The satellite-side summarization stage leaves one ``fact_job_analytics``
row per job in each instance schema; the SUPReMM summary filter
replicates those rows to the hub alongside the accounting realm.
:class:`AnalyticsPlane` is the hub-side half: it collects the federated
scores into :class:`~repro.obs.anomaly.JobScore` records, runs the
:class:`~repro.obs.anomaly.AnomalyDetector` over them (per-application
baselines pooled across every member), and snapshots the registry into
the metrics history so the ``analytics_anomaly_rate_high`` SLO rule sees
the counters it judges.

Wire it like the serving layer's materialized views::

    plane = AnalyticsPlane(hub)
    hub.add_post_aggregation_hook(plane.refresh)
    monitor = FederationMonitor(hub, analytics=plane)

so every ``aggregate_federation()`` ends with fresh anomaly verdicts,
and the monitor's render shows the worst-jobs line and the
efficiency-score distribution sparkline.
"""

from __future__ import annotations

from typing import Mapping

from ..obs.anomaly import Anomaly, AnomalyDetector, JobScore
from ..warehouse import Schema
from .summarize import job_scores

__all__ = ["AnalyticsPlane"]


class AnalyticsPlane:
    """Federation-wide job analytics bound to one hub.

    ``start``/``end`` (epoch seconds) optionally bound the job window
    every refresh considers; by default all federated jobs participate.
    """

    def __init__(
        self,
        hub,
        *,
        detector: AnomalyDetector | None = None,
        start: int | None = None,
        end: int | None = None,
    ) -> None:
        self.hub = hub
        self.detector = (
            detector if detector is not None else AnomalyDetector(hub.obs)
        )
        self.start = start
        self.end = end
        self.last_scores: tuple[JobScore, ...] = ()
        self.anomalies: tuple[Anomaly, ...] = ()
        self.refreshes = 0

    def sources(self) -> Mapping[str, Schema]:
        return self.hub.federated_schemas()

    def collect_scores(self) -> list[JobScore]:
        """Federated job scores, least efficient first."""
        return [
            JobScore(
                member=row["member"],
                resource=row["resource"],
                job_id=row["job_id"],
                application=row["application"],
                score=row["score"],
                tags=tuple(row["tags"]),
                n_samples=row["n_samples"],
            )
            for row in job_scores(self.sources(), start=self.start, end=self.end)
        ]

    def refresh(self) -> tuple[Anomaly, ...]:
        """Re-collect scores and re-run detection (post-aggregation hook).

        Ends with a history snapshot so the anomaly counters are
        queryable by the alert engine's windowed rules immediately.
        """
        scores = self.collect_scores()
        self.last_scores = tuple(scores)
        self.anomalies = tuple(self.detector.detect(scores))
        self.refreshes += 1
        self.hub.obs.history.record()
        return self.anomalies

    def worst_jobs(self, n: int = 5) -> tuple[JobScore, ...]:
        """The ``n`` least-efficient federated jobs from the last refresh."""
        return self.last_scores[:n]

    @property
    def anomalies_open(self) -> int:
        return len(self.anomalies)
