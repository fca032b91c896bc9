"""Ablation A14: job-level analytics — summarization and detection cost.

The analytics stage rides the existing federation cycle: satellites fold
``job_timeseries`` into ``fact_job_analytics`` (SUPReMM-style), the hub
re-collects the federated scores and runs the anomaly detector after
every aggregation.  This bench prices both halves:

- **Summarization throughput** — jobs folded per second by
  ``summarize_schema`` on a satellite with stored performance series.
- **Detector overhead** — a full hub cycle (join + replicate +
  aggregate) with the :class:`~repro.analytics.AnalyticsPlane` refresh
  hook attached vs. the same cycle without analytics.  Budget: within
  5% (plus a small absolute slack for sub-second cycles).

Also renders the federation-wide worst-jobs table from the
fault-injected demo federation and saves it under ``out/`` — CI uploads
that report as a workflow artifact.
"""

from __future__ import annotations

import time

import pytest

from repro.analytics import AnalyticsPlane, summarize_schema
from repro.cli import _demo_analytics_federation
from repro.core import FederationHub, XdmodInstance
from repro.core.replicator import supremm_summary_filter
from repro.obs import FakeClock, Observability
from repro.simulators import (
    WorkloadGenerator,
    ccr_like_site,
    generate_performance_batch,
    simulate_resource,
    to_sacct_log,
)
from repro.timeutil import ts

from conftest import emit, emit_metrics

BUDGET_REL = 1.05  # plane-enabled within 5% of the no-analytics cycle ...
BUDGET_ABS = 0.05  # ... plus 50 ms slack so tiny timings cannot flake
REPEATS = 5


def _min_time(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time; min is the standard noise-robust estimator."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bundle(name: str) -> Observability:
    return Observability(clock=FakeClock(), name=name)


def _perf_satellite(
    name: str, *, days: int, max_jobs: int | None, seed: int
) -> tuple[XdmodInstance, int]:
    """A satellite with accounting plus per-job performance timeseries."""
    instance = XdmodInstance(name, obs=_bundle(name))
    site = ccr_like_site(scale=0.05, seed=seed)
    start, end = ts(2017, 1, 1), ts(2017, 1, 1 + days)
    records = simulate_resource(
        site.resource, WorkloadGenerator(site.workload).generate(start, end)
    )
    instance.pipeline.ingest_sacct(
        to_sacct_log(records), default_resource=site.name
    )
    perfs = generate_performance_batch(
        records, site.resource, max_jobs=max_jobs
    )
    instance.pipeline.ingest_performance(perfs)
    return instance, len(perfs)


@pytest.mark.parametrize(
    "days,max_jobs", [(7, 60), (21, 400)], ids=["small", "large"]
)
def test_a14_summarization_throughput(benchmark, days, max_jobs):
    """Jobs/second folded from raw timeseries into fact_job_analytics."""
    instance, n_jobs = _perf_satellite(
        "sat_summ", days=days, max_jobs=max_jobs, seed=30
    )

    summarized = benchmark(summarize_schema, instance.schema)

    mean_s = benchmark.stats.stats.mean
    jobs_per_sec = summarized / mean_s if mean_s > 0 else float("inf")
    emit(f"a14_summarize_{days}d", "\n".join([
        f"A14 summarization over {summarized} jobs with stored series "
        f"({days} days simulated):",
        f"  fold time: {mean_s * 1e3:.2f} ms "
        f"({jobs_per_sec:,.0f} jobs/sec)",
        "  upserts are idempotent: re-summarizing a window rewrites the "
        "same rows",
    ]))
    emit_metrics(f"a14_summarize_{days}d", {
        "summarize_time": (mean_s, "s"),
        "summarization_rate": (jobs_per_sec, "jobs/s"),
        "jobs_summarized": (float(summarized), "jobs"),
    })
    assert summarized == n_jobs
    assert len(instance.schema.table("fact_job_analytics")) == n_jobs


def test_a14_detector_overhead():
    """Full hub cycle with the analytics refresh hook vs. without."""
    satellites = []
    for i in range(2):
        instance, _ = _perf_satellite(
            f"sat_det{i}", days=7, max_jobs=60, seed=30 + i
        )
        summarize_schema(instance.schema)
        satellites.append(instance)
    state = {"n": 0}

    def cycle(analytics: bool) -> AnalyticsPlane | None:
        state["n"] += 1
        hub = FederationHub(f"hub{state['n']}", obs=_bundle("hub"))
        for satellite in satellites:
            hub.join(
                satellite, mode="tight", filter=supremm_summary_filter()
            )
        plane = None
        if analytics:
            plane = AnalyticsPlane(hub)
            hub.add_post_aggregation_hook(plane.refresh)
        hub.aggregate_federation(["month"])
        return plane

    plane = cycle(True)  # warm-up; also checks the hook actually ran
    assert plane is not None and plane.refreshes == 1
    assert len(plane.last_scores) > 0

    t_base = _min_time(lambda: cycle(False))
    t_analytics = _min_time(lambda: cycle(True))

    overhead = (t_analytics / t_base - 1.0) * 100 if t_base > 0 else 0.0
    emit("a14_detector_overhead", "\n".join([
        f"A14 detector overhead on a 2-member federation cycle "
        f"({len(plane.last_scores)} federated job scores):",
        f"  no analytics:           {t_base * 1e3:.2f} ms",
        f"  analytics refresh hook: {t_analytics * 1e3:.2f} ms",
        f"  overhead: {overhead:+.1f}% (budget {(BUDGET_REL - 1) * 100:.0f}%"
        f" + {BUDGET_ABS * 1e3:.0f} ms slack)",
    ]))
    emit_metrics("a14_detector_overhead", {
        "baseline_cycle_time": (t_base, "s"),
        "analytics_cycle_time": (t_analytics, "s"),
    })
    assert t_analytics <= t_base * BUDGET_REL + BUDGET_ABS, (
        f"analytics cycle {t_analytics * 1e3:.2f} ms exceeds budget over "
        f"baseline {t_base * 1e3:.2f} ms"
    )


def test_a14_worst_jobs_artifact():
    """Render the federation-wide worst-jobs view with injected outliers."""
    _, _, plane, _, pathological = _demo_analytics_federation(
        inject_pathological=True
    )
    lines = [
        f"A14 federation-wide efficiency view "
        f"({len(plane.last_scores)} jobs, worst first):",
        "=" * 64,
    ]
    for job in plane.worst_jobs(10):
        tags = f" [{','.join(job.tags)}]" if job.tags else ""
        lines.append(
            f"  {job.member}/{job.resource}#{job.job_id:<6} "
            f"{job.application:<16} {job.score:.3f}{tags}"
        )
    lines.append("")
    lines.append(
        f"anomalies flagged: "
        + ", ".join(
            f"{a.job.member}#{a.job.job_id} ({a.kind}, z={a.zscore:.1f})"
            for a in plane.anomalies
        )
    )
    emit("a14_worst_jobs", "\n".join(lines))
    emit_metrics("a14_worst_jobs", {
        "jobs_scored": (float(len(plane.last_scores)), "jobs"),
        "anomalies_open": (float(plane.anomalies_open), "jobs"),
    })

    # the injected pathological jobs rank worst and are exactly the
    # anomalies the detector flags — no false positives
    injected = set(pathological)
    assert {(j.member, j.job_id) for j in plane.worst_jobs(2)} == injected
    assert {(a.job.member, a.job.job_id) for a in plane.anomalies} == injected
