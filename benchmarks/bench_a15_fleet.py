"""Ablation A15: cost of the federated telemetry plane at fleet scale.

The federated telemetry plane makes every healthy sync turn scrape the
member's metrics registry into the hub's fleet TSDB.  This ablation
prices that plane on an N-satellite federation (N up to 32) where every
satellite runs a fully *enabled* observability bundle: the baseline arm
disables the fleet TSDB (so nothing is scraped), the measured arm is
the default configuration.  Budget: within 5% (plus a small absolute
slack for sub-millisecond cycles).  The two arms alternate rep by rep,
in alternating order, and each keeps its best time, so drift in machine
state lands on both arms alike instead of on whichever ran second.

A supporting measurement prices the hub-side cost of one
``MetricsHistory.scrape`` in isolation.

Also renders the fleet dashboard from the fault-injected demo
federation and saves it under ``out/`` — CI uploads that report as a
workflow artifact.  The render must be byte-identical across two
independent builds (FakeClock + seeded workloads make the whole
scenario deterministic).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.cli import _demo_fleet_federation
from repro.core import FederationHub, XdmodInstance
from repro.obs import FakeClock, MetricsHistory, MetricsRegistry, Observability
from repro.obs.history import SEQ_SERIES
from repro.timeutil import SECONDS_PER_HOUR, ts

from conftest import emit, emit_metrics

T0 = ts(2017, 1, 1)

BUDGET_REL = 1.05  # fleet-enabled within 5% of the bare sync cycle ...
BUDGET_ABS = 0.05  # ... plus 50 ms slack so tiny timings cannot flake
REPEATS = 5
EVENTS_PER_SAT = 300


def _best_times(*arms, repeats: int = REPEATS) -> list[float]:
    """Best-of-N wall time per arm (min is the standard noise-robust
    estimator).  Each rep runs every arm once, forwards on even reps and
    backwards on odd ones, so no arm always runs first or last."""
    best = [float("inf")] * len(arms)
    for rep in range(repeats):
        order = range(len(arms)) if rep % 2 == 0 else reversed(range(len(arms)))
        for i in order:
            t0 = time.perf_counter()
            arms[i]()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _satellite(idx: int, n: int) -> XdmodInstance:
    """An instance with ``n`` binlogged fact rows ready to replicate.

    Unlike A12, satellite telemetry is *enabled*: the scrapes under
    test read each satellite's real registry, so both arms must pay the
    identical satellite-side instrumentation cost.
    """
    from repro.etl.star import create_jobs_star

    sat = XdmodInstance(
        f"sat{idx:02d}",
        obs=Observability(clock=FakeClock(), name=f"sat{idx:02d}"),
    )
    create_jobs_star(sat.schema)
    fact = sat.schema.table("fact_job")
    rng = random.Random(100 + idx)
    rows = []
    for i in range(n):
        start = T0 + rng.randrange(0, 300 * 86400)
        wall = rng.randrange(1, 86400)
        cores = (1, 4, 16)[i % 3]
        rows.append({
            "job_id": i + 1, "resource_id": 1 + i % 3,
            "person_id": 1 + i % 12, "pi_id": 1 + i % 4,
            "app_id": 1 + i % 6, "queue_id": 1,
            "submit_ts": start - 600, "start_ts": start,
            "end_ts": start + wall, "walltime_s": wall,
            "wait_s": 600, "req_walltime_s": wall + 60,
            "nodes": max(1, cores // 16), "cores": cores,
            "cpu_hours": cores * wall / SECONDS_PER_HOUR,
            "node_hours": max(1, cores // 16) * wall / SECONDS_PER_HOUR,
            "xdsu": 1.2 * cores * wall / SECONDS_PER_HOUR,
            "state": "completed", "exit_code": 0,
        })
    fact.upsert_rows(tuple(rows[0]), [tuple(row.values()) for row in rows])
    # flesh out the registry so scrapes carry a representative payload
    # (labelled counters + histogram buckets, like a real ETL satellite)
    ingested = sat.obs.registry.counter(
        "bench_ingest_rows", "Synthetic per-satellite ingest volume",
        ("source",),
    )
    ingested.labels(source="sacct").inc(n)
    latency = sat.obs.registry.histogram(
        "bench_phase_seconds", "Synthetic per-satellite phase latency",
        ("phase",),
    )
    for phase in ("shred", "ingest", "aggregate"):
        for _ in range(20):
            latency.labels(phase=phase).observe(rng.random())
    return sat


def _run_sync_cycles(sats: list[XdmodInstance], *, fleet: bool) -> FederationHub:
    """Replicate every satellite's backlog with default sync cycles.

    Each ``hub.sync()`` is one full catch-up cycle — the shape every
    caller in this repo uses — so the plane is priced as it runs in
    production: one scrape per member per healthy cycle.  ``fleet=True``
    is the default configuration; ``fleet=False`` disables the fleet
    TSDB, so the cycle is the bare sync.
    """
    hub = FederationHub("hub")
    hub.fleet.enabled = fleet
    for sat in sats:
        hub.join(sat, mode="tight", initial_sync=False)
    while sum(hub.lag().values()):
        hub.sync()
    return hub


@pytest.mark.parametrize("n_sats", [8, 32])
def test_a15_fleet_overhead(n_sats):
    sats = [_satellite(i, EVENTS_PER_SAT) for i in range(n_sats)]
    _run_sync_cycles(sats, fleet=True)  # warm-up

    t_bare, t_fleet = _best_times(
        lambda: _run_sync_cycles(sats, fleet=False),
        lambda: _run_sync_cycles(sats, fleet=True),
    )

    hub = _run_sync_cycles(sats, fleet=True)
    assert hub.fleet.label_values(SEQ_SERIES, "member") == sorted(
        s.name for s in sats
    )
    # a satellite-local series is visible under its label
    assert hub.fleet.last("bench_ingest_rows", member=sats[0].name) is not None
    n_series = len(hub.fleet.series_keys())
    overhead = (t_fleet / t_bare - 1.0) * 100 if t_bare > 0 else 0.0
    emit(f"a15_fleet_{n_sats}", "\n".join([
        f"A15 federated telemetry plane, {n_sats} satellites x "
        f"{EVENTS_PER_SAT} events per full-catch-up sync cycle:",
        f"  bare sync cycles (fleet disabled): {t_bare * 1e3:.2f} ms",
        f"  scrapes into the fleet TSDB:       {t_fleet * 1e3:.2f} ms",
        f"  overhead: {overhead:+.1f}% (budget {(BUDGET_REL - 1) * 100:.0f}%"
        f" + {BUDGET_ABS * 1e3:.0f} ms slack)",
        f"  fleet series stored: {n_series}",
    ]))
    emit_metrics(f"a15_fleet_{n_sats}", {
        "bare_time": (t_bare, "s"),
        "fleet_time": (t_fleet, "s"),
        "fleet_series": (float(n_series), "series"),
    })
    assert t_fleet <= t_bare * BUDGET_REL + BUDGET_ABS, (
        f"fleet telemetry plane {t_fleet * 1e3:.2f} ms exceeds budget over "
        f"bare sync {t_bare * 1e3:.2f} ms"
    )


def test_a15_scrape_merge_cost():
    """Hub-side cost of one scrape, isolated from sync."""
    sat = _satellite(0, EVENTS_PER_SAT)
    hub = _run_sync_cycles([sat], fleet=True)
    registry = sat.obs.registry
    n_scrapes = 200

    def scrape_all():
        clock = FakeClock()
        fleet = MetricsHistory(MetricsRegistry(enabled=False), clock)
        for _ in range(n_scrapes):
            clock.advance(1.0)  # one tick per scrape: each appends
            fleet.scrape("sat00", registry)

    (t,) = _best_times(scrape_all)
    per_scrape_us = t / n_scrapes * 1e6
    n_samples = sum(1 for _ in registry.iter_exposition_samples())
    emit("a15_scrape_merge", "\n".join([
        f"A15 fleet scrape cost ({n_scrapes} scrapes of {n_samples} samples):",
        f"  {per_scrape_us:.0f} us per scrape",
    ]))
    emit_metrics("a15_scrape_merge", {
        "scrape_time": (per_scrape_us / 1e6, "s"),
    })
    assert hub.fleet.last(SEQ_SERIES, member="sat00") > 0


def test_a15_fleet_dashboard_artifact():
    """Render the fleet dashboard the fault-injected demo produces.

    The scenario is fully deterministic (FakeClock everywhere, seeded
    workloads), so two independent builds must render byte-identical
    dashboards — the acceptance bar for the fleet view.
    """
    _, _, monitor = _demo_fleet_federation(inject_faults=True)
    board = monitor.render_fleet()
    _, _, monitor2 = _demo_fleet_federation(inject_faults=True)
    assert monitor2.render_fleet() == board

    firing = {s.rule.id for s in monitor.alerts.firing()}
    assert "fleet_telemetry_stale" in firing
    stale = monitor.stale_members()
    assert stale == ["site2"]
    emit("a15_fleet_dashboard", board)
    emit_metrics("a15_fleet_dashboard", {
        "stale_members": (float(len(stale)), "members"),
        "fleet_alerts_firing": (
            float(sum(
                1 for s in monitor.alerts.firing() if s.rule.scope == "fleet"
            )),
            "alerts",
        ),
    })
