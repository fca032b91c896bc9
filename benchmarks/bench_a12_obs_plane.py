"""Ablation A12: cost of the observability plane on the sync cycle.

PR 4 instrumented the hub's hot paths (metrics registry + tracer); this
ablation prices what the observability *plane* adds on top: the metrics
history snapshot taken after every sync cycle plus a full SLO rule
evaluation per cycle.  The baseline arm is the PR-4 configuration — a
fully instrumented hub with ``obs.history.enabled = False`` and no alert
engine — so the measured delta is exactly history recording + alert
evaluation.  Budget: within 5% (plus a small absolute slack for
sub-millisecond cycles).

Also renders the alert table from a fault-injected demo federation and
saves it under ``out/`` — CI uploads that report as a workflow artifact.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.cli import _demo_federation
from repro.core import FederationHub, XdmodInstance
from repro.obs import AlertEngine, Observability
from repro.timeutil import SECONDS_PER_HOUR, ts

from conftest import emit, emit_metrics

T0 = ts(2017, 1, 1)

BUDGET_REL = 1.05  # plane-enabled within 5% of the PR-4 baseline ...
BUDGET_ABS = 0.05  # ... plus 50 ms slack so tiny timings cannot flake
REPEATS = 5
BATCH = 200  # events pumped per sync cycle (many cycles per run)


def _min_time(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time; min is the standard noise-robust estimator."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _satellite(n: int) -> XdmodInstance:
    """An instance with ``n`` binlogged fact rows ready to replicate.

    Satellite telemetry is disabled so both arms pay identical
    satellite-side costs; the plane under test lives on the hub.
    """
    from repro.etl.star import create_jobs_star

    sat = XdmodInstance("satellite", obs=Observability.disabled())
    create_jobs_star(sat.schema)
    fact = sat.schema.table("fact_job")
    rng = random.Random(13)
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
    return sat


def _run_sync_cycles(sat: XdmodInstance, *, plane: bool) -> Observability:
    """Replicate the satellite's backlog in BATCH-sized sync cycles.

    ``plane=True`` is the configuration this PR ships (history recording
    inside ``hub.sync`` plus an alert evaluation per cycle);
    ``plane=False`` reproduces the PR-4 instrumented baseline.
    """
    hub = FederationHub("hub")
    hub.obs.history.enabled = plane
    hub.join(sat, mode="tight", initial_sync=False)
    engine = AlertEngine(hub.obs.history) if plane else None
    members = [m.name for m in hub.members]
    while sum(hub.lag().values()):
        hub.sync(batch=BATCH)
        if engine is not None:
            engine.evaluate(members)
    return hub.obs


@pytest.mark.parametrize("n_events", [4000, 20000])
def test_a12_obs_plane_overhead(n_events):
    sat = _satellite(n_events)
    _run_sync_cycles(sat, plane=True)  # warm-up

    t_base = _min_time(lambda: _run_sync_cycles(sat, plane=False))
    t_plane = _min_time(lambda: _run_sync_cycles(sat, plane=True))

    overhead = (t_plane / t_base - 1.0) * 100 if t_base > 0 else 0.0
    cycles = -(-n_events // BATCH)
    emit(f"a12_obs_plane_{n_events}", "\n".join([
        f"A12 observability-plane overhead, {n_events} events in "
        f"{cycles} sync cycles of {BATCH}:",
        f"  PR-4 baseline (no history/alerts): {t_base * 1e3:.2f} ms",
        f"  history + alert eval per cycle:    {t_plane * 1e3:.2f} ms",
        f"  overhead: {overhead:+.1f}% (budget {(BUDGET_REL - 1) * 100:.0f}%"
        f" + {BUDGET_ABS * 1e3:.0f} ms slack)",
    ]))
    emit_metrics(f"a12_obs_plane_{n_events}", {
        "baseline_time": (t_base, "s"),
        "plane_time": (t_plane, "s"),
    })

    obs = _run_sync_cycles(sat, plane=True)
    assert obs.history.last(
        "federation_member_syncs_total", member="satellite"
    ) is not None
    assert t_plane <= t_base * BUDGET_REL + BUDGET_ABS, (
        f"observability plane {t_plane * 1e3:.2f} ms exceeds budget over "
        f"baseline {t_base * 1e3:.2f} ms"
    )


def test_a12_alert_report_artifact():
    """Render the alert table a fault-injected federation produces."""
    _, _, monitor = _demo_federation(inject_faults=True)
    report = monitor.alerts.render()
    firing = {s.rule.id for s in monitor.alerts.firing()}
    assert "sync_failure_burn_rate" in firing
    emit("a12_alert_report", report)
    emit_metrics("a12_alert_report", {
        "alerts_firing": (float(len(firing)), "alerts"),
    })
