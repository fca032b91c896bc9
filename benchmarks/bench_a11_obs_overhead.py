"""Ablation A11: telemetry overhead on the instrumented hot paths.

The observability layer (metrics registry + tracer, ``repro.obs``) is
wired into the two hottest paths — nightly aggregation and tight
replication.  Instrumentation is deliberately batch-level (stat deltas
published per pump / per build, cached labelled children), so the
budget is tight: the instrumented run must stay within 5% of the bare
run (plus a small absolute slack for sub-millisecond timings).

Also renders the populated registry through ``GET /metrics`` and saves
it under ``out/`` — CI uploads that snapshot as a workflow artifact.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.aggregation import Aggregator
from repro.core import ReplicationChannel
from repro.obs import Observability, parse_prometheus_text
from repro.timeutil import SECONDS_PER_HOUR, ts
from repro.ui import XdmodApi
from repro.warehouse import Database

from bench_a10_columnar_agg import _jobs_schema
from conftest import emit, emit_metrics

T0 = ts(2017, 1, 1)

BUDGET_REL = 1.05  # instrumented within 5% of bare ...
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


def _overhead_lines(title: str, t_bare: float, t_instr: float) -> list[str]:
    overhead = (t_instr / t_bare - 1.0) * 100 if t_bare > 0 else 0.0
    return [
        title,
        f"  bare (no obs attached):      {t_bare * 1e3:.2f} ms",
        f"  instrumented (default obs):  {t_instr * 1e3:.2f} ms",
        f"  overhead: {overhead:+.1f}% (budget {(BUDGET_REL - 1) * 100:.0f}%"
        f" + {BUDGET_ABS * 1e3:.0f} ms slack)",
    ]


def _replication_source(n: int):
    """A satellite schema with ``n`` binlogged fact rows to stream."""
    from repro.etl.star import create_jobs_star

    source = Database("satellite").create_schema("modw")
    create_jobs_star(source)
    fact = source.table("fact_job")
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
    return source


@pytest.mark.parametrize("n_jobs", [4000, 40000])
def test_a11_aggregation_overhead(n_jobs):
    schema = _jobs_schema(n_jobs)
    obs = Observability.default()
    bare = Aggregator(schema)
    instrumented = Aggregator(schema, obs=obs)
    # warm both paths so column caches and dimension lookups are shared
    bare.aggregate_jobs("month")
    instrumented.aggregate_jobs("month")

    t_bare = _min_time(lambda: bare.aggregate_jobs("month"))
    t_instr = _min_time(lambda: instrumented.aggregate_jobs("month"))

    emit(f"a11_obs_overhead_agg_{n_jobs}", "\n".join(_overhead_lines(
        f"A11 telemetry overhead, jobs aggregation over {n_jobs} fact rows:",
        t_bare, t_instr,
    )))
    emit_metrics(f"a11_obs_overhead_agg_{n_jobs}", {
        "bare_time": (t_bare, "s"),
        "instrumented_time": (t_instr, "s"),
    })
    assert obs.registry.value(
        "aggregation_rows_total", realm="jobs", mode="full"
    ) > 0
    assert t_instr <= t_bare * BUDGET_REL + BUDGET_ABS, (
        f"instrumented aggregation {t_instr * 1e3:.2f} ms exceeds budget "
        f"over bare {t_bare * 1e3:.2f} ms"
    )


@pytest.mark.parametrize("n_events", [4000, 40000])
def test_a11_replication_overhead(n_events):
    source = _replication_source(n_events)

    def run(obs):
        hub = Database(
            "hub", metrics=obs.registry if obs is not None else None
        )
        target = hub.create_schema("fed_satellite")
        channel = ReplicationChannel(
            source, target, obs=obs, name="satellite"
        )
        channel.catch_up()

    obs = Observability.default()
    run(None)  # warm-up
    t_bare = _min_time(lambda: run(None))
    t_instr = _min_time(lambda: run(obs))

    emit(f"a11_obs_overhead_repl_{n_events}", "\n".join(_overhead_lines(
        f"A11 telemetry overhead, tight replication of {n_events}+ events:",
        t_bare, t_instr,
    )))
    emit_metrics(f"a11_obs_overhead_repl_{n_events}", {
        "bare_time": (t_bare, "s"),
        "instrumented_time": (t_instr, "s"),
    })
    assert obs.registry.value(
        "replication_events_applied_total", channel="satellite"
    ) > 0
    assert t_instr <= t_bare * BUDGET_REL + BUDGET_ABS, (
        f"instrumented replication {t_instr * 1e3:.2f} ms exceeds budget "
        f"over bare {t_bare * 1e3:.2f} ms"
    )


def test_a11_metrics_snapshot_artifact():
    """Render a populated registry exactly as ``GET /metrics`` serves it."""
    obs = Observability.default()
    schema = _jobs_schema(2000)
    Aggregator(schema, obs=obs).aggregate_jobs("month")
    source = _replication_source(500)
    target = Database("hub", metrics=obs.registry).create_schema(
        "fed_satellite"
    )
    ReplicationChannel(source, target, obs=obs, name="satellite").catch_up()

    api = XdmodApi({}, {}, obs=obs)
    status, content_type, body = api.handle_raw("/metrics", {})
    assert status == 200
    text = body.decode("utf-8")
    parsed = parse_prometheus_text(text)
    assert parsed.value(
        "replication_events_applied_total", channel="satellite"
    ) > 0
    emit("a11_metrics_snapshot", text.rstrip("\n"))
    emit_metrics("a11_metrics_snapshot", {
        "snapshot_size": (float(len(body)), "bytes"),
    })
