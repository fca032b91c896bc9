"""Ablation A1: tight vs loose federation — sync cost and staleness.

The paper offers both coupling modes (Section II-C1/C2) without measuring
them; this bench quantifies the trade: tight replication pays a small
per-event streaming cost and is never stale; loose federation ships the
whole schema once, then a binlog segment of the events since the last
ship, and is stale between shipments.
"""

from __future__ import annotations

import pytest

from repro.core import LooseChannel, ReplicationChannel, XdmodInstance
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Database

from conftest import emit, emit_metrics

N_BASE = 2000
N_DELTA = 100


def _jobs(start_id: int, n: int):
    return [
        ParsedJob(
            job_id=start_id + i, user=f"u{i % 37}", pi=f"pi{i % 7}",
            queue="normal", application=f"app{i % 11}",
            submit_ts=ts(2017, 1, 1) + i * 60,
            start_ts=ts(2017, 1, 1) + i * 60 + 300,
            end_ts=ts(2017, 1, 1) + i * 60 + 7500,
            nodes=1, cores=8, req_walltime_s=7200,
            state="COMPLETED", exit_code=0, resource="r1",
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def satellite():
    instance = XdmodInstance("satellite")
    ingest_jobs(instance.schema, _jobs(0, N_BASE))
    return instance


def test_a1_tight_incremental_sync(benchmark, satellite):
    """Cost of streaming a fresh delta through an up-to-date channel."""
    hub_db = Database("hub")
    target = hub_db.create_schema("fed_satellite")
    channel = ReplicationChannel(satellite.schema, target)
    channel.catch_up()
    state = {"next_id": 10**6}

    def setup():
        ingest_jobs(satellite.schema, _jobs(state["next_id"], N_DELTA))
        state["next_id"] += N_DELTA
        return (), {}

    def sync():
        return channel.catch_up()

    benchmark.pedantic(sync, setup=setup, rounds=20)
    assert channel.lag == 0

    emit("a1_tight", "\n".join([
        f"A1 (tight): {N_DELTA}-job delta streams through an open channel;",
        f"  events applied lifetime: {channel.stats.events_applied}",
        "  staleness between syncs: 0 events (live replication)",
    ]))
    emit_metrics("a1_tight", {
        "delta_sync_time": (benchmark.stats.stats.mean, "s"),
        "events_applied": (float(channel.stats.events_applied), "events"),
    })


def test_a1_loose_reship(benchmark, satellite):
    """Cost of a loose re-ship after a fresh delta: a binlog segment."""
    hub_db = Database("hub2")
    channel = LooseChannel(satellite.schema, hub_db, "fed_satellite")
    channel.ship()
    dumped_rows = channel.stats.rows_moved
    state = {"next_id": 2 * 10**6, "staleness": []}

    def setup():
        ingest_jobs(satellite.schema, _jobs(state["next_id"], N_DELTA))
        state["next_id"] += N_DELTA
        state["staleness"].append(channel.staleness)
        return (), {}

    benchmark.pedantic(channel.ship, setup=setup, rounds=20)

    stats = channel.stats
    per_reship = stats.events_moved / stats.segments
    emit("a1_loose", "\n".join([
        f"A1 (loose): the first ship dumps the whole schema ({dumped_rows} "
        f"rows); each re-ship sends a binlog segment ({per_reship:.0f} "
        f"events moved to deliver a {N_DELTA}-job delta)",
        f"  staleness before each shipment: {max(state['staleness'])} events",
        "  => tight wins on freshness; loose needs no live binlog "
        "connection (the paper's motivation for offering both)",
    ]))
    emit_metrics("a1_loose", {
        "reship_time": (benchmark.stats.stats.mean, "s"),
        "moved_per_reship": (per_reship, "events"),
    })
    assert (stats.dumps, stats.segments) == (1, 20)
    assert per_reship == N_DELTA
    assert min(state["staleness"]) >= N_DELTA
    assert channel.staleness == 0
