"""Per-layer probes of the traced run.

The span table of a traced run says where *this workload's* time went.
The probes below answer the complementary question — what does each
layer cost per unit of work on this workload's data — by timing the
named public call from outside, on the finished workload's own
satellites, hub and API, after its timed region.  They are the same for
every workload, so every ``per_layer`` metric of ``BENCHMARK.json`` is a
real measurement on each of them; which end-to-end metric each should
move, and on which workload, is tabulated in README.md.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Any

from repro.aggregation import (
    TABLE1_FEDERATION_HUB,
    TABLE1_INSTANCE_A,
    AggregationConfig,
    Aggregator,
)
from repro.core import (
    FederationMonitor,
    LooseChannel,
    ReplicationChannel,
    XdmodInstance,
)
from repro.obs import Observability
from repro.ui import ApiServer, QueryService, ViewSpec
from repro.warehouse import Database, Schema, dump_schema, load_schema, write_dump_file

from harness import median_of, timed
from inputs import N_VIEWS, METRICS_URL, Sizes, url_of
from workloads import (
    FACT_TABLES,
    ProbeInputs,
    Workload,
    fact_rows,
    http_get,
)

HUB_LEVELS = AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB)
PERIODS = HUB_LEVELS.periods

Metrics = dict[str, tuple[float, str]]


def _replay(events, schema: Schema) -> Schema:
    for event in events:
        schema.apply_event(event)
    return schema


def _spread(items: list, n: int) -> list:
    """``n`` items spread evenly over ``items`` (deterministic sample)."""
    step = max(1, len(items) // n)
    return items[::step][:n]


def probe_etl(ctx: ProbeInputs, reps: int) -> Metrics:
    """Raw input -> validated records -> star schema, on a fresh instance."""
    parse_s, parsed = median_of(ctx.parse, reps)
    n_parsed = parsed if isinstance(parsed, int) else len(parsed)
    times = []
    for _ in range(reps):
        instance = XdmodInstance("probe_etl", conversion=ctx.source.pipeline.conversion)
        elapsed, (loaded, rejected) = timed(lambda: ctx.load(instance, parsed))
        times.append(elapsed)
    load_s = statistics.median(times)
    return {
        "etl.parse_s": (parse_s, "s"),
        "etl.parse_rows_per_s": (n_parsed / parse_s, "1/s"),
        "etl.star_load_s": (load_s, "s"),
        "etl.star_load_rows_per_s": (loaded / load_s, "1/s"),
        "etl.rejected_total": (rejected, "count"),
    }


def probe_warehouse(ctx: ProbeInputs, hub, reps: int, out_dir: Path) -> tuple[Metrics, float]:
    """Binlog replay, cold column arrays, dump/load, checksum."""
    source: Schema = ctx.source.schema
    events = source.binlog.read_from(0)
    records = fact_rows({"source": source})
    apply_times, column_times = [], []
    for _ in range(reps):
        elapsed, scratch = timed(lambda: _replay(events, Schema("probe_apply")))
        apply_times.append(elapsed)
        fact = max(
            (t for t in FACT_TABLES if scratch.has_table(t)),
            key=lambda t: len(scratch.table(t)),
        )
        table = scratch.table(fact)
        column_times.append(timed(
            lambda: table.column_arrays(table.schema.column_names)
        )[0])
    apply_s = statistics.median(apply_times)
    dump_s, dump = median_of(lambda: dump_schema(source), reps)
    load_s, _ = median_of(
        lambda: load_schema(Database("probe_load"), dump, rename_to="fed_probe"), reps
    )
    path = out_dir / "probe_dump.json.gz"
    write_dump_file(dump, path)
    dump_bytes = path.stat().st_size
    path.unlink()
    checksum_s, _ = median_of(
        lambda: [s.checksum() for s in hub.federated_schemas().values()], reps
    )
    return {
        "warehouse.binlog_events": (len(events), "count"),
        "warehouse.events_per_row": (len(events) / max(1, records), "ratio"),
        "warehouse.apply_s": (apply_s, "s"),
        "warehouse.apply_events_per_s": (len(events) / apply_s, "1/s"),
        "warehouse.column_arrays_s": (statistics.median(column_times), "s"),
        "warehouse.dump_s": (dump_s, "s"),
        "warehouse.load_s": (load_s, "s"),
        "warehouse.dump_bytes_per_input_byte": (dump_bytes / ctx.input_bytes, "ratio"),
        "warehouse.checksum_s": (checksum_s, "s"),
    }, apply_s


def _replicate_and_aggregate(ctx: ProbeInputs, obs: Observability) -> dict[str, Any]:
    """One satellite's history through a tight channel into a scratch hub
    schema, then a full rebuild of it, period by period."""
    target = Schema("probe_target")
    channel = ReplicationChannel(
        ctx.source.schema, target, filter=ctx.filter, obs=obs, name="probe"
    )
    replicate_s, _ = timed(channel.catch_up)
    aggregator = Aggregator(target, HUB_LEVELS, obs=obs)
    periods = {}
    for period in PERIODS:
        periods[period], _ = timed(lambda: (
            aggregator.aggregate_jobs(period),
            aggregator.aggregate_storage(period),
            aggregator.aggregate_cloud(period),
        ))
    return {
        "replicate_s": replicate_s, "events": channel.stats.events_applied,
        "periods": periods, "full_s": sum(periods.values()),
        "target": target, "aggregator": aggregator,
    }


def _incremental(ctx: ProbeInputs) -> tuple[float, int]:
    """Fold the newest 2 % of the satellite's binlog into aggregates built
    over the first 98 %; returns (seconds, new fact rows)."""
    events = ctx.source.schema.binlog.read_from(0)
    split = int(len(events) * 0.98)
    scratch = Schema("probe_incr")
    aggregator = Aggregator(scratch, HUB_LEVELS, obs=Observability.default())
    # an (empty) incremental pass creates the bookkeeping tables, which
    # the full rebuild below then keeps in sync - see README.md, findings
    aggregator.aggregate_all_incremental()
    _replay(events[:split], scratch)
    aggregator.aggregate_all()
    before = fact_rows({"scratch": scratch})
    _replay(events[split:], scratch)
    elapsed, _ = timed(aggregator.aggregate_all_incremental)
    return elapsed, fact_rows({"scratch": scratch}) - before


def probe_pipeline(ctx: ProbeInputs, hub, apply_s: float, reps: int) -> Metrics:
    """Replication, aggregation (full, incremental, level change), loose
    shipping, the monitor, and what the obs plane costs on that path."""
    on, off = [], []
    for _ in range(reps):
        on.append(_replicate_and_aggregate(ctx, Observability.default()))
        off.append(_replicate_and_aggregate(ctx, Observability.disabled()))

    def med(runs: list[dict[str, Any]], key: str) -> float:
        return statistics.median(r[key] for r in runs)

    replicate_s, full_s = med(on, "replicate_s"), med(on, "full_s")
    last = on[-1]
    target: Schema = last["target"]
    facts = fact_rows({"target": target})
    agg_rows = sum(
        len(target.table(t)) for t in target.table_names()
        if t.startswith(("agg_job_", "agg_storage_", "agg_cloud_"))
    )
    incr = [_incremental(ctx) for _ in range(reps)]
    incr_s = statistics.median(t for t, _ in incr)
    new_rows = max(1, incr[-1][1])
    reaggregate_s = statistics.median(
        timed(lambda: last["aggregator"].reaggregate(AggregationConfig(
            walltime_levels=(TABLE1_INSTANCE_A, TABLE1_FEDERATION_HUB)[i % 2]
        )))[0]
        for i in range(reps)
    )

    def ship() -> int:
        schema = LooseChannel(
            ctx.source.schema, Database("probe_hub"), "fed_probe",
            filter=ctx.filter, obs=Observability.default(),
        ).ship()
        return sum(len(schema.table(t)) for t in schema.table_names())

    loose_s, loose_rows = median_of(ship, reps)
    status_s, _ = median_of(FederationMonitor(hub).status, reps)
    channels = [m.channel for m in hub.members if m.channel is not None]
    registry = hub.obs.registry
    metrics: Metrics = {
        "core.replicate_s": (replicate_s, "s"),
        "core.replicate_events_per_s": (last["events"] / replicate_s, "1/s"),
        "core.replicator_self_s": (replicate_s - apply_s, "s"),
        "core.loose_ship_s": (loose_s, "s"),
        "core.loose_rows_per_s": (loose_rows / loose_s, "1/s"),
        "core.monitor_status_s": (status_s, "s"),
        "core.retried_total": (sum(c.stats.retries for c in channels), "count"),
        "core.quarantined_total": (
            sum(c.stats.events_quarantined for c in channels), "count"),
        "core.failed_syncs_total": (sum(
            registry.value("federation_member_syncs_total", member=m.name, status="failed")
            for m in hub.members
        ), "count"),
        "aggregation.full_s": (full_s, "s"),
        "aggregation.full_fact_rows_per_s": (facts / full_s, "1/s"),
        "aggregation.agg_rows": (agg_rows, "count"),
        "aggregation.incr_s": (incr_s, "s"),
        "aggregation.incr_ms_per_new_row": (incr_s * 1e3 / new_rows, "ms"),
        "aggregation.incr_vs_full_ratio": (incr_s / full_s, "ratio"),
        "aggregation.reaggregate_s": (reaggregate_s, "s"),
        "obs.overhead_pct": (
            100.0 * (
                (replicate_s + full_s)
                / (med(off, "replicate_s") + med(off, "full_s")) - 1.0
            ), "%"),
        "obs.spans_dropped_total": (hub.obs.tracer.spans_dropped, "count"),
    }
    for period in PERIODS:
        metrics[f"aggregation.full_{period}_s"] = (
            statistics.median(r["periods"][period] for r in on), "s")
    return metrics


def probe_reads(ctx: ProbeInputs, workload: Workload, sizes: Sizes) -> Metrics:
    """The read path from the inside out: realm query, serving layer
    (miss, hit, view refresh), REST dispatch, loopback HTTP."""
    hub, api = workload.hub, workload.api
    realms, sources = workload.realms, hub.federated_schemas()
    hot: list[ViewSpec] = ctx.hot
    tail: list[ViewSpec] = _spread(ctx.tail, sizes.tail_sample)
    reps = sizes.probe_reps

    query_times, scanned, returned = [], 0, 0
    for spec in tail:
        realm = realms[spec.realm]
        elapsed, result = timed(lambda: realm.query(
            sources, spec.metric, start=spec.start, end=spec.end,
            period=spec.period, group_by=spec.group_by, view=spec.view,
        ))
        query_times.append(elapsed)
        table = f"{realm.agg_prefix}_{spec.period}"
        scanned += sum(len(s.table(table)) for s in sources.values() if s.has_table(table))
        returned += len(result.rows)
    query_s = statistics.median(query_times)

    service = QueryService(realms, sources, obs=Observability.default())
    miss_times = [
        timed(lambda: service.respond(spec.params(), chart=spec.chart))[0]
        for spec in tail
    ]
    miss_s = statistics.median(miss_times)

    def cold_views() -> int:
        fresh = QueryService(realms, sources, obs=Observability.default())
        fresh.register_views(hot[:N_VIEWS])
        return fresh.materialize()

    materialize_s, _ = median_of(cold_views, reps)

    # the workload's own API, warm: every hot URL has been asked once
    for spec in hot:
        api.handle_http(url_of(spec), {})
    rounds = range(max(1, 200 // len(hot)))
    hit_s = statistics.median(
        timed(lambda: api.serving.respond(spec.params(), chart=spec.chart))[0]
        for _ in rounds for spec in hot
    )
    dispatch_s = statistics.median(
        timed(lambda: api.handle_http(url_of(spec), {}))[0]
        for _ in rounds for spec in hot
    )
    http_times, sizes_out = [], []
    with ApiServer(api) as server:
        host, port = server.address
        for _ in rounds:
            for spec in hot:
                elapsed, (_, body) = timed(lambda: http_get(host, port, url_of(spec)))
                http_times.append(elapsed)
                sizes_out.append(len(body))
    render_s, _ = median_of(lambda: api.handle_http(METRICS_URL, {}), reps * 3)

    return {
        "realms.query_s": (query_s, "s"),
        "realms.rows_scanned_per_result_row": (scanned / max(1, returned), "ratio"),
        "ui.serving.respond_hit_s": (hit_s, "s"),
        "ui.serving.respond_miss_s": (miss_s, "s"),
        "ui.serving.self_miss_s": (statistics.median(
            miss - query for miss, query in zip(miss_times, query_times)), "s"),
        "ui.serving.materialize_s": (materialize_s, "s"),
        "ui.rest.handle_http_hit_s": (dispatch_s, "s"),
        "ui.rest.self_s": (dispatch_s - hit_s, "s"),
        "ui.rest.http_overhead_s": (statistics.median(http_times) - dispatch_s, "s"),
        "ui.rest.bytes_out_p50": (statistics.median(sizes_out), "bytes"),
        "obs.metrics_render_s": (render_s, "s"),
    }


def serving_counters(hub) -> Metrics:
    """What the serving cache did during the workload's own run."""
    registry = hub.obs.registry
    lookups = {
        result: registry.value("serving_cache_lookups_total", result=result)
        for result in ("hit", "miss", "stale")
    }
    return {
        "ui.serving.hit_ratio": (
            lookups["hit"] / max(1.0, sum(lookups.values())), "ratio"),
        "ui.serving.evictions": (
            registry.value("serving_cache_evictions_total"), "count"),
        "ui.serving.stale_total": (lookups["stale"], "count"),
    }


def run_probes(workload: Workload, sizes: Sizes, out_dir: Path) -> Metrics:
    """Every probe, on the finished ``workload``'s own state."""
    ctx = workload.probe_inputs()
    reps = sizes.probe_reps
    # read before any probe sends requests of its own through the same API
    metrics = serving_counters(workload.hub)
    metrics.update(probe_etl(ctx, reps))
    warehouse, apply_s = probe_warehouse(ctx, workload.hub, reps, out_dir)
    metrics.update(warehouse)
    metrics.update(probe_pipeline(ctx, workload.hub, apply_s, reps))
    metrics.update(probe_reads(ctx, workload, sizes))
    return metrics
