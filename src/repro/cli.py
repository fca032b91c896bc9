"""Command-line interface: the ``xdmod-*`` operational commands.

Open XDMoD ships shell tools (``xdmod-shredder``, ``xdmod-ingestor``, …)
that site administrators wire into cron.  ``xdmod-repro`` bundles the
equivalents for this reproduction:

- ``demo``      — end-to-end single-instance demo on synthetic data
- ``shred``     — parse a sacct log file and report what it contains
- ``simulate``  — generate a synthetic sacct log for a preset resource
- ``federate``  — run the three-site Figure 1 federation and print the chart
- ``validate``  — validate a storage-snapshot JSON file against the schema
- ``report``    — generate a monthly utilization report (markdown)
- ``serve``     — run the HTTP JSON API on a demo instance
- ``snapshot``  — save/restore a demo instance database to a directory
- ``lint``      — schema-aware static analysis (repolint) over the tree
- ``obs``       — dump telemetry: Prometheus metrics, slow spans, traces
- ``analytics`` — SUPReMM-style job summarization and anomaly detection
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import XdmodInstance
    from .realms import jobs_realm
    from .simulators import WorkloadGenerator, ccr_like_site, simulate_resource, to_sacct_log
    from .timeutil import ts
    from .ui import ChartBuilder, render_table

    site = ccr_like_site(scale=args.scale)
    start, end = ts(2017, 1, 1), ts(2017, 7, 1)
    records = simulate_resource(
        site.resource, WorkloadGenerator(site.workload).generate(start, end)
    )
    instance = XdmodInstance("demo")
    instance.pipeline.ingest_sacct(
        to_sacct_log(records), default_resource=site.name
    )
    instance.aggregate(["month"])
    chart = ChartBuilder(jobs_realm(), instance.schema).timeseries(
        "cpu_hours", start=start, end=end, group_by="queue",
        title=f"CPU hours by queue on {site.name} ({len(records)} jobs)",
    )
    print(render_table(chart))
    return 0


def _cmd_shred(args: argparse.Namespace) -> int:
    from .etl import parse_sacct_log

    text = Path(args.logfile).read_text()
    jobs = list(parse_sacct_log(text, strict=not args.lenient))
    states: dict[str, int] = {}
    cpu_hours = 0.0
    for job in jobs:
        states[job.state] = states.get(job.state, 0) + 1
        cpu_hours += job.cores * job.walltime_s / 3600.0
    print(f"parsed {len(jobs)} jobs, {cpu_hours:,.1f} CPU hours")
    for state in sorted(states):
        print(f"  {state}: {states[state]}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulators import WorkloadGenerator, ccr_like_site, simulate_resource, to_sacct_log
    from .timeutil import ts

    site = ccr_like_site(scale=args.scale, seed=args.seed)
    start = ts(args.year, 1, 1)
    end = ts(args.year + 1, 1, 1) if args.months >= 12 else ts(
        args.year, args.months + 1, 1
    )
    records = simulate_resource(
        site.resource, WorkloadGenerator(site.workload).generate(start, end)
    )
    log = to_sacct_log(records)
    if args.output == "-":
        sys.stdout.write(log)
    else:
        Path(args.output).write_text(log)
        print(f"wrote {len(records)} jobs to {args.output}")
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    from .core import FederationHub, XdmodInstance, check_federation, standardize_federation
    from .realms import jobs_realm
    from .simulators import WorkloadGenerator, figure1_sites, simulate_resource, to_sacct_log
    from .timeutil import ts
    from .ui import ChartBuilder, render_table

    sites = figure1_sites(scale=args.scale)
    conversion, _ = standardize_federation(
        {name: preset.resource for name, preset in sites.items()}
    )
    hub = FederationHub("hub", conversion=conversion)
    start, end = ts(2017, 1, 1), ts(2018, 1, 1)
    for name, preset in sites.items():
        instance = XdmodInstance(f"site_{name}", conversion=conversion)
        records = simulate_resource(
            preset.resource, WorkloadGenerator(preset.workload).generate(start, end)
        )
        instance.pipeline.ingest_sacct(
            to_sacct_log(records), default_resource=name
        )
        hub.join(instance, mode="tight")
        print(f"federated {name}: {len(records)} jobs", file=sys.stderr)
    hub.aggregate_federation(["month"])
    check = check_federation(hub, strict=True)
    print(f"consistency: {'OK' if check.ok else 'FAILED'}", file=sys.stderr)
    if args.monitor:
        from .core import FederationMonitor

        print(FederationMonitor(hub).render(), file=sys.stderr)
    chart = ChartBuilder(jobs_realm(), hub.federated_schemas()).timeseries(
        "xdsu", start=start, end=end, group_by="resource", top_n=3,
        title="Figure 1: top resources by XD SUs charged, 2017",
    )
    print(render_table(chart))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .etl import STORAGE_SNAPSHOT_SCHEMA, JsonSchemaError, validate

    documents = json.loads(Path(args.jsonfile).read_text())
    if isinstance(documents, dict):
        documents = [documents]
    errors = 0
    for i, doc in enumerate(documents):
        try:
            validate(doc, STORAGE_SNAPSHOT_SCHEMA)
        except JsonSchemaError as exc:
            errors += 1
            print(f"document {i}: {exc}")
    print(f"{len(documents) - errors}/{len(documents)} documents valid")
    return 1 if errors else 0


def _demo_instance(scale: float, months: int = 6):
    """Shared builder: a single-site instance with aggregated data."""
    from .core import XdmodInstance
    from .simulators import (
        ConversionTable,
        WorkloadGenerator,
        ccr_like_site,
        simulate_resource,
        to_sacct_log,
    )
    from .timeutil import ts

    site = ccr_like_site(scale=scale)
    start = ts(2017, 1, 1)
    end = ts(2017, months + 1, 1) if months < 12 else ts(2018, 1, 1)
    records = simulate_resource(
        site.resource, WorkloadGenerator(site.workload).generate(start, end)
    )
    conversion = ConversionTable.benchmark_resources({site.name: site.resource})
    instance = XdmodInstance("demo", conversion=conversion)
    instance.pipeline.ingest_sacct(
        to_sacct_log(records), default_resource=site.name
    )
    instance.aggregate(["month"])
    return instance, site, (start, end)


def _cmd_report(args: argparse.Namespace) -> int:
    from .realms import jobs_realm
    from .ui import ChartBuilder, ChartSpec, ReportDefinition, ReportGenerator

    instance, site, (start, end) = _demo_instance(args.scale)
    definition = ReportDefinition(
        name="monthly_utilization",
        title=f"Monthly Utilization Report: {site.name}",
        charts=(
            ChartSpec("CPU hours by queue", "cpu_hours", group_by="queue"),
            ChartSpec("Top applications by XD SUs", "xdsu",
                      group_by="application", top_n=5),
            ChartSpec("Jobs ended", "n_jobs_ended"),
            ChartSpec("Average wait hours", "avg_wait_hours"),
        ),
    )
    generator = ReportGenerator(
        ChartBuilder(jobs_realm(), instance.schema),
        instance_label=instance.name,
    )
    report = generator.generate(definition, start=start, end=end)
    if args.output == "-":
        sys.stdout.write(report.markdown)
    else:
        Path(args.output).write_text(report.markdown)
        print(f"wrote report to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import Observability
    from .realms import cloud_realm, jobs_realm, storage_realm
    from .ui import ApiServer, ViewSpec, XdmodApi

    instance, _, (start, end) = _demo_instance(args.scale)
    obs = Observability.default()
    api = XdmodApi(
        {"jobs": jobs_realm(), "storage": storage_realm(),
         "cloud": cloud_realm()},
        instance.schema,
        obs=obs,
        cache=not args.no_cache,
    )
    # the portal's standing charts, kept warm ahead of the first request
    api.serving.register_views([
        ViewSpec("jobs", "cpu_hours", start, end, group_by="queue"),
        ViewSpec("jobs", "xdsu", start, end, group_by="application",
                 chart=True, top_n=5, title="Top applications by XD SUs"),
        ViewSpec("jobs", "n_jobs_ended", start, end),
    ])
    warmed = api.serving.materialize()
    server = ApiServer(api, host=args.host, port=args.port).start()
    cache_note = (
        "cache off" if args.no_cache else f"{warmed} views pre-materialized"
    )
    print(f"XDMoD API listening on {server.url} "
          f"(try {server.url}/realms; {cache_note}); Ctrl-C to stop")
    if args.once:  # test hook: don't block
        server.stop()
        return 0
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover
        server.stop()
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .warehouse import load_database, save_database, snapshot_info

    if args.action == "save":
        instance, _, _ = _demo_instance(args.scale)
        save_database(instance.database, args.directory)
        print(f"saved instance database to {args.directory}")
        return 0
    if args.action == "info":
        info = snapshot_info(args.directory)
        print(f"database: {info['database']}")
        for entry in info["schemas"]:
            print(f"  {entry['name']:<20} binlog head {entry['binlog_head']}")
        return 0
    database = load_database(args.directory)
    total_rows = 0
    for schema_name in database.schema_names():
        schema = database.schema(schema_name)
        rows = sum(len(schema.table(t)) for t in schema.table_names())
        total_rows += rows
        print(f"  {schema_name}: {len(schema.table_names())} tables, {rows} rows")
    print(f"restored {database.name!r}: {total_rows} rows total")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.runner import run_lint

    return run_lint(args)


#: seconds a demo federation's clock moves before each operation
DEMO_TICK_S = 1.0


def _demo_hub():
    """A demo federation's hub, on a fake clock its satellites share and
    only :func:`_ticked` moves, so a demo build — and everything it
    renders — is deterministic however often the code reads the clock."""
    from .core import FederationHub
    from .obs import FakeClock, Observability

    return FederationHub("hub", obs=Observability(clock=FakeClock(), name="hub"))


def _ticked(hub, *steps) -> None:
    """Run a demo's operations (sync cycles, ships, alert evaluations) in
    order, its clock :data:`DEMO_TICK_S` on before each."""
    for step in steps:
        hub.obs.clock.advance(DEMO_TICK_S)
        step()


def _demo_site(i: int, clock, *, scale: float, seed: int, days: int):
    """Satellite ``site<i>`` of the demo federations, on ``clock``.

    Simulates ``days`` days of jobs from 2017-01-01 on a CCR-like preset
    and ingests them as sacct text inside an ``ingest_batch`` span, so
    every replicated event carries trace context into the hub.  Returns
    the instance, the preset and the records.
    """
    from .core import XdmodInstance
    from .obs import Observability
    from .simulators import (
        WorkloadGenerator,
        ccr_like_site,
        simulate_resource,
        to_sacct_log,
    )
    from .timeutil import ts

    instance = XdmodInstance(f"site{i}", obs=Observability(clock=clock, name=f"site{i}"))
    site = ccr_like_site(scale=scale, seed=seed)
    records = simulate_resource(
        site.resource,
        WorkloadGenerator(site.workload).generate(ts(2017, 1, 1), ts(2017, 1, 1 + days)),
    )
    with instance.obs.tracer.span("ingest_batch", site=instance.name):
        instance.pipeline.ingest_sacct(
            to_sacct_log(records), default_resource=site.name
        )
    return instance, site, records


def _demo_federation(*, inject_faults: bool = False, days: int = 3):
    """Two-site federation (tight + loose) on one fake clock.

    The shared builder behind ``obs trace --federated`` and ``obs
    alerts``.  With ``inject_faults`` the tight member joins with a
    backlog and a target schema that always fails, so sync cycles record
    ``failed`` outcomes and the burn-rate alert fires.
    """
    from .core import FederationMonitor
    from .core.faults import FaultPlan, inject_apply_faults

    hub = _demo_hub()
    satellites = []
    for i, mode in enumerate(("tight", "loose")):
        instance, _, _ = _demo_site(i, hub.obs.clock, scale=0.05, seed=20 + i, days=days)
        hub.join(
            instance, mode=mode,
            initial_sync=not (inject_faults and mode == "tight"),
        )
        satellites.append(instance)
    if inject_faults:
        inject_apply_faults(
            hub.member("site0").channel,
            FaultPlan(transient_rate=1.0, transient_burst=10**9),
        )
    monitor = FederationMonitor(hub)
    _ticked(hub, *(hub.sync, hub.ship_loose, monitor.evaluate_alerts) * 4)
    return hub, satellites, monitor


def _demo_fleet_federation(*, inject_faults: bool = False, days: int = 2):
    """Three-site tight federation whose telemetry the hub scrapes.

    The builder behind ``obs fleet`` and the A15 dashboard artifact:
    every satellite ingests a couple of days of synthetic jobs, joins
    tight, and has its registry scraped into the hub's fleet TSDB on
    each healthy sync cycle.  With ``inject_faults`` the third site gets a
    fresh replication backlog and a channel that always fails *after*
    two clean cycles, then the federation's clock jumps past the staleness
    window — so its scrapes stop, ``fleet_telemetry_stale`` fires
    deterministically, and the dashboard shows one STALE member.
    """
    from .core import FederationMonitor
    from .core.faults import FaultPlan, inject_apply_faults
    from .obs import alert_rule
    from .simulators import WorkloadGenerator, simulate_resource, to_sacct_log
    from .timeutil import ts

    hub = _demo_hub()
    satellites = []
    presets = []
    for i in range(3):
        instance, site, _ = _demo_site(i, hub.obs.clock, scale=0.04, seed=40 + i, days=days)
        hub.join(instance, mode="tight")
        satellites.append(instance)
        presets.append(site)
    monitor = FederationMonitor(hub)
    _ticked(hub, *(hub.sync, monitor.evaluate_alerts) * 3)
    if inject_faults:
        # fresh backlog + always-failing channel: site2's sync outcomes
        # turn failed, so the hub stops scraping its telemetry
        quiet, site = satellites[2], presets[2]
        end = ts(2017, 1, 1 + days)
        extra = simulate_resource(
            site.resource,
            WorkloadGenerator(site.workload).generate(end, end + 86400),
        )
        # the generator restarts job ids per generate() call; offset them
        # so the warehouse dedup doesn't swallow the whole backlog
        extra = [
            dataclasses.replace(r, job_id=r.job_id + 100_000) for r in extra
        ]
        quiet.pipeline.ingest_sacct(
            to_sacct_log(extra), default_resource=site.name
        )
        inject_apply_faults(
            hub.member(quiet.name).channel,
            FaultPlan(transient_rate=1.0, transient_burst=10**9),
        )
        hub.obs.clock.advance(alert_rule("fleet_telemetry_stale").max_age_s + 300.0)
        _ticked(hub, *(hub.sync, monitor.evaluate_alerts) * 2)
    return hub, satellites, monitor


def _cmd_obs(args: argparse.Namespace) -> int:
    """Telemetry dumps from a demo workload (or a saved trace file).

    Exit status is meaningful for cron wiring: 0 clean, 1 when the data
    says something is wrong (firing alerts, an empty metrics registry),
    2 for operator errors (a trace file that does not exist).
    """
    if args.action == "trace" and args.trace_file:
        path = Path(args.trace_file)
        if not path.is_file():
            print(f"trace file {path} does not exist", file=sys.stderr)
            return 2
        lines = path.read_text().splitlines()
        for line in lines[-args.tail:]:
            print(line)
        return 0

    if args.action == "alerts":
        _, _, monitor = _demo_federation(inject_faults=args.inject_faults)
        print(monitor.alerts.render())
        firing = monitor.alerts.firing()
        if firing:
            print(f"{len(firing)} alert(s) firing", file=sys.stderr)
            return 1
        return 0

    if args.action == "fleet":
        _, _, monitor = _demo_fleet_federation(inject_faults=args.inject_faults)
        print(monitor.render_fleet())
        stale = monitor.stale_members()
        if stale:
            print(
                f"{len(stale)} member(s) stale: {', '.join(stale)}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.action == "trace" and args.federated:
        from .obs import FederatedTraceAssembler

        hub, satellites, _ = _demo_federation()
        assembler = FederatedTraceAssembler(
            hub.obs.tracer, *(s.obs.tracer for s in satellites)
        )
        federated = [
            tid for tid in assembler.trace_ids()
            if len(assembler.instances_of(tid)) > 1
        ]
        if not federated:
            print("no cross-instance traces assembled", file=sys.stderr)
            return 1
        for tid in federated:
            print(assembler.render(tid))
        return 0

    instance, _, _ = _demo_instance(args.scale)
    obs = instance.obs
    if args.action == "metrics":
        text = obs.registry.render_prometheus()
        if not text:
            print("metrics registry is empty", file=sys.stderr)
            return 1
        sys.stdout.write(text)
        return 0
    if args.action == "slow":
        print(obs.tracer.render_slow_report(args.top))
        return 0
    # trace without --trace-file: tail the demo run's own spans
    lines = obs.tracer.to_jsonl().splitlines()
    if not lines:
        print("no spans recorded", file=sys.stderr)
        return 1
    for line in lines[-args.tail:]:
        print(line)
    return 0


def _demo_analytics_federation(
    *, inject_pathological: bool = False, days: int = 14,
    max_jobs: int | None = 80,
):
    """Two-site federation with job performance data and analytics.

    Each satellite ingests accounting plus per-job performance
    timeseries, runs the summarization stage locally, and replicates its
    ``fact_job_analytics`` rows to the hub through the SUPReMM summary
    filter (raw series stay home).  With ``inject_pathological`` the
    first site's first two jobs are rewritten into an idle-tail job and
    a cache-thrashing job, so the hub-side detector has real outliers to
    flag.  Everything runs on one fake clock that only the builder
    advances, so the whole build — scores, baselines, anomalies,
    rendered panel — is deterministic.
    """
    from .analytics import AnalyticsPlane, summarize_schema
    from .core import FederationMonitor
    from .core.replicator import supremm_summary_filter
    from .simulators import (
        generate_performance_batch,
        inject_cache_thrash,
        inject_idle_tail,
    )

    hub = _demo_hub()
    satellites = []
    pathological: list[tuple[str, int]] = []
    for i in range(2):
        instance, site, records = _demo_site(
            i, hub.obs.clock, scale=0.05, seed=30 + i, days=days
        )
        name = instance.name
        perfs = generate_performance_batch(
            records, site.resource, max_jobs=max_jobs
        )
        if inject_pathological and i == 0 and len(perfs) >= 2:
            perfs[0] = inject_idle_tail(perfs[0])
            perfs[1] = inject_cache_thrash(perfs[1])
            pathological = [(name, perfs[0].job_id), (name, perfs[1].job_id)]
        instance.pipeline.ingest_performance(perfs)
        summarize_schema(instance.schema, obs=instance.obs, member=name)
        hub.join(instance, mode="tight", filter=supremm_summary_filter())
        satellites.append(instance)
    plane = AnalyticsPlane(hub)
    hub.add_post_aggregation_hook(plane.refresh)
    monitor = FederationMonitor(hub, analytics=plane)
    _ticked(
        hub, hub.sync, lambda: hub.aggregate_federation(["month"]),
        monitor.evaluate_alerts,
    )
    return hub, satellites, plane, monitor, pathological


def _cmd_analytics(args: argparse.Namespace) -> int:
    """Job-level analytics over the demo federation.

    Exit status mirrors ``obs``: 0 clean, 1 when the data says something
    is wrong (no jobs summarized; anomalies flagged), 2 for operator
    errors.
    """
    if args.top < 1:
        print("--top must be >= 1", file=sys.stderr)
        return 2
    _, _, plane, monitor, _ = _demo_analytics_federation(
        inject_pathological=args.inject_pathological
    )
    if args.action == "summarize":
        if not plane.last_scores:
            print("no jobs summarized", file=sys.stderr)
            return 1
        print(f"{len(plane.last_scores)} jobs summarized "
              f"(least efficient first):")
        for job in plane.worst_jobs(args.top):
            tags = f" [{','.join(job.tags)}]" if job.tags else ""
            print(f"  {job.member}/{job.resource}#{job.job_id} "
                  f"{job.application:<16} {job.score:.3f}{tags}")
        return 0
    # anomalies
    print(monitor.render())
    if plane.anomalies:
        print(f"{len(plane.anomalies)} anomalous job(s):", file=sys.stderr)
        for anomaly in plane.anomalies:
            print(f"  {anomaly.job.member}#{anomaly.job.job_id} "
                  f"{anomaly.job.application} kind={anomaly.kind} "
                  f"score={anomaly.job.score:.3f} "
                  f"baseline={anomaly.baseline:.3f} z={anomaly.zscore:.1f}",
                  file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdmod-repro",
        description="Federated XDMoD reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="single-instance demo on synthetic data")
    p.add_argument("--scale", type=float, default=0.25)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("shred", help="parse a sacct log file")
    p.add_argument("logfile")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_shred)

    p = sub.add_parser("simulate", help="generate a synthetic sacct log")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--year", type=int, default=2017)
    p.add_argument("--months", type=int, default=3)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("federate", help="run the Figure 1 federation demo")
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--monitor", action="store_true",
                   help="print the federation ops status panel")
    p.set_defaults(func=_cmd_federate)

    p = sub.add_parser("validate", help="validate storage snapshot JSON")
    p.add_argument("jsonfile")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="generate a monthly utilization report")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--scale", type=float, default=0.15)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("serve", help="run the HTTP JSON API on a demo instance")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--scale", type=float, default=0.15)
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the query-result cache (every read recomputes)",
    )
    p.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("snapshot", help="save/load an instance database")
    p.add_argument("action", choices=["save", "load", "info"])
    p.add_argument("directory")
    p.add_argument("--scale", type=float, default=0.1)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser(
        "lint", help="schema-aware static analysis (repolint)"
    )
    from .analysis.runner import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "obs", help="dump telemetry from a demo workload"
    )
    p.add_argument(
        "action", choices=["metrics", "slow", "trace", "alerts", "fleet"],
        help="metrics: Prometheus text; slow: slow-span report; "
             "trace: span JSONL (tail) or --federated trace trees; "
             "alerts: evaluate the SLO rule catalog on a demo federation; "
             "fleet: the fleet telemetry dashboard over scraped metrics",
    )
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--top", type=int, default=10,
                   help="rows in the slow-span report")
    p.add_argument("--tail", type=int, default=20,
                   help="trace lines to show")
    p.add_argument("--trace-file", default="",
                   help="tail an existing span JSONL instead of running "
                        "the demo workload")
    p.add_argument("--federated", action="store_true",
                   help="with trace: run a two-site federation and print "
                        "the assembled cross-instance trace trees")
    p.add_argument("--inject-faults", action="store_true",
                   help="with alerts: make the tight member fail so the "
                        "burn-rate rules fire; with fleet: silence one "
                        "member so the staleness rule fires (demo/CI "
                        "artifact)")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "analytics",
        help="job-level analytics on a demo federation",
    )
    p.add_argument(
        "action", choices=["summarize", "anomalies"],
        help="summarize: rank jobs by efficiency score; "
             "anomalies: run the hub-side detector and print the panel",
    )
    p.add_argument("--top", type=int, default=10,
                   help="rows in the worst-jobs listing")
    p.add_argument("--inject-pathological", action="store_true",
                   help="rewrite two site0 jobs into idle-tail and "
                        "cache-thrash pathologies (demo/CI artifact)")
    p.set_defaults(func=_cmd_analytics)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
