#!/usr/bin/env python
"""Federated XDMoD: the paper's core scenario (Figures 1-3, Table I).

Three independent XDMoD instances — monitoring Comet-, Stampede2-, and
Stampede-shaped resources — replicate their HPC Jobs realm into a central
federation hub (fan-in, Figure 2).  The hub re-aggregates raw data under
its own Table-I-style aggregation levels and serves a unified Figure-1
chart in standardized XD SUs.  The demo also exercises loose federation
and converting a loose member to tight, consistency checking,
hub-as-backup, and the identity-mapping question.

Run:  python examples/federation_demo.py
"""

from __future__ import annotations

from repro import FederationHub, XdmodInstance, check_federation, jobs_realm
from repro.aggregation import AggregationConfig, TABLE1_FEDERATION_HUB
from repro.core import (
    IdentityMap,
    federated_user_counts,
    regenerate_satellite,
    standardize_federation,
    verify_regeneration,
)
from repro.etl import WAREHOUSE_SCHEMA
from repro.simulators import (
    WorkloadGenerator,
    figure1_sites,
    simulate_resource,
    to_sacct_log,
)
from repro.timeutil import ts
from repro.ui import ChartBuilder, render_table


def main() -> None:
    start, end = ts(2017, 1, 1), ts(2018, 1, 1)
    sites = figure1_sites(scale=0.2)

    # Section II-C6: benchmark every resource; derive XD SU factors.
    conversion, hpl = standardize_federation(
        {name: preset.resource for name, preset in sites.items()}
    )
    print("HPL-derived XD SU conversion factors:")
    for name, result in sorted(hpl.items()):
        print(f"  {name:<11} Rmax {result.rmax_tflops:7.1f} TF  "
              f"-> {conversion.factor(name):.2f} XD SU / CPU-hour")

    # The hub defines its own aggregation levels (Table I).
    hub = FederationHub(
        "federation_hub",
        aggregation=AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB),
        conversion=conversion,
    )

    # One satellite per site; the third joins loosely to show the
    # heterogeneous model (Section II-C2), and ships only its first half
    # of the year before its link changes.
    satellites: dict[str, XdmodInstance] = {}
    for i, (name, preset) in enumerate(sorted(sites.items())):
        instance = XdmodInstance(f"site_{name}", conversion=conversion)
        records = simulate_resource(
            preset.resource,
            WorkloadGenerator(preset.workload).generate(start, end),
        )
        mode = "loose" if i == 2 else "tight"
        cut = len(records) // 2 if mode == "loose" else len(records)
        instance.pipeline.ingest_sacct(
            to_sacct_log(records[:cut]), default_resource=name
        )
        hub.join(instance, mode=mode)
        satellites[name] = instance
        print(f"joined {instance.name} ({mode}): {cut} jobs")
        if mode == "loose":
            loose_site, later_log = instance, to_sacct_log(records[cut:])
            loose_resource = name

    # The loose site converts to tight: the hub pumps the rest of its
    # year from where its shipment left off.
    loose_site.pipeline.ingest_sacct(later_log, default_resource=loose_resource)
    print(f"replication lag before converting {loose_site.name}: {hub.lag()}")
    hub.convert(loose_site.name, "tight")
    hub.sync()
    assert hub.lag()[loose_site.name] == 0
    fed_jobs = hub.federated_schemas()[loose_site.name].table("fact_job")
    assert len(fed_jobs) == len(loose_site.schema.table("fact_job"))
    print(f"converted {loose_site.name} to tight: {len(fed_jobs)} jobs on "
          f"the hub, lag {hub.lag()}")

    # Hub-side aggregation under the hub's levels.
    hub.aggregate_federation(["month"])

    # Invariant: the hub never alters raw replicated data.
    check = check_federation(hub, strict=True)
    totals = check.federation_totals()
    print(f"consistency check: OK — federation-wide "
          f"{totals['n_jobs']:,.0f} jobs, {totals['xdsu']:,.0f} XD SUs")

    # Figure 1: top three resources by XD SUs charged, monthly.
    chart = ChartBuilder(jobs_realm(), hub.federated_schemas()).timeseries(
        "xdsu", start=start, end=end, group_by="resource", top_n=3,
        title="Figure 1: top 3 resources by total XD SUs charged, 2017",
    )
    print()
    print(render_table(chart))
    ranked = [s.label for s in chart.series]
    print(f"\nannual ranking: {' > '.join(ranked)}")

    # Section II-D4: identity across the federation.
    users = {
        name: [r["username"] for r in inst.schema.table("dim_person").rows()]
        for name, inst in satellites.items()
    }
    unmapped = federated_user_counts(hub)
    idmap = IdentityMap.from_username_match(
        {f"site_{k}": v for k, v in users.items()}
    )
    mapped = federated_user_counts(hub, idmap)
    print(f"\nidentity: {unmapped['qualified']} federated user identities; "
          f"{mapped['canonical']} canonical people after username matching "
          "(the paper's future-work identity mapping)")

    # Section II-E4: the hub as a backup — regenerate a satellite.
    victim = f"site_{ranked[-1]}"
    restored = regenerate_satellite(hub, victim)
    report = verify_regeneration(
        hub.member(victim).instance.schema,
        restored.schema(WAREHOUSE_SCHEMA),
    )
    print(f"backup regeneration of {victim}: "
          f"{'EXACT' if report.exact else 'MISMATCH'} "
          f"({len(report.matching)} tables verified)")


if __name__ == "__main__":
    main()
