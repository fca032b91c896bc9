"""Hierarchy/science-field drill-downs and federated SUPReMM summaries."""

from __future__ import annotations

import pytest

from repro.core import FederationHub, XdmodInstance, supremm_summary_filter
from repro.etl import ingest_performance
from repro.realms import RealmQueryError, jobs_realm, supremm_realm
from repro.simulators import (
    WorkloadConfig,
    WorkloadGenerator,
    generate_performance_batch,
    simulate_resource,
)
from tests.conftest import T0, T_MAR


class TestHierarchyDimensions:
    @pytest.fixture()
    def instance_with_hierarchy(self, small_resource):
        config = WorkloadConfig(
            seed=31, jobs_per_day=12, max_cores=small_resource.total_cores
        )
        generator = WorkloadGenerator(config)
        records = simulate_resource(
            small_resource, generator.generate(T0, T0 + 10 * 86400)
        )
        instance = XdmodInstance(
            "hier",
            directory=generator.person_directory(),
            science_fields=generator.science_fields(),
        )
        from repro.simulators import to_sacct_log

        instance.pipeline.ingest_sacct(
            to_sacct_log(records), default_resource=small_resource.name
        )
        instance.aggregate(["month"])
        return instance

    def test_decanal_unit_partitions_total(self, instance_with_hierarchy):
        realm = jobs_realm()
        schema = instance_with_hierarchy.schema
        total = realm.query(
            schema, "cpu_hours", start=T0, end=T_MAR, view="aggregate",
        ).totals()["total"]
        by_unit = realm.query(
            schema, "cpu_hours", start=T0, end=T_MAR,
            group_by="decanal_unit", view="aggregate",
        ).totals()
        assert sum(by_unit.values()) == pytest.approx(total)
        from repro.simulators import DEFAULT_HIERARCHY

        assert set(by_unit) <= {unit for unit, _ in DEFAULT_HIERARCHY}

    def test_department_finer_than_unit(self, instance_with_hierarchy):
        realm = jobs_realm()
        schema = instance_with_hierarchy.schema
        units = realm.query(
            schema, "n_jobs_ended", start=T0, end=T_MAR,
            group_by="decanal_unit", view="aggregate",
        ).groups()
        departments = realm.query(
            schema, "n_jobs_ended", start=T0, end=T_MAR,
            group_by="department", view="aggregate",
        ).groups()
        assert len(departments) >= len(units)

    def test_science_field_labels(self, instance_with_hierarchy):
        realm = jobs_realm()
        fields = realm.query(
            instance_with_hierarchy.schema, "xdsu", start=T0, end=T_MAR,
            group_by="science_field", view="aggregate",
        ).groups()
        assert fields
        from repro.simulators import DEFAULT_APPLICATIONS

        assert set(fields) <= {a.science_field for a in DEFAULT_APPLICATIONS}

    def test_hierarchy_drilldown(self, instance_with_hierarchy):
        from repro.ui import UsageExplorer

        explorer = UsageExplorer(jobs_realm(), instance_with_hierarchy.schema)
        explorer.configure("cpu_hours", start=T0, end=T_MAR)
        explorer.group_by("decanal_unit")
        units = explorer.fetch().totals()
        top_unit = max(units, key=units.get)
        explorer.drill_down(top_unit, "department")
        departments = explorer.fetch().totals()
        assert sum(departments.values()) == pytest.approx(units[top_unit])


class TestFederatedSupremm:
    @pytest.fixture()
    def perf_federation(self, small_resource):
        from repro.simulators import to_sacct_log

        hub = FederationHub("hub")
        satellites = []
        for i in range(2):
            config = WorkloadConfig(
                seed=40 + i, jobs_per_day=8,
                max_cores=small_resource.total_cores,
            )
            records = simulate_resource(
                small_resource,
                WorkloadGenerator(config).generate(T0, T0 + 7 * 86400),
            )
            instance = XdmodInstance(f"perf{i}")
            instance.pipeline.ingest_sacct(
                to_sacct_log(records), default_resource=small_resource.name
            )
            batch = generate_performance_batch(
                records, small_resource, max_jobs=15
            )
            ingest_performance(instance.schema, batch)
            hub.join(instance, filter=supremm_summary_filter())
            satellites.append(instance)
        return hub, satellites

    def test_summaries_replicate_timeseries_do_not(self, perf_federation):
        hub, _ = perf_federation
        for name in ("fed_perf0", "fed_perf1"):
            schema = hub.database.schema(name)
            assert schema.has_table("fact_job_perf")
            assert len(schema.table("fact_job_perf")) == 15
            assert not schema.has_table("job_timeseries")

    def test_federated_weighted_average(self, perf_federation):
        hub, satellites = perf_federation
        realm = supremm_realm()
        federated = realm.query(
            hub.federated_schemas(), "avg_cpu_user",
            start=T0, end=T_MAR,
        )
        assert federated.rows
        # exact merge check: recompute from both satellites' raw facts
        num = den = 0.0
        for satellite in satellites:
            jobs = {
                (r["resource_id"], r["job_id"]): r
                for r in satellite.schema.table("fact_job").rows()
            }
            for perf in satellite.schema.table("fact_job_perf").rows():
                job = jobs[(perf["resource_id"], perf["job_id"])]
                if job["cpu_hours"] > 0:
                    num += perf["cpu_user_avg"] * job["cpu_hours"]
                    den += job["cpu_hours"]
        expected = num / den
        # collapse to a single period so the one row IS the weighted mean
        whole = realm.query(
            hub.federated_schemas(), "avg_cpu_user",
            start=T0, end=T_MAR, period="year",
        )
        assert len(whole.rows) == 1
        assert whole.rows[0].value == pytest.approx(expected)

    def test_federated_group_by_person(self, perf_federation):
        hub, _ = perf_federation
        realm = supremm_realm()
        result = realm.query(
            hub.federated_schemas(), "avg_mem_used_gb",
            start=T0, end=T_MAR, group_by="person",
        )
        assert result.rows
        for row in result.rows:
            assert row.value >= 0

    def test_federated_grouping_merges_per_member_sums(self, perf_federation):
        """Grouped cells merge numerators/denominators across members.

        Each satellite contributes its own weighted sums per application;
        the federated cell must equal the merged division — never an
        average of the two members' per-application averages.
        """
        hub, satellites = perf_federation
        realm = supremm_realm()
        federated = realm.query(
            hub.federated_schemas(), "avg_flops_gf",
            start=T0, end=T_MAR, period="year", group_by="application",
        )
        acc: dict[str, list[float]] = {}
        for satellite in satellites:
            schema = satellite.schema
            apps = {
                r["app_id"]: r["name"]
                for r in schema.table("dim_application").rows()
            }
            jobs = {
                (r["resource_id"], r["job_id"]): r
                for r in schema.table("fact_job").rows()
            }
            for perf in schema.table("fact_job_perf").rows():
                job = jobs[(perf["resource_id"], perf["job_id"])]
                if job["cpu_hours"] <= 0:
                    continue
                entry = acc.setdefault(apps[job["app_id"]], [0.0, 0.0])
                entry[0] += perf["flops_gf_avg"] * job["cpu_hours"]
                entry[1] += job["cpu_hours"]
        expected = {app: num / den for app, (num, den) in acc.items()}
        got = {row.group: row.value for row in federated.rows}
        assert got.keys() == expected.keys()
        for app, value in expected.items():
            assert got[app] == pytest.approx(value)

    def test_federated_skips_members_without_perf_data(self, perf_federation):
        hub, _ = perf_federation
        realm = supremm_realm()
        sources = dict(hub.federated_schemas())
        baseline = realm.query(
            sources, "avg_cpu_user", start=T0, end=T_MAR
        )
        assert baseline.rows
        # a member with no performance summaries contributes nothing
        # (and does not error the whole federated answer)
        sources["fed_idle"] = XdmodInstance("idle").schema
        with_idle = realm.query(
            sources, "avg_cpu_user", start=T0, end=T_MAR
        )
        assert [
            (r.group, r.period_start, r.value) for r in with_idle.rows
        ] == [(r.group, r.period_start, r.value) for r in baseline.rows]
        # an empty source mapping answers empty, not an error
        empty = realm.query({}, "avg_cpu_user", start=T0, end=T_MAR)
        assert empty.rows == []

    def test_federated_unknown_metric_and_dimension_raise(
        self, perf_federation
    ):
        hub, _ = perf_federation
        realm = supremm_realm()
        with pytest.raises(RealmQueryError):
            realm.query(
                hub.federated_schemas(), "avg_nope", start=T0, end=T_MAR
            )
        with pytest.raises(RealmQueryError):
            realm.query(
                hub.federated_schemas(), "avg_cpu_user",
                start=T0, end=T_MAR, group_by="galaxy",
            )
