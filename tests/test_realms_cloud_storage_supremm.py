"""Cloud, Storage, and SUPReMM realms."""

from __future__ import annotations

import pytest

from repro.aggregation import Aggregator
from repro.etl import (
    ingest_cloud_events,
    ingest_performance,
    ingest_storage_snapshots,
)
from repro.realms import (
    RealmQueryError,
    cloud_realm,
    storage_realm,
    supremm_realm,
)
from repro.simulators import generate_performance_batch
from repro.timeutil import ts
from repro.warehouse import Database
from tests.conftest import T0, T_MAR


@pytest.fixture()
def cloud_schema(cloud_events):
    schema = Database().create_schema("modw")
    ingest_cloud_events(schema, cloud_events)
    Aggregator(schema).aggregate_cloud("month")
    return schema


@pytest.fixture()
def storage_schema(storage_docs):
    schema = Database().create_schema("modw")
    ingest_storage_snapshots(schema, storage_docs)
    Aggregator(schema).aggregate_storage("month")
    return schema


class TestCloudRealm:
    def test_core_hours_total_matches_facts(self, cloud_schema):
        realm = cloud_realm()
        total = realm.query(
            cloud_schema, "core_hours", start=T0, end=T_MAR, view="aggregate"
        ).totals()["total"]
        raw = sum(r["core_hours"] for r in cloud_schema.table("fact_vm").rows())
        assert total == pytest.approx(raw)

    def test_memory_level_partition(self, cloud_schema):
        """Figure 7's group-by: memory bins partition total core hours."""
        realm = cloud_realm()
        total = realm.query(
            cloud_schema, "core_hours", start=T0, end=T_MAR, view="aggregate"
        ).totals()["total"]
        by_bin = realm.query(
            cloud_schema, "core_hours", start=T0, end=T_MAR,
            group_by="memory_level", view="aggregate",
        ).totals()
        assert sum(by_bin.values()) == pytest.approx(total)
        from repro.aggregation import FIG7_VM_MEMORY_LEVELS

        assert set(by_bin) <= set(FIG7_VM_MEMORY_LEVELS.labels) | {"outside"}

    def test_avg_core_hours_per_vm(self, cloud_schema):
        realm = cloud_realm()
        rows = realm.query(
            cloud_schema, "avg_core_hours_per_vm",
            start=T0, end=T_MAR, group_by="memory_level",
        ).rows
        assert rows
        for row in rows:
            assert row.value is None or row.value >= 0

    def test_vm_counts(self, cloud_schema):
        realm = cloud_realm()
        started = realm.query(
            cloud_schema, "n_vms_started", start=T0, end=T_MAR, view="aggregate"
        ).totals()["total"]
        # VMs clamped to the window edge terminate exactly at T_MAR and
        # bin into March, so the "ended" query needs one extra month
        ended = realm.query(
            cloud_schema, "n_vms_ended", start=T0, end=ts(2017, 4, 1),
            view="aggregate",
        ).totals()["total"]
        assert started == len(cloud_schema.table("fact_vm"))
        assert ended == started  # simulator closes every VM


class TestStorageRealm:
    def test_file_count_and_physical_usage_grow(self, storage_schema):
        """Figure 6's shape: both series grow month over month."""
        realm = storage_realm()
        for metric in ("file_count", "physical_usage_gb"):
            series = realm.query(
                storage_schema, metric, start=T0, end=T_MAR
            ).series()["total"]
            values = [v for _, v in series]
            assert len(values) == 2
            assert values[-1] > values[0]

    def test_filesystem_dimension(self, storage_schema):
        realm = storage_realm()
        result = realm.query(
            storage_schema, "logical_usage_gb",
            start=T0, end=T_MAR, group_by="filesystem", view="aggregate",
        )
        assert set(result.groups()) == {
            "isilon_home", "isilon_projects", "gpfs_scratch",
        }

    def test_tb_scaling(self, storage_schema):
        realm = storage_realm()
        gb = realm.query(storage_schema, "physical_usage_gb",
                         start=T0, end=T_MAR, view="aggregate").totals()["total"]
        tb = realm.query(storage_schema, "physical_usage_tb",
                         start=T0, end=T_MAR, view="aggregate").totals()["total"]
        assert tb == pytest.approx(gb / 1000.0)

    def test_quota_utilization_bounded(self, storage_schema):
        realm = storage_realm()
        result = realm.query(
            storage_schema, "quota_utilization",
            start=T0, end=T_MAR, view="aggregate",
        )
        value = result.totals()["total"]
        assert 0.0 < value <= 1.5


class TestSupremmRealm:
    @pytest.fixture()
    def perf_instance(self, instance, job_records, small_resource):
        batch = generate_performance_batch(job_records, small_resource, max_jobs=40)
        ingest_performance(instance.schema, batch)
        instance.aggregate(["month"])
        return instance

    def test_weighted_average_bounded(self, perf_instance):
        realm = supremm_realm()
        result = realm.query(
            perf_instance.schema, "avg_cpu_user",
            start=T0, end=T_MAR,
        )
        assert result.rows
        for row in result.rows:
            assert 0.0 <= row.value <= 1.0

    def test_group_by_application(self, perf_instance):
        realm = supremm_realm()
        result = realm.query(
            perf_instance.schema, "avg_flops_gf",
            start=T0, end=T_MAR, group_by="application",
        )
        apps = {
            r["name"] for r in perf_instance.schema.table("dim_application").rows()
        }
        assert set(result.groups()) <= apps

    def test_unknown_metric_rejected(self, perf_instance):
        realm = supremm_realm()
        with pytest.raises(RealmQueryError):
            realm.query(perf_instance.schema, "avg_bogons", start=T0, end=T_MAR)

    def test_all_nine_metrics_queryable(self, perf_instance):
        realm = supremm_realm()
        assert len(realm.metrics) == 9
        for metric in realm.metrics:
            realm.query(perf_instance.schema, metric, start=T0, end=T_MAR)

    def test_no_perf_table_returns_empty(self, aggregated_instance):
        realm = supremm_realm()
        result = realm.query(
            aggregated_instance.schema, "avg_cpu_user", start=T0, end=T_MAR
        )
        assert result.rows == []
