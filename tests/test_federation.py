"""Federation orchestration: membership, sync, hub aggregation."""

from __future__ import annotations

import pytest

from repro.aggregation import AggregationConfig, TABLE1_FEDERATION_HUB
from repro.core import (
    FED_SCHEMA_PREFIX,
    FederationHub,
    MembershipError,
    VersionMismatchError,
    XdmodInstance,
)
from repro.etl import ParsedJob
from repro.timeutil import ts
from tests.conftest import build_two_site_federation


def make_job(job_id, resource="extra"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 20), start_ts=ts(2017, 1, 20, 1),
        end_ts=ts(2017, 1, 20, 2), nodes=1, cores=2, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource=resource,
    )


class TestMembership:
    def test_version_requirement(self):
        hub = FederationHub("hub")
        old = XdmodInstance("legacy", version="6.5.0")
        with pytest.raises(VersionMismatchError):
            hub.join(old)

    def test_duplicate_member_rejected(self, federation):
        hub, satellites, _, _ = federation
        with pytest.raises(MembershipError):
            hub.join(satellites["site0"])

    def test_hub_cannot_join_itself(self):
        hub = FederationHub("hub")
        with pytest.raises(MembershipError):
            hub.join(hub)

    def test_unknown_mode_rejected(self):
        hub = FederationHub("hub")
        with pytest.raises(MembershipError):
            hub.join(XdmodInstance("x"), mode="psychic")

    def test_fed_schema_naming(self, federation):
        hub, _, _, _ = federation
        assert hub.database.has_schema(FED_SCHEMA_PREFIX + "site0")
        assert hub.database.has_schema(FED_SCHEMA_PREFIX + "site1")

    def test_leave_keeps_or_drops_data(self, federation):
        hub, _, _, _ = federation
        hub.leave("site0")
        assert hub.database.has_schema("fed_site0")  # data retained
        with pytest.raises(MembershipError):
            hub.member("site0")
        hub.leave("site1", drop_data=True)
        assert not hub.database.has_schema("fed_site1")

    def test_members_sorted(self, federation):
        hub, _, _, _ = federation
        assert [m.name for m in hub.members] == ["site0", "site1"]


class TestSync:
    def test_initial_join_replicates_history(self, federation):
        hub, satellites, _, _ = federation
        for name, satellite in satellites.items():
            hub_fact = hub.database.schema(f"fed_{name}").table("fact_job")
            assert hub_fact.checksum() == (
                satellite.schema.table("fact_job").checksum()
            )

    def test_lag_and_sync(self, federation):
        hub, satellites, _, _ = federation
        from repro.etl import ingest_jobs

        ingest_jobs(satellites["site0"].schema, [make_job(9001)])
        assert hub.lag()["site0"] > 0
        applied = hub.sync()
        assert applied["site0"].applied > 0
        assert hub.lag()["site0"] == 0

    def test_loose_member_needs_ship(self):
        hub, satellites, _, _ = build_two_site_federation(mode_b="loose")
        from repro.etl import ingest_jobs

        ingest_jobs(satellites["site1"].schema, [make_job(9002)])
        hub.sync()  # loose members do not move on sync
        assert hub.lag()["site1"] > 0
        hub.ship_loose()
        assert hub.lag()["site1"] == 0


class TestHubAggregation:
    def test_hub_aggregates_under_its_own_levels(self, federation):
        hub, _, _, _ = federation
        hub.aggregator.config = AggregationConfig(
            walltime_levels=TABLE1_FEDERATION_HUB
        )
        out = hub.aggregate_federation(["month"])
        assert set(out) == {"site0", "site1"}
        for name in out:
            schema = hub.database.schema(f"fed_{name}")
            levels = {
                r["walltime_level"]
                for r in schema.table("agg_job_month").rows()
            }
            assert levels <= set(TABLE1_FEDERATION_HUB.labels) | {"outside"}

    def test_satellite_aggregation_untouched_by_hub(self, federation):
        """Satellites retain full control of their own aggregates."""
        hub, satellites, _, _ = federation
        satellites["site0"].aggregate(["month"])
        before = satellites["site0"].schema.table("agg_job_month").checksum()
        hub.aggregate_federation(["month"])
        assert satellites["site0"].schema.table("agg_job_month").checksum() == before

    def test_reaggregate_federation_changes_binning(self, federation):
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        schema = hub.database.schema("fed_site0")
        default_levels = {
            r["walltime_level"] for r in schema.table("agg_job_month").rows()
        }
        hub.reaggregate_federation(
            AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB), ["month"]
        )
        new_levels = {
            r["walltime_level"] for r in schema.table("agg_job_month").rows()
        }
        assert new_levels != default_levels
        # totals preserved (no data lost or changed)
        raw = sum(r["cpu_hours"] for r in schema.table("fact_job").rows())
        agg = sum(r["cpu_hours"] for r in schema.table("agg_job_month").rows())
        assert agg == pytest.approx(raw)

    def test_federated_schemas_mapping(self, federation):
        hub, _, _, _ = federation
        schemas = hub.federated_schemas()
        assert set(schemas) == {"site0", "site1"}
