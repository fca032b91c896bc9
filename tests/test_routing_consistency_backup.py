"""Routing policies, consistency checks, backup regeneration, identity."""

from __future__ import annotations

import pytest

from repro.core import (
    ConsistencyError,
    FederationHub,
    FederationMonitor,
    FederationNetwork,
    IdentityError,
    IdentityMap,
    MembershipError,
    RoutingPolicy,
    XdmodInstance,
    check_federation,
    check_member,
    federated_user_counts,
    filter_for_hub,
    qualified_identity,
    regenerate_satellite,
    verify_regeneration,
)
from repro.etl import WAREHOUSE_SCHEMA, ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Column, ColumnType, Table, TableSchema


def make_job(job_id, resource="r1", user="alice"):
    return ParsedJob(
        job_id=job_id, user=user, pi="p", queue="q", application="a",
        submit_ts=ts(2017, 2, 1), start_ts=ts(2017, 2, 1, 1),
        end_ts=ts(2017, 2, 1, 2), nodes=1, cores=2, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource=resource,
    )


class TestRoutingPolicy:
    def test_default_all(self):
        policy = RoutingPolicy()
        assert policy.admitted("anything", "hub1")

    def test_default_none(self):
        policy = RoutingPolicy(default="none")
        assert not policy.admitted("anything", "hub1")
        policy.allow("public", ["hub1"])
        assert policy.admitted("public", "hub1")
        assert not policy.admitted("public", "hub2")

    def test_exclude(self):
        policy = RoutingPolicy().exclude("secret")
        assert not policy.admitted("secret", "any_hub")
        assert policy.admitted("open", "any_hub")

    def test_bad_default(self):
        with pytest.raises(MembershipError):
            RoutingPolicy(default="maybe")

    def test_filter_compilation(self):
        policy = RoutingPolicy().exclude("secret").allow("semi", ["hub1"])
        f1 = filter_for_hub(policy, "hub1")
        assert "secret" in f1.exclude_resources
        assert "semi" not in f1.exclude_resources
        f2 = filter_for_hub(policy, "hub2")
        assert {"secret", "semi"} <= f2.exclude_resources


class TestFederationNetwork:
    def _satellite(self, name, *, resources=("open", "secret")):
        inst = XdmodInstance(name)
        jobs = [
            make_job(i + 1, resource=res)
            for i, res in enumerate(resources)
        ]
        ingest_jobs(inst.schema, jobs)
        return inst

    def test_multi_hub_backup_topology(self):
        """'data from all resources could be replicated to multiple
        federation hubs, to provide a live backup'."""
        net = FederationNetwork()
        hub_a = net.add_hub(FederationHub("hub_a"))
        hub_b = net.add_hub(FederationHub("hub_b"))
        satellite = self._satellite("sat", resources=("open",))
        net.connect(satellite)
        for hub in (hub_a, hub_b):
            fact = hub.database.schema("fed_sat").table("fact_job")
            assert fact.checksum() == satellite.schema.table("fact_job").checksum()

    def test_sensitive_resource_excluded_everywhere(self):
        net = FederationNetwork(RoutingPolicy().exclude("secret"))
        hub = net.add_hub(FederationHub("hub"))
        net.connect(self._satellite("sat"))
        names = {
            r["name"]
            for r in hub.database.schema("fed_sat").table("dim_resource").rows()
        }
        assert "secret" not in names

    def test_per_hub_routing(self):
        policy = RoutingPolicy(default="none")
        policy.allow("open", ["hub_a", "hub_b"]).allow("semi", ["hub_a"])
        net = FederationNetwork(policy)
        hub_a = net.add_hub(FederationHub("hub_a"))
        hub_b = net.add_hub(FederationHub("hub_b"))
        net.connect(self._satellite("sat", resources=("open", "semi")))
        rows_a = {
            r["name"]
            for r in hub_a.database.schema("fed_sat").table("dim_resource").rows()
        }
        rows_b = {
            r["name"]
            for r in hub_b.database.schema("fed_sat").table("dim_resource").rows()
        }
        assert rows_a == {"open", "semi"}
        assert rows_b == {"open"}

    def test_duplicate_hub_rejected(self):
        net = FederationNetwork()
        net.add_hub(FederationHub("h"))
        with pytest.raises(MembershipError):
            net.add_hub(FederationHub("h"))

    @pytest.mark.parametrize("policy, refused", [
        (RoutingPolicy().exclude("secret"), "secret"),
        (RoutingPolicy(default="none").allow("open", ["hub"]).allow("fresh", ["hub"]), "unlisted"),
    ], ids=["excluded", "unlisted-under-none"])
    def test_a_resource_first_logged_after_connect_is_routed_by_name(
        self, policy, refused
    ):
        """The filter is compiled from the policy alone: of the resources
        the satellite first logs after it joined, the refused one never
        reaches the hub and the admitted one ("fresh") does."""
        net = FederationNetwork(policy)
        hub = net.add_hub(FederationHub("hub"))
        satellite = self._satellite("sat", resources=("open",))
        net.connect(satellite)
        ingest_jobs(satellite.schema, [
            make_job(10 + i, resource=(refused, "fresh")[i % 2]) for i in range(6)
        ])
        net.sync_all()
        ids = {
            name: rid for rid, name in satellite.schema.table("dim_resource")
            .columns_values(("resource_id", "name"))
        }
        copy = hub.database.schema("fed_sat")
        assert copy.table("dim_resource").column_values("name") == ["open", "fresh"]
        assert sorted(copy.table("fact_job").column_values("resource_id")) == [
            ids["open"], *[ids["fresh"]] * 3
        ]
        assert check_federation(hub, strict=True).ok

    def test_sync_all(self):
        net = FederationNetwork()
        net.add_hub(FederationHub("h"))
        satellite = self._satellite("sat", resources=("open",))
        net.connect(satellite)
        ingest_jobs(satellite.schema, [make_job(99, resource="open")])
        out = net.sync_all()
        assert out["h"]["sat"].applied > 0


class TestConsistency:
    def test_clean_federation_passes(self, federation):
        hub, satellites, _, _ = federation
        check = check_federation(hub, strict=True)
        assert check.ok
        totals = check.federation_totals()
        facts = [s.schema.table("fact_job") for s in satellites.values()]
        assert totals["n_jobs"] == sum(len(fact) for fact in facts)
        for metric in ("cpu_hours", "xdsu"):
            assert totals[metric] == pytest.approx(
                sum(sum(fact.column_values(metric)) for fact in facts)
            )

    def test_unchanged_hub_copies_sum_no_fact_column(self, federation, monkeypatch):
        hub, _, _, _ = federation
        first = check_federation(hub).hub_totals
        reads = []
        column_arrays = Table.column_arrays
        monkeypatch.setattr(Table, "column_arrays", lambda table, columns: (
            reads.append((table.schema.name, tuple(columns))) or column_arrays(table, columns)
        ))
        assert repr(check_federation(hub).hub_totals) == repr(first)
        assert ("fact_job", ("cpu_hours", "xdsu")) not in reads
        fact = hub.database.schema("fed_site0").table("fact_job")
        fact.update_where(lambda r: True, {"cpu_hours": 0.1})
        moved = check_federation(hub).hub_totals
        assert reads.count(("fact_job", ("cpu_hours", "xdsu"))) == 1
        # still Python's sequential sum in row order, bit for bit
        assert repr(moved["site0"]["cpu_hours"]) == repr(sum([0.1] * len(fact), 0.0))
        assert repr(moved["site1"]) == repr(first["site1"])

    def test_detects_hub_side_tampering(self, federation):
        hub, _, _, _ = federation
        hub.database.schema("fed_site0").table("fact_job").update_where(
            lambda r: True, {"cpu_hours": 0.0}
        )
        check = check_federation(hub)
        assert not check.ok
        with pytest.raises(ConsistencyError):
            check_federation(hub, strict=True)

    def test_member_check_reports_tables(self, federation):
        hub, _, _, _ = federation
        check = check_member(hub, "site0")
        assert check.ok
        assert {t.table for t in check.tables} >= {"fact_job", "dim_person"}

    def test_a_missing_or_extra_hub_table_fails(self, federation):
        """The hub copy is compared both ways: a table the filter selects
        that the copy lacks fails, and so does a non-derived table the
        copy holds that the filter does not select."""
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])  # derived tables are the hub's own
        assert check_federation(hub, strict=True).ok
        hub.database.schema("fed_site0").drop_table("dim_person")
        hub.database.schema("fed_site1").create_table(
            TableSchema("notes", (Column("note_id", ColumnType.INT),), ("note_id",))
        )
        for member, table in (("site0", "dim_person"), ("site1", "notes")):
            check = check_member(hub, member)
            assert not check.ok
            assert [t.table for t in check.tables if not t.ok] == [table]
        with pytest.raises(
            ConsistencyError, match=r"\['site0:dim_person', 'site1:notes'\]"
        ):
            check_federation(hub, strict=True)

    @pytest.mark.parametrize("policy", [
        RoutingPolicy().exclude("secret"),
        RoutingPolicy(default="none").allow("open", ["hub"]),
    ], ids=["exclude", "include"])
    def test_a_routed_member_is_verified_through_its_filter(self, policy):
        """Compared with the satellite seen through its filter, a routed
        member passes while whole and fails once its hub copy loses rows."""
        network = FederationNetwork(policy)
        hub = network.add_hub(FederationHub("hub"))
        satellite = XdmodInstance("sat")
        ingest_jobs(satellite.schema, [
            make_job(i, resource=("open", "secret")[i % 2]) for i in range(6)
        ])
        network.connect(satellite)
        check = check_federation(hub, strict=True)
        assert check.ok and check.hub_totals["sat"]["n_jobs"] == 3
        hub.database.schema("fed_sat").table("fact_job").delete_where(
            lambda row: True
        )
        status = FederationMonitor(hub).status()
        assert not status.all_consistent and not status.members[0].consistent
        with pytest.raises(ConsistencyError, match="sat:fact_job"):
            check_federation(hub, strict=True)


class TestBackup:
    def test_regeneration_is_exact(self, federation):
        hub, satellites, _, _ = federation
        restored = regenerate_satellite(hub, "site0")
        report = verify_regeneration(
            satellites["site0"].schema, restored.schema(WAREHOUSE_SCHEMA)
        )
        assert report.exact
        assert "fact_job" in report.matching

    def test_regenerated_instance_can_reaggregate(self, federation):
        hub, satellites, _, _ = federation
        restored_db = regenerate_satellite(hub, "site0")
        from repro.aggregation import Aggregator

        schema = restored_db.schema(WAREHOUSE_SCHEMA)
        Aggregator(schema).aggregate_jobs("month")
        raw = sum(r["cpu_hours"] for r in schema.table("fact_job").rows())
        agg = sum(r["cpu_hours"] for r in schema.table("agg_job_month").rows())
        assert agg == pytest.approx(raw)

    def test_strict_verification_raises_on_mismatch(self, federation):
        hub, satellites, _, _ = federation
        restored = regenerate_satellite(hub, "site0")
        schema = restored.schema(WAREHOUSE_SCHEMA)
        schema.table("fact_job").delete_where(lambda r: r["job_id"] % 2 == 0)
        with pytest.raises(ConsistencyError):
            verify_regeneration(
                satellites["site0"].schema, schema, strict=True
            )

    def test_unknown_member(self, federation):
        hub, _, _, _ = federation
        with pytest.raises(MembershipError):
            regenerate_satellite(hub, "ghost")


class TestIdentity:
    def test_qualified_identity_format(self):
        assert qualified_identity("ccr", "alice") == "alice@ccr"

    def test_unmapped_user_appears_once_per_instance(self, federation):
        """Section II-D4: 'the user would appear twice in the federation'."""
        hub, satellites, _, _ = federation
        counts = federated_user_counts(hub)
        per_site = [
            len(s.schema.table("dim_person"))
            for s in satellites.values()
        ]
        assert counts["qualified"] == sum(per_site)
        assert counts["canonical"] == counts["qualified"]

    def test_identity_map_merges(self, federation):
        hub, satellites, _, _ = federation
        users = {
            name: [r["username"] for r in s.schema.table("dim_person").rows()]
            for name, s in satellites.items()
        }
        idmap = IdentityMap.from_username_match(users)
        counts = federated_user_counts(hub, idmap)
        overlap = set(users["site0"]) & set(users["site1"])
        assert counts["canonical"] == counts["qualified"] - len(overlap)

    def test_conflicting_link_rejected(self):
        idmap = IdentityMap().link("person1", "alice@a")
        with pytest.raises(IdentityError):
            idmap.link("person2", "alice@a")

    def test_unqualified_identity_rejected(self):
        with pytest.raises(IdentityError):
            IdentityMap().link("p", "alice")

    def test_resolve_falls_back_to_qualified(self):
        idmap = IdentityMap().link("alice", "alice@a", "alice@b")
        assert idmap.resolve("a", "alice") == "alice"
        assert idmap.resolve("c", "alice") == "alice@c"
