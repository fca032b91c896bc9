"""Coverage for smaller public API surfaces not exercised elsewhere."""

from __future__ import annotations

import json

import pytest

from repro.auth import Account, AccountStore, AuthError, IdentityProvider, ServiceProvider
from repro.core import (
    IdentityMap,
    RoutingPolicy,
    federation_resource_names,
    qualified_identity,
)
from repro.realms import jobs_realm
from repro.timeutil import from_ts, ts
from repro.ui import UsageExplorer, chart_to_json, ChartBuilder
from tests.conftest import T0

END = ts(2017, 6, 1)


class TestAccountStoreSurface:
    def test_has_usernames_ensure(self):
        store = AccountStore("inst")
        assert not store.has("alice")
        store.add(Account("alice"))
        assert store.has("alice")
        assert store.usernames() == ["alice"]
        same = store.ensure("alice")
        assert same is store.get("alice")
        created = store.ensure("bob", full_name="Bob")
        assert created.full_name == "Bob"
        assert store.usernames() == ["alice", "bob"]

    def test_get_unknown_raises(self):
        with pytest.raises(AuthError):
            AccountStore("inst").get("ghost")


class TestSamlSurface:
    def test_knows_and_trust_key(self):
        idp = IdentityProvider("idp.a")
        idp.register("alice")
        assert idp.knows("alice") and not idp.knows("bob")
        sp = ServiceProvider("app")
        sp.trust_key("idp.a", idp.key)
        assert sp.trusted_issuers == ["idp.a"]
        sp.validate(idp.issue("alice", "app"))


class TestIdentitySurface:
    def test_canonical_count(self):
        idmap = IdentityMap().link("alice", "alice@a", "alice@b")
        count = idmap.canonical_count(["alice@a", "alice@b", "carol@a"])
        assert count == 2

    def test_qualified_identity_round(self):
        assert qualified_identity("inst", "u") == "u@inst"


class TestRoutingSurface:
    def test_destinations(self):
        policy = RoutingPolicy().allow("open", ["h1"]).exclude("secret")
        assert policy.destinations("open") == {"h1"}
        assert policy.destinations("secret") == set()
        assert policy.destinations("unlisted") is None
        assert RoutingPolicy(default="none").destinations("x") == set()


class TestStandardizeSurface:
    def test_federation_resource_names(self, federation):
        hub, _, specs, _ = federation
        assert federation_resource_names(hub) == sorted(specs)


class TestExplorerSurface:
    def test_clear_filter_and_filter_map(self, aggregated_instance):
        explorer = UsageExplorer(jobs_realm(), aggregated_instance.schema)
        explorer.configure("cpu_hours", start=T0, end=END)
        explorer.filter("queue", ["normal"])
        assert explorer.state.filter_map() == {"queue": ("normal",)}
        explorer.clear_filter("queue")
        assert explorer.state.filter_map() == {}
        # back() past the beginning is a no-op
        for _ in range(10):
            explorer.back()
        assert explorer.state.metric == "cpu_hours"


class TestExportSurface:
    def test_chart_to_json(self, aggregated_instance):
        chart = ChartBuilder(jobs_realm(), aggregated_instance.schema).timeseries(
            "cpu_hours", start=T0, end=END, group_by="queue",
        )
        payload = json.loads(chart_to_json(chart))
        assert payload["title"] == chart.title
        assert len(payload["series"]) == len(chart.series)


class TestTimeutilSurface:
    def test_from_ts_round_trip(self):
        epoch = ts(2017, 11, 5, 6, 7, 8)
        d = from_ts(epoch)
        assert (d.year, d.month, d.day, d.hour, d.minute, d.second) == (
            2017, 11, 5, 6, 7, 8,
        )


class TestJobRecordProperties:
    def test_node_hours(self, job_records):
        record = next(r for r in job_records if r.walltime_s > 0)
        assert record.node_hours == pytest.approx(
            record.nodes * record.walltime_s / 3600
        )
        assert record.cpu_hours >= record.node_hours
