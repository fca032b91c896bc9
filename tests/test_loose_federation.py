"""Loose federation: dump shipping, staleness, handover to tight, and an
API that keeps serving the hub across re-ships and joins."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.aggregation import Aggregator
from repro.core import LooseChannel, ReplicationFilter, XdmodInstance
from repro.etl import ParsedJob, ingest_jobs
from repro.realms import jobs_realm
from repro.timeutil import ts
from repro.ui import XdmodApi
from repro.ui.serving import QueryService
from repro.warehouse import Database


def make_job(job_id, resource="r1"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 3), nodes=1, cores=2, req_walltime_s=7200,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def satellite_schema():
    schema = Database("sat").create_schema("modw")
    ingest_jobs(schema, [make_job(i) for i in range(8)])
    return schema


class TestLooseChannel:
    def test_ship_copies_data(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship()
        assert shipped.name == "fed_sat"
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )
        assert channel.shipments == 1

    def test_staleness_tracks_new_commits(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        assert channel.staleness > 0  # never shipped yet
        channel.ship()
        assert channel.staleness == 0
        ingest_jobs(satellite_schema, [make_job(100)])
        assert channel.staleness == 1

    def test_reship_replaces_previous_dump(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(100)])
        channel.ship()
        assert len(hub_db.schema("fed_sat").table("fact_job")) == 9

    def test_filter_applies_to_dump(self, satellite_schema):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        channel = LooseChannel(
            satellite_schema, hub_db, "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        shipped = channel.ship()
        assert {r["name"] for r in shipped.table("dim_resource").rows()} == {"r1"}
        assert len(shipped.table("fact_job")) == 8
        # bookkeeping tables never ship
        assert not shipped.has_table("etl_markers")

    def test_ship_via_file(self, satellite_schema, tmp_path):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship_via_file(tmp_path / "sat.dump.gz")
        assert (tmp_path / "sat.dump.gz").exists()
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )

    def test_to_tight_resumes_without_gap_or_overlap(self, satellite_schema):
        """The heterogeneous model: start loose, upgrade to tight."""
        hub_db = Database("hub")
        loose = LooseChannel(satellite_schema, hub_db, "fed_sat")
        loose.ship()
        ingest_jobs(satellite_schema, [make_job(100), make_job(101)])
        tight = loose.to_tight()
        applied = tight.catch_up()
        assert applied == 2  # exactly the two new fact rows
        hub_fact = hub_db.schema("fed_sat").table("fact_job")
        assert len(hub_fact) == 10
        assert hub_fact.checksum() == satellite_schema.table("fact_job").checksum()

    def test_to_tight_before_ship_rejected(self, satellite_schema):
        channel = LooseChannel(satellite_schema, Database("hub"), "fed_sat")
        with pytest.raises(RuntimeError):
            channel.to_tight()


class TestApiAcrossMembershipChanges:
    """An API built once over ``hub.federated_schemas()`` serves what the
    hub holds now: a loose re-ship loads a new ``Schema`` in place of the
    old one, and members join after the API exists."""

    END = ts(2018, 1, 1)

    def jobs_ended(self, api):
        status, payload = api.handle(
            f"/query?realm=jobs&metric=n_jobs_ended&start={ts(2017, 1, 1)}"
            f"&end={self.END}&period=year",
            {},
        )
        assert status == 200
        return sum(row["value"] for row in payload["rows"])

    @staticmethod
    def on_hub(hub):
        return sum(len(s.table("fact_job")) for s in hub.federated_schemas().values())

    def test_api_held_across_a_reship_serves_the_new_facts(self):
        from tests.conftest import build_two_site_federation

        hub, satellites, _, _ = build_two_site_federation(mode_b="loose")
        hub.aggregate_federation()
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        before = self.jobs_ended(api)
        assert before == self.on_hub(hub)
        ingest_jobs(satellites["site1"].schema, [make_job(10**6 + i) for i in range(3)])
        hub.ship_loose()
        hub.aggregate_federation()
        assert self.jobs_ended(api) == before + 3 == self.on_hub(hub)

    def test_replaced_schema_with_an_equal_data_version_is_not_served_from_cache(self):
        def member(cores):
            schema = Database("sat").create_schema("modw")
            ingest_jobs(schema, [replace(make_job(i), cores=cores) for i in range(4)])
            Aggregator(schema).aggregate_all(["year"])
            return schema

        old, new = member(2), member(8)
        assert old.data_version == new.data_version
        sources = {"sat": old}
        service = QueryService({"jobs": jobs_realm()}, sources)
        params = {
            "realm": "jobs", "metric": "cpu_hours", "start": str(ts(2017, 1, 1)),
            "end": str(self.END), "period": "year",
        }
        first = service.respond(params, chart=False)
        sources["sat"] = new  # what a re-ship does to the hub's mapping
        second = service.respond(params, chart=False)
        assert second.cache == "stale"
        assert second.payload["rows"][0]["value"] == 4 * first.payload["rows"][0]["value"]

    def test_member_that_joins_after_the_api_was_built_shows_up(self):
        from tests.conftest import build_two_site_federation

        hub, _, _, conversion = build_two_site_federation()
        hub.aggregate_federation()
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        before = self.jobs_ended(api)
        late = XdmodInstance("site9", conversion=conversion)
        ingest_jobs(late.schema, [make_job(i, resource="gamma") for i in range(5)])
        hub.join(late, mode="loose")
        hub.aggregate_federation()
        assert self.jobs_ended(api) == before + 5 == self.on_hub(hub)
