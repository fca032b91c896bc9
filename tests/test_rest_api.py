"""HTTP JSON API over a live (loopback) server."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.auth import Account, AccountStore, Role
from repro.cli import _demo_analytics_federation
from repro.core import FederationMonitor
from repro.etl import ParsedJob, ingest_jobs
from repro.obs import FakeClock, Observability
from repro.realms import jobs_realm, supremm_realm
from repro.timeutil import ts
from repro.ui import ApiServer, XdmodApi, serving
from repro.ui.rest import _ROUTES
from tests.conftest import T0
from tests.rest_client import get_json

END = ts(2017, 6, 1)


def _get(url: str, token: str | None = None):
    request = urllib.request.Request(url)
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def api(aggregated_instance):
    return XdmodApi({"jobs": jobs_realm()}, aggregated_instance.schema)


class TestDispatchUnit:
    """Handler logic without a socket."""

    def test_health(self, api):
        status, payload, _ = get_json(api, "/health")
        assert status == 200 and payload["realms"] == ["jobs"]

    def test_realm_catalog(self, api):
        status, payload, _ = get_json(api, "/realms")
        assert "cpu_hours" in payload["jobs"]["metrics"]
        assert "resource" in payload["jobs"]["dimensions"]

    def test_unknown_route(self, api):
        status, _, _ = get_json(api, "/bogus")
        assert status == 404

    def test_query_requires_params(self, api):
        status, payload, _ = get_json(api, "/query?realm=jobs")
        assert status == 400 and "error" in payload

    def test_unknown_realm(self, api):
        status, _, _ = get_json(api, f"/query?realm=nope&metric=x&start=0&end=1")
        assert status == 400

    def test_query_rows(self, api):
        status, payload, _ = get_json(
            api, f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={END}"
            "&group_by=queue",
        )
        assert status == 200
        assert payload["rows"]

    def test_filters(self, api):
        status, payload, _ = get_json(
            api, f"/query?realm=jobs&metric=n_jobs_ended&start={T0}&end={END}"
            "&group_by=queue&filter.queue=normal",
        )
        assert status == 200
        assert {r["group"] for r in payload["rows"]} == {"normal"}

    def test_chart_payload(self, api):
        status, payload, _ = get_json(
            api, f"/chart?realm=jobs&metric=xdsu&start={T0}&end={END}"
            "&group_by=queue&top_n=2",
        )
        assert status == 200
        assert len(payload["series"]) <= 2

    def test_bad_realm_query_error_maps_to_400(self, api):
        status, _, _ = get_json(
            api, f"/query?realm=jobs&metric=bogus&start={T0}&end={END}"
        )
        assert status == 400


class TestAuthGate:
    def test_query_requires_token_when_enabled(self, aggregated_instance):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            require_auth=True,
        )
        status, _, _ = get_json(
            api, f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={END}"
        )
        assert status == 401
        store = AccountStore("inst")
        store.add(Account("alice", roles={Role.USER}))
        session = store.open_session("alice", "local")
        api.register_session(session)
        status, _, _ = get_json(
            api, f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={END}",
            {"Authorization": f"Bearer {session.token}"},
        )
        assert status == 200
        # catalog stays public
        status, _, _ = get_json(api, "/realms")
        assert status == 200


class TestLiveServer:
    def test_end_to_end_over_http(self, api):
        with ApiServer(api) as server:
            status, payload = _get(f"{server.url}/health")
            assert status == 200
            status, payload = _get(
                f"{server.url}/query?realm=jobs&metric=cpu_hours"
                f"&start={T0}&end={END}&group_by=resource"
            )
            assert status == 200
            assert payload["rows"]
            groups = {r["group"] for r in payload["rows"]}
            assert groups == {"testcluster"}

    def test_404_over_http(self, api):
        with ApiServer(api) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"{server.url}/nope")
            assert exc.value.code == 404


class TestFederatedApi:
    def test_hub_serves_federated_sources(self, federation):
        """The hub's web UI surface: one API over all replicated schemas."""
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        status, payload, _ = get_json(
            api, f"/query?realm=jobs&metric=xdsu&start={T0}&end={END}"
            "&group_by=resource&view=aggregate",
        )
        assert status == 200
        groups = {r["group"] for r in payload["rows"]}
        assert groups == {"alpha_cluster", "beta_cluster"}

    def test_federated_person_groups_qualified(self, federation):
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
        status, payload, _ = get_json(
            api, f"/query?realm=jobs&metric=n_jobs_ended&start={T0}&end={END}"
            "&group_by=person&view=aggregate",
        )
        assert status == 200
        assert all("@" in r["group"] for r in payload["rows"])


# -- /status re-hashes only what changed ------------------------------------


def checked_versions(hub):
    """Every table ``check_federation`` digests (hub copy and satellite
    original), with its ``data_version``."""
    out = {}
    for member in hub.members:
        hub_schema = hub.database.schema(member.fed_schema)
        satellite = member.instance.schema
        for name in hub_schema.table_names():
            if satellite.has_table(name):
                for table in (hub_schema.table(name), satellite.table(name)):
                    out[table] = table.data_version
    return out


class TestStatusCost:
    def test_status_hashes_only_the_tables_whose_version_moved(
        self, federation, count_hashes
    ):
        hub, satellites, _, _ = federation
        api = XdmodApi(
            {"jobs": jobs_realm()}, hub.federated_schemas(),
            monitor=FederationMonitor(hub),
        )
        assert get_json(api, "/status")[0] == 200
        first = len(count_hashes)
        before = checked_versions(hub)
        assert first == len(before)
        assert get_json(api, "/status")[0] == 200
        assert len(count_hashes) == first  # an unchanged hub hashes nothing

        job = ParsedJob(
            job_id=90001, user="newcomer", pi="p", queue="q", application="a",
            submit_ts=T0, start_ts=T0 + 60, end_ts=T0 + 3600, nodes=1, cores=2,
            req_walltime_s=3600, state="COMPLETED", exit_code=0,
            resource="alpha_cluster",
        )
        ingest_jobs(satellites["site0"].schema, [job])
        hub.sync()
        after = checked_versions(hub)
        moved = [t for t, version in after.items() if before.get(t) != version]
        _, payload, _ = get_json(api, "/status")
        assert payload["all_consistent"]
        assert len(count_hashes) - first == len(moved)
        assert 0 < len(moved) < len(after)


# -- one door: every caller gets the same answer, counted once ---------------

WINDOW = f"start={ts(2017, 1, 1)}&end={ts(2017, 2, 1)}"
QUERY = f"/query?realm=jobs&metric=cpu_hours&{WINDOW}&group_by=resource"
#: a URL per route in the table; a route not named here is asked bare
URLS = {
    "/query": QUERY,
    "/chart": f"/chart?realm=jobs&metric=xdsu&{WINDOW}&group_by=resource",
    "/jobs/efficiency": f"/jobs/efficiency?{WINDOW}&limit=5",
}


@pytest.fixture(scope="module")
def demo_hub():
    """Two members with fleet telemetry and the analytics plane, on a
    fake clock nothing advances here, so equal request sequences give
    equal bytes."""
    hub, _, plane, _, _ = _demo_analytics_federation()
    return hub, plane


def _twin_apis(demo_hub, **options) -> tuple[XdmodApi, XdmodApi]:
    """Two identical APIs over one hub, each with its own monitor and
    frozen-clock registry: one is asked in-process, the other over HTTP."""
    hub, plane = demo_hub

    def build() -> XdmodApi:
        return XdmodApi(
            {"jobs": jobs_realm(), "supremm": supremm_realm()},
            hub.federated_schemas(),
            obs=Observability(clock=FakeClock()),
            monitor=FederationMonitor(hub, analytics=plane),
            **options,
        )

    return build(), build()


def _fetch(server: ApiServer, path: str, headers=None):
    """One GET over a socket, shaped like ``XdmodApi.handle_http``."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        extra = {
            name: response.getheader(name)
            for name in ("ETag", "X-Cache") if response.getheader(name)
        }
        return (
            response.status, response.getheader("Content-Type"),
            response.read(), extra,
        )
    finally:
        conn.close()


def _request_counts(api: XdmodApi) -> Counter:
    values = api.obs.registry.snapshot()["serving_requests_total"]["values"]
    return Counter({
        (v["labels"]["route"], v["labels"]["class"]): v["value"] for v in values
    })


class TestOneDoor:
    def test_every_route_is_the_same_in_process_and_over_http(self, demo_hub):
        local, remote = _twin_apis(demo_hub)
        with ApiServer(remote) as server:
            for route in _ROUTES:
                for _ in range(2):  # a cached route: miss, then hit
                    path = URLS.get(route, route)
                    answer = local.handle_http(path, {})
                    assert answer[0] == 200, (route, answer[2])
                    assert answer == _fetch(server, path), route
        assert local.handle_http(QUERY, {})[3]["X-Cache"] == "hit"

    @pytest.mark.parametrize("case", ["401", "404", "304", "400", "500"])
    def test_error_answers_are_the_same_in_process_and_over_http(
        self, demo_hub, monkeypatch, case
    ):
        local, remote = _twin_apis(demo_hub, require_auth=(case == "401"))
        path, headers = QUERY, {}
        if case == "404":
            path = "/no/such/route"
        elif case == "400":
            path = f"{QUERY}&limit=-1"
        elif case == "304":
            etag = local.handle_http(QUERY, {})[3]["ETag"]
            assert remote.handle_http(QUERY, {})[3]["ETag"] == etag
            headers = {"If-None-Match": etag}
        elif case == "500":
            def boom(*args, **kwargs):
                raise RuntimeError("handler bug")

            for api in (local, remote):
                monkeypatch.setattr(api.serving, "respond", boom)
        with ApiServer(remote) as server:
            answer = local.handle_http(path, headers)
            assert answer == _fetch(server, path, headers)
        assert answer[0] == int(case)
        if case == "304":
            assert answer[2] == b""
        else:
            assert "error" in json.loads(answer[2])

    def test_each_request_counts_once_under_its_route_label(self, demo_hub):
        api, _ = _twin_apis(demo_hub, require_auth=True)
        for route in [*_ROUTES, "/nope"]:
            before = _request_counts(api)
            status = api.handle_http(URLS.get(route, route), {})[0]
            label = route if route in _ROUTES else "other"
            assert _request_counts(api) - before == Counter(
                {(label, f"{status // 100}xx"): 1}
            ), route

    def test_a_memoized_hit_is_not_encoded_again(self, demo_hub, monkeypatch):
        api, _ = _twin_apis(demo_hub)
        miss = api.handle_http(QUERY, {})
        calls: Counter = Counter()
        dumps, sanitize = json.dumps, serving.json_sanitize

        def counted_dumps(*args, **kwargs):
            calls["json.dumps"] += 1
            return dumps(*args, **kwargs)

        def counted_sanitize(obj):
            calls["json_sanitize"] += 1
            return sanitize(obj)

        monkeypatch.setattr(serving.json, "dumps", counted_dumps)
        monkeypatch.setattr(serving, "json_sanitize", counted_sanitize)
        hit = api.handle_http(QUERY, {})
        assert hit[3]["X-Cache"] == "hit" and hit[:3] == miss[:3]
        assert calls == Counter()
        # a miss encodes its body once, and hashes those bytes for the ETag
        api.handle_http(f"{QUERY}&view=aggregate", {})
        assert calls["json.dumps"] == 1
