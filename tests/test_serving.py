"""The cache-first serving layer behind /query and /chart.

Covers the PR-6 read-path hardening end to end: warehouse
``data_version`` exposure, the query-result cache (hit / stale / evict
semantics, byte-identical answers, invalidation on mutation),
ETag/``If-None-Match`` 304s, ``offset``/``limit`` pagination, strict
JSON under ±Inf/NaN samples, the 400/500 guards, session-table
eviction, phantom-member gauge removal on ``leave()``, materialized
views refreshed by the federation's post-aggregation hook, and the
``api_error_ratio_high`` SLO rule — plus concurrent clients over a live
ThreadingHTTPServer with an invalidation landing mid-flight.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.auth.accounts import Session
from repro.obs import (
    GLOBAL_SCOPE,
    AlertEngine,
    FakeClock,
    MetricError,
    MetricsRegistry,
    Observability,
    alert_rule,
)
from repro.realms import jobs_realm
from repro.timeutil import ts
from repro.ui import (
    QueryService,
    ServingParamError,
    ViewSpec,
    XdmodApi,
    json_sanitize,
)
from repro.ui.rest import ApiServer
from repro.ui.serving import QueryCache, QueryRequest
from tests.conftest import T0

END = ts(2017, 6, 1)
QUERY = (
    f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={END}&group_by=queue"
)
CHART = (
    f"/chart?realm=jobs&metric=xdsu&start={T0}&end={END}&group_by=queue"
)


@pytest.fixture()
def api(aggregated_instance):
    return XdmodApi(
        {"jobs": jobs_realm()}, aggregated_instance.schema,
        obs=Observability.default(),
    )


def _lookups(api: XdmodApi) -> dict[str, float]:
    registry = api.obs.registry
    return {
        result: registry.value("serving_cache_lookups_total", result=result)
        for result in ("hit", "miss", "stale", "bypass")
    }


class TestDataVersion:
    """The warehouse side of invalidation: one counter, always bumped."""

    def test_bumps_on_insert_update_delete(self, instance):
        schema = instance.schema
        v0 = schema.data_version
        table = schema.table("fact_job")
        row = next(table.rows())
        table.update_where(
            lambda r: r["job_id"] == row["job_id"], {"cores": 99}
        )
        v1 = schema.data_version
        assert v1 > v0
        table.delete_where(lambda r: r["job_id"] == row["job_id"])
        assert schema.data_version > v1

    def test_bumps_on_create_and_drop_table(self, instance):
        from repro.warehouse import ColumnType, TableSchema, make_columns

        schema = instance.schema
        v0 = schema.data_version
        schema.create_table(TableSchema(
            "scratch", make_columns([("a", ColumnType.INT, False)])
        ))
        v1 = schema.data_version
        assert v1 > v0
        schema.drop_table("scratch")
        assert schema.data_version > v1

    def test_service_version_token_covers_all_sources(self, federation):
        hub, satellites, _, _ = federation
        site0 = satellites["site0"]
        service = QueryService({"jobs": jobs_realm()}, hub.federated_schemas())
        before = service.source_versions()
        site0.schema.table("fact_job").update_where(lambda r: True, {"cores": 1})
        hub.sync()
        assert service.source_versions() != before


class TestQueryCache:
    def test_hit_miss_stale_counters(self, aggregated_instance, api):
        assert api.handle(QUERY, {})[0] == 200
        assert _lookups(api)["miss"] == 1
        assert api.handle(QUERY, {})[0] == 200
        assert _lookups(api)["hit"] == 1
        # any warehouse mutation invalidates: stale recompute, then hits
        aggregated_instance.schema.table("fact_job").update_where(
            lambda r: True, {"exit_code": 0}
        )
        assert api.handle(QUERY, {})[0] == 200
        assert api.handle(QUERY, {})[0] == 200
        counts = _lookups(api)
        assert counts == {"hit": 2.0, "miss": 1.0, "stale": 1.0, "bypass": 0.0}

    def test_cached_and_uncached_bodies_byte_identical(self, aggregated_instance):
        realms = {"jobs": jobs_realm()}
        cached = XdmodApi(
            realms, aggregated_instance.schema, obs=Observability.default()
        )
        uncached = XdmodApi(realms, aggregated_instance.schema, cache=False)
        for path in (QUERY, CHART, QUERY + "&offset=1&limit=2"):
            first = cached.handle_raw(path, {})
            again = cached.handle_raw(path, {})  # warm: served from cache
            baseline = uncached.handle_raw(path, {})
            assert first == again == baseline

    def test_stale_entry_recomputes_new_values(self, aggregated_instance, api):
        _, before = api.handle(QUERY, {})
        schema = aggregated_instance.schema
        schema.table("fact_job").update_where(lambda r: True, {"cpu_hours": 0.0})
        aggregated_instance.aggregate(["day", "month"])
        _, after = api.handle(QUERY, {})
        assert before["rows"] != after["rows"]
        assert all(r["value"] == 0.0 for r in after["rows"])
        # re-stamped: the recomputed entry now serves hits
        assert api.handle(QUERY, {})[1] == after
        assert _lookups(api)["hit"] >= 1

    def test_lru_eviction_counted_and_bounded(self, aggregated_instance):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            obs=Observability.default(), cache_entries=3,
        )
        for metric in ("cpu_hours", "xdsu", "n_jobs_ended", "node_hours"):
            path = f"/query?realm=jobs&metric={metric}&start={T0}&end={END}"
            assert api.handle(path, {})[0] == 200
        assert len(api.serving.cache) == 3
        registry = api.obs.registry
        assert registry.value("serving_cache_evictions_total") == 1
        assert registry.value("serving_cache_entries_rows") == 3

    def test_no_cache_mode_counts_bypass(self, aggregated_instance):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            obs=Observability.default(), cache=False,
        )
        api.handle(QUERY, {})
        api.handle(QUERY, {})
        counts = _lookups(api)
        assert counts["bypass"] == 2 and counts["hit"] == 0
        assert len(api.serving.cache) == 0

    def test_cache_key_excludes_pagination(self):
        base = {"realm": "jobs", "metric": "x", "start": "0", "end": "1"}
        a = QueryRequest.parse(base, chart=False)
        b = QueryRequest.parse({**base, "offset": "2", "limit": "1"}, chart=False)
        c = QueryRequest.parse({**base, "period": "day"}, chart=False)
        assert a.key == b.key and a.key != c.key

    def test_cache_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)


class TestBadParameters:
    """Satellite: parse errors are 400s, never a dead handler thread."""

    @pytest.mark.parametrize("suffix", [
        "&top_n=abc", "&offset=abc", "&limit=abc", "&offset=-1", "&limit=-1",
        "&top_n=0",
    ])
    def test_bad_numeric_params_are_400(self, api, suffix):
        path = CHART if "top_n" in suffix else QUERY
        status, payload = api.handle(path + suffix, {})
        assert status == 400 and "bad parameters" in payload["error"]

    @pytest.mark.parametrize("path", [QUERY, CHART])
    def test_unknown_period_is_400_and_takes_no_cache_slot(self, api, path):
        """Was a 200 with empty rows (no ``agg_job_fortnight`` table to
        read), and every bogus spelling occupied a cache entry."""
        status, payload = api.handle(path + "&period=fortnight", {})
        assert status == 400 and "fortnight" in payload["error"]
        assert len(api.serving.cache) == 0
        assert api.handle(path + "&period=month", {})[0] == 200

    def test_missing_params_named(self, api):
        status, payload = api.handle("/query?realm=jobs", {})
        assert status == 400
        assert "metric" in payload["error"] and "start" in payload["error"]

    def test_parse_error_type(self):
        with pytest.raises(ServingParamError):
            QueryRequest.parse(
                {"realm": "r", "metric": "m", "start": "x", "end": "1"},
                chart=False,
            )

    def test_top_n_abc_over_live_server(self, api):
        with ApiServer(api) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                with urllib.request.urlopen(
                    f"{server.url}{CHART}&top_n=abc", timeout=10
                ):
                    pass
            assert exc.value.code == 400
            assert "bad parameters" in json.loads(exc.value.read())["error"]

    def test_handler_exception_yields_500_json(self, api, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(api.serving, "respond", boom)
        status, ctype, body = api.handle_raw(QUERY, {})
        assert status == 500 and ctype == "application/json"
        assert "handler bug" in json.loads(body)["error"]
        registry = api.obs.registry
        assert registry.value(
            "serving_requests_total", route="/query", **{"class": "5xx"}
        ) == 1
        with ApiServer(api) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                with urllib.request.urlopen(server.url + QUERY, timeout=10):
                    pass
            assert exc.value.code == 500
            assert "handler bug" in json.loads(exc.value.read())["error"]


class TestStrictJson:
    """Satellite: ±Inf/NaN registry samples must serialize as valid JSON."""

    def test_sanitizer(self):
        raw = {
            "inf": float("inf"),
            "nested": [float("-inf"), {"nan": float("nan")}],
            "fine": [1.5, "text", None, True],
        }
        clean = json_sanitize(raw)
        assert clean["inf"] == "+Inf"
        assert clean["nested"][0] == "-Inf"
        assert clean["nested"][1]["nan"] == "NaN"
        assert clean["fine"] == [1.5, "text", None, True]
        json.dumps(clean, allow_nan=False)  # must not raise

    def _poison_registry(self, registry: MetricsRegistry) -> None:
        gauge = registry.gauge("poison_gauge_rows", "nonfinite", ("kind",))
        gauge.labels(kind="pos").set(float("inf"))
        gauge.labels(kind="nan").set(float("nan"))
        hist = registry.histogram(
            "poison_seconds", "explicit +Inf bound",
            buckets=(0.1, float("inf")),
        )
        hist.observe(float("inf"))

    def test_metrics_json_route_with_nonfinite_samples(self, api):
        self._poison_registry(api.obs.registry)
        status, ctype, body = api.handle_raw("/metrics", {"Accept": "json"})
        # Prometheus text path still renders (it spells inf as +Inf natively)
        assert status == 200 and "text/plain" in ctype
        status, payload, _ = api.handle_full("/metrics", {})
        assert status == 200
        body = json.dumps(json_sanitize(payload), allow_nan=False)
        decoded = json.loads(body)
        values = {
            v["labels"]["kind"]: v["value"]
            for v in decoded["poison_gauge_rows"]["values"]
        }
        assert values == {"pos": "+Inf", "nan": "NaN"}
        assert decoded["poison_seconds"]["values"][0]["sum"] == "+Inf"

    def test_status_embeds_snapshot_safely_over_http(self, federation):
        from repro.core.monitor import FederationMonitor

        hub, _, _, _ = federation
        monitor = FederationMonitor(hub)
        self._poison_registry(hub.obs.registry)
        api = XdmodApi(
            {"jobs": jobs_realm()}, hub.federated_schemas(),
            obs=hub.obs, monitor=monitor,
        )
        with ApiServer(api) as server:
            with urllib.request.urlopen(f"{server.url}/status", timeout=10) as r:
                payload = json.loads(r.read())  # strict parser: would choke on NaN
        metrics = payload["metrics"]
        assert metrics["poison_gauge_rows"]["values"][0]["value"] in ("+Inf", "NaN")
        assert metrics["poison_seconds"]["values"][0]["sum"] == "+Inf"


class TestEtagAndPagination:
    def test_etag_roundtrip_unit(self, api):
        status, payload, headers = api.handle_full(QUERY, {})
        assert status == 200 and headers["ETag"].startswith('"')
        assert headers["X-Cache"] == "miss"
        status, payload2, headers2 = api.handle_full(
            QUERY, {"If-None-Match": headers["ETag"]}
        )
        assert status == 304 and payload2 == {}
        assert headers2["ETag"] == headers["ETag"]
        # weak-comparison and list forms match too
        status, _, _ = api.handle_full(
            QUERY, {"If-None-Match": f'W/{headers["ETag"]}, "other"'}
        )
        assert status == 304

    def test_etag_changes_when_data_changes(self, aggregated_instance, api):
        _, _, headers = api.handle_full(QUERY, {})
        aggregated_instance.schema.table("fact_job").update_where(
            lambda r: True, {"cpu_hours": 0.0}
        )
        aggregated_instance.aggregate(["day", "month"])
        status, _, headers2 = api.handle_full(
            QUERY, {"If-None-Match": headers["ETag"]}
        )
        assert status == 200 and headers2["ETag"] != headers["ETag"]

    def test_pagination_windows_partition_rows(self, api):
        _, full = api.handle(QUERY, {})
        total = full["total_rows"]
        assert total == len(full["rows"]) and full["offset"] == 0
        pages = []
        for offset in range(0, total, 2):
            _, page = api.handle(f"{QUERY}&offset={offset}&limit=2", {})
            assert page["total_rows"] == total and len(page["rows"]) <= 2
            pages.extend(page["rows"])
        assert pages == full["rows"]
        _, beyond = api.handle(f"{QUERY}&offset={total + 5}&limit=2", {})
        assert beyond["rows"] == []

    def test_chart_pagination_slices_series(self, api):
        _, full = api.handle(CHART, {})
        assert full["total_series"] == len(full["series"]) >= 2
        _, page = api.handle(f"{CHART}&limit=1", {})
        assert len(page["series"]) == 1
        assert page["series"][0] == full["series"][0]

    def test_304_and_pagination_over_http(self, api):
        with ApiServer(api) as server:
            with urllib.request.urlopen(
                f"{server.url}{QUERY}&limit=2", timeout=10
            ) as r:
                etag = r.headers["ETag"]
                assert r.headers["X-Cache"] == "miss"
                assert len(json.loads(r.read())["rows"]) == 2
            request = urllib.request.Request(
                f"{server.url}{QUERY}&limit=2",
                headers={"If-None-Match": etag},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
            assert exc.value.code == 304
            assert exc.value.read() == b""
            # different window, same cache entry: new ETag, still a hit
            with urllib.request.urlopen(
                f"{server.url}{QUERY}&limit=3", timeout=10
            ) as r:
                assert r.headers["ETag"] != etag
                assert r.headers["X-Cache"] == "hit"


class TestSessionEviction:
    """Satellite: the token table stays bounded by live sessions."""

    @staticmethod
    def _session(token: str, *, ttl: float) -> Session:
        now = time.time()
        return Session(
            token=token, username="u", instance="i", method="local",
            issued_at=now, expires_at=now + ttl,
            capabilities=frozenset({"query"}),
        )

    def test_register_evicts_expired(self, aggregated_instance):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            require_auth=True,
        )
        for i in range(5):
            api.register_session(self._session(f"dead{i}", ttl=-1.0))
        assert len(api._sessions) == 1  # each registration evicted the last
        api.register_session(self._session("live", ttl=3600.0))
        assert set(api._sessions) == {"live"}

    def test_expired_token_evicted_on_access(self, aggregated_instance):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            require_auth=True,
        )
        api.register_session(self._session("stale", ttl=-1.0))
        status, _ = api.handle(
            QUERY, {"Authorization": "Bearer stale"}
        )
        assert status == 401 and "stale" not in api._sessions


class TestPhantomMemberGauges:
    """Satellite: leave() must remove the member's gauge series."""

    def test_remove_labels_unit(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("phantom_rows", "", ("member", "kind"))
        gauge.labels(member="a", kind="x").set(1)
        gauge.labels(member="a", kind="y").set(2)
        gauge.labels(member="b", kind="x").set(3)
        assert registry.remove_labels("phantom_rows", member="a") is True
        assert registry.value("phantom_rows", member="a", kind="x") == 0.0
        assert registry.value("phantom_rows", member="b", kind="x") == 3.0
        assert registry.remove_labels("phantom_rows", member="a") is False
        assert registry.remove_labels("no_such_metric_rows", member="a") is False
        with pytest.raises(MetricError):
            registry.remove_labels("phantom_rows", bogus="a")

    def test_leave_clears_member_series(self, federation):
        hub, _, _, _ = federation
        hub.sync()
        text = hub.obs.registry.render_prometheus()
        assert 'replication_lag_rows{member="site0"}' in text
        hub.leave("site0")
        text = hub.obs.registry.render_prometheus()
        assert 'replication_lag_rows{member="site0"}' not in text
        assert 'federation_dead_letters_rows{member="site0"}' not in text
        # the surviving member's series is untouched
        assert 'replication_lag_rows{member="site1"}' in text


class TestMaterializedViews:
    def test_post_aggregation_hook_refreshes_views(self, federation):
        hub, satellites, _, _ = federation
        site0 = satellites["site0"]
        api = XdmodApi(
            {"jobs": jobs_realm()}, hub.federated_schemas(), obs=hub.obs,
        )
        end = ts(2017, 2, 1)
        view = api.serving.register_view(ViewSpec(
            "jobs", "cpu_hours", T0, end, group_by="resource",
            view="aggregate",
        ))
        chart_view = api.serving.register_view(ViewSpec(
            "jobs", "xdsu", T0, end, group_by="person", view="aggregate",
            chart=True, top_n=3, title="top people",
        ))
        assert api.serving.views == (view, chart_view)
        hub.add_post_aggregation_hook(api.serving.materialize)
        hub.aggregate_federation(["month"])
        refreshes = hub.obs.registry.value("serving_view_refreshes_total")
        assert refreshes == 2
        # a request matching the view is served from cache, byte-for-byte
        path = (
            f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={end}"
            "&group_by=resource&view=aggregate"
        )
        status, _, headers = api.handle_full(path, {})
        assert status == 200 and headers["X-Cache"] == "hit"
        # new replicated data + re-aggregation re-materializes to fresh rows
        site0.schema.table("fact_job").update_where(lambda r: True, {"cpu_hours": 0.0})
        hub.sync()
        hub.aggregate_federation(["month"])
        assert hub.obs.registry.value("serving_view_refreshes_total") == 4
        status, payload, headers = api.handle_full(path, {})
        assert status == 200 and headers["X-Cache"] == "hit"
        assert any(r["value"] == 0.0 for r in payload["rows"])

    def test_register_views_deduplicates(self, aggregated_instance):
        api = XdmodApi({"jobs": jobs_realm()}, aggregated_instance.schema)
        spec = ViewSpec("jobs", "cpu_hours", T0, END)
        assert api.serving.register_views([spec, spec]) == 1
        assert api.serving.stats()["views"] == 1


class TestErrorRatioAlert:
    def test_api_error_ratio_high_fires_globally(self):
        clock = FakeClock(1000.0)
        obs = Observability(clock=clock)
        api_requests = obs.registry.counter(
            "serving_requests_total",
            "API requests by route and status class",
            ("route", "class"),
        )
        engine = AlertEngine(
            obs.history, [alert_rule("api_error_ratio_high")]
        )
        # healthy traffic: 2xx only
        api_requests.labels(route="/query", **{"class": "2xx"}).inc(50)
        obs.history.record()
        engine.evaluate(["site0"])
        state = engine.state_of("api_error_ratio_high", GLOBAL_SCOPE)
        assert state is not None and state.status == "inactive"
        # an outage: 5 errors per minute against 20 successes = 20% > 5%
        # (the first 5xx sample only establishes the series — increase()
        # needs a predecessor — so breach cycles start one record later)
        for _ in range(3):
            clock.advance(60)
            api_requests.labels(route="/query", **{"class": "5xx"}).inc(5)
            api_requests.labels(route="/query", **{"class": "2xx"}).inc(20)
            obs.history.record()
            engine.evaluate(["site0"])
        state = engine.state_of("api_error_ratio_high", GLOBAL_SCOPE)
        assert state is not None and state.status == "firing"
        # global scope: never evaluated per member
        assert engine.state_of("api_error_ratio_high", "site0") is None
        # recovery: error-free windows resolve it
        for _ in range(12):
            clock.advance(60)
            api_requests.labels(route="/query", **{"class": "2xx"}).inc(20)
            obs.history.record()
        engine.evaluate(["site0"])
        assert state.status == "resolved"


class TestConcurrentClients:
    """Tentpole acceptance: concurrency + mid-flight invalidation."""

    N_THREADS = 6
    ROUNDS = 15

    def test_concurrent_hits_stay_correct_across_version_bump(
        self, aggregated_instance
    ):
        api = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema,
            obs=Observability.default(),
        )
        uncached = XdmodApi(
            {"jobs": jobs_realm()}, aggregated_instance.schema, cache=False,
        )
        paths = [
            QUERY,
            CHART,
            f"/query?realm=jobs&metric=n_jobs_ended&start={T0}&end={END}",
        ]
        flipped = threading.Event()
        failures: list[str] = []

        def flip() -> None:
            # the mid-flight invalidation: zero out a metric and
            # re-aggregate while clients are hammering the cache
            aggregated_instance.schema.table("fact_job").update_where(
                lambda r: True, {"cpu_hours": 0.0}
            )
            aggregated_instance.aggregate(["day", "month"])
            flipped.set()

        def client(seq: int) -> None:
            for i in range(self.ROUNDS):
                path = paths[(seq + i) % len(paths)]
                if seq == 0 and i == self.ROUNDS // 2:
                    flip()
                with server_lock:
                    pass  # serialize nothing; just a GIL yield point
                try:
                    with urllib.request.urlopen(
                        server.url + path, timeout=30
                    ) as r:
                        assert r.status == 200
                        json.loads(r.read())
                except Exception as exc:
                    failures.append(f"{path}: {exc!r}")

        server_lock = threading.Lock()
        with ApiServer(api) as server:
            threads = [
                threading.Thread(target=client, args=(seq,))
                for seq in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures, failures[:5]
        assert flipped.is_set()
        # after the dust settles: cache serves the post-flip world,
        # byte-identical to an uncached recompute
        for path in paths:
            assert api.handle_raw(path, {}) == uncached.handle_raw(path, {})
        counts = _lookups(api)
        assert counts["hit"] > 0 and counts["stale"] >= 1
        # requests observed server-side with latency samples
        count, _ = api.obs.registry.histogram_stats(
            "serving_request_seconds", route="/query"
        )
        assert count > 0
