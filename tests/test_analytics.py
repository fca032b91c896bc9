"""Job-level analytics: summarization, anomaly detection, efficiency views.

Covers the PR-9 analytics loop end to end:

- :func:`repro.analytics.summarize_series` — the pure fold from one
  job's node timeseries to statistics, tags and a 0–1 efficiency score;
- :func:`repro.analytics.summarize_schema` — the satellite-side stage
  (idempotent upserts, ``data_version`` bumps, telemetry feeds) and the
  replication of ``fact_job_analytics`` through the SUPReMM summary
  filter while the raw series stay home;
- :meth:`repro.realms.supremm.SupremmRealm.job_scores` — the
  federation-wide worst-first ranking with member/application filters;
- ``GET /jobs/efficiency`` — cache/ETag/pagination contract;
- :class:`repro.obs.anomaly.AnomalyDetector` — robust per-application
  baselines, the ``min_samples``/``min_baseline`` guards, exactly-once
  counting;
- the acceptance scenario: a two-member federation with injected
  pathological jobs, summarize -> federate -> query, the injected jobs
  rank worst, the detector flags exactly them, the
  ``analytics_anomaly_rate_high`` SLO rule fires, and the monitor's
  render is byte-identical across runs under a FakeClock.
"""

from __future__ import annotations

import json

import pytest

from repro.analytics import (
    ANALYTICS_TABLE,
    AnalyticsPlane,
    summarize_schema,
    summarize_series,
)
from repro.cli import _demo_analytics_federation, main
from repro.core import FederationHub, XdmodInstance, supremm_summary_filter
from repro.etl import ingest_performance
from repro.obs import FakeClock, Observability, parse_prometheus_text
from repro.obs.anomaly import (
    SCORE_SERIES,
    AnomalyDetector,
    JobScore,
    classify_kind,
)
from repro.realms import RealmQueryError, supremm_realm
from repro.simulators import (
    WorkloadConfig,
    WorkloadGenerator,
    generate_performance_batch,
    simulate_resource,
    to_sacct_log,
)
from repro.ui import XdmodApi
from tests.conftest import T0, T_MAR


def fake_obs(name: str) -> Observability:
    return Observability(clock=FakeClock(auto_advance=0.001), name=name)


def build_perf_instance(name, small_resource, *, seed, obs=None, member=""):
    """A satellite with accounting, perf series, and analytics summaries."""
    config = WorkloadConfig(
        seed=seed, jobs_per_day=8, max_cores=small_resource.total_cores
    )
    records = simulate_resource(
        small_resource, WorkloadGenerator(config).generate(T0, T0 + 7 * 86400)
    )
    instance = XdmodInstance(name, obs=obs)
    instance.pipeline.ingest_sacct(
        to_sacct_log(records), default_resource=small_resource.name
    )
    batch = generate_performance_batch(records, small_resource, max_jobs=12)
    ingest_performance(instance.schema, batch)
    summarize_schema(instance.schema, obs=obs, member=member or name)
    return instance, len(batch)


# -- summarize_series (pure) --------------------------------------------------

# the "uncategorized" profile: cpu_fraction 0.70, mem_fraction 0.35,
# flops_per_core 3.0 -> expected intensity 3.0 / (0.35 * 40) ~= 0.214,
# saturating (with 4x headroom) at measured intensity ~= 0.857
APP = "uncategorized"


def nominal_series(n=10):
    return {
        "cpu_user": [0.7] * n,
        "mem_bw_gbs": [1.0] * n,
        "flops_gf": [10.0] * n,
    }


class TestSummarizeSeries:
    def test_nominal_job_scores_one_untagged(self):
        summary = summarize_series(1, "r", APP, nominal_series())
        assert summary.efficiency_score == pytest.approx(1.0)
        assert summary.tags == ()
        assert summary.n_samples == 10
        assert summary.idle_tail_frac == 0.0
        assert summary.intensity_ratio == pytest.approx(1.0)

    def test_deterministic(self):
        series = nominal_series()
        assert summarize_series(1, "r", APP, series) == summarize_series(
            1, "r", APP, series
        )

    def test_idle_tail_tagged_and_penalized(self):
        series = nominal_series()
        series["cpu_user"] = [0.7] * 8 + [0.05] * 2  # trailing 20% idle
        summary = summarize_series(1, "r", APP, series)
        assert "idle-tail" in summary.tags
        assert summary.idle_tail_frac == pytest.approx(0.2)
        # cpu_term (0.57/0.7) * tail factor 0.8 * full intensity factor
        assert summary.efficiency_score == pytest.approx(
            (0.57 / 0.7) * 0.8, rel=1e-6
        )

    def test_memory_bound_tag(self):
        series = nominal_series()
        series["flops_gf"] = [0.5] * 10
        series["mem_bw_gbs"] = [10.0] * 10  # low arithmetic intensity
        summary = summarize_series(1, "r", APP, series)
        assert "memory-bound" in summary.tags
        assert summary.intensity_ratio < 0.5
        assert summary.efficiency_score < 0.5

    def test_io_heavy_tag(self):
        series = nominal_series()
        series["io_read_mbs"] = [150.0] * 10
        series["io_write_mbs"] = [60.0] * 10
        summary = summarize_series(1, "r", APP, series)
        assert "io-heavy" in summary.tags
        assert summary.io_avg_mbs == pytest.approx(210.0)

    def test_low_cpu_tag(self):
        series = nominal_series()
        series["cpu_user"] = [0.3] * 10  # cpu_term 0.43 < 0.5
        summary = summarize_series(1, "r", APP, series)
        assert "low-cpu" in summary.tags

    def test_empty_series_scores_zero(self):
        summary = summarize_series(1, "r", APP, {})
        assert summary.n_samples == 0
        assert summary.efficiency_score == 0.0
        assert summary.tags == ("memory-bound", "low-cpu")

    def test_statistics(self):
        series = {"cpu_user": [0.0, 0.25, 0.5, 0.75, 1.0]}
        summary = summarize_series(1, "r", APP, series)
        assert summary.cpu_user_avg == pytest.approx(0.5)
        assert summary.cpu_user_p05 == pytest.approx(0.05)
        assert summary.cpu_user_p95 == pytest.approx(0.95)
        assert summary.cpu_imbalance == pytest.approx(0.70710678)
        assert summary.idle_tail_frac == 0.0  # job ends busy

    def test_unknown_application_uses_fallback_profile(self):
        series = nominal_series()
        fallback = summarize_series(1, "r", APP, series)
        unknown = summarize_series(1, "r", "no_such_app", series)
        assert unknown.efficiency_score == fallback.efficiency_score
        assert unknown.tags == fallback.tags
        assert unknown.application == "no_such_app"


# -- satellite stage + replication -------------------------------------------


class TestSummarizeSchema:
    def test_upserts_are_idempotent_and_bump_data_version(
        self, small_resource
    ):
        instance, n_jobs = build_perf_instance("sat", small_resource, seed=50)
        schema = instance.schema
        fact = schema.table(ANALYTICS_TABLE)
        assert len(fact) == n_jobs
        first = sorted(
            fact.rows(), key=lambda r: (r["resource_id"], r["job_id"])
        )
        version = schema.data_version
        # re-summarizing rewrites the same rows, and still stamps the
        # serving cache's invalidation counter
        assert summarize_schema(schema) == n_jobs
        assert len(fact) == n_jobs
        again = sorted(
            fact.rows(), key=lambda r: (r["resource_id"], r["job_id"])
        )
        assert again == first
        assert schema.data_version > version

    def test_schema_without_series_summarizes_nothing(self):
        assert summarize_schema(XdmodInstance("bare").schema) == 0

    def test_obs_feeds_counter_and_score_series(self, small_resource):
        obs = fake_obs("sat")
        _, n_jobs = build_perf_instance(
            "sat", small_resource, seed=50, obs=obs, member="siteX"
        )
        parsed = parse_prometheus_text(obs.registry.render_prometheus())
        assert parsed.value(
            "analytics_jobs_summarized_total", member="siteX"
        ) == n_jobs
        samples = obs.history.samples(SCORE_SERIES, member="siteX")
        assert len(samples) == n_jobs
        assert all(0.0 <= v <= 1.0 for _, v in samples)

    def test_analytics_facts_replicate_series_stay_home(self, small_resource):
        instance, n_jobs = build_perf_instance("sat", small_resource, seed=50)
        hub = FederationHub("hub")
        hub.join(instance, filter=supremm_summary_filter())
        fed = hub.federated_schemas()["sat"]
        assert fed.has_table(ANALYTICS_TABLE)
        assert len(fed.table(ANALYTICS_TABLE)) == n_jobs
        assert not fed.has_table("job_timeseries")


# -- realm ranking ------------------------------------------------------------


@pytest.fixture()
def two_member_sources(small_resource):
    a, _ = build_perf_instance("a", small_resource, seed=50)
    b, _ = build_perf_instance("b", small_resource, seed=51)
    return {"a": a.schema, "b": b.schema}


class TestJobScores:
    def test_ranked_worst_first_with_deterministic_ties(
        self, two_member_sources
    ):
        rows = supremm_realm().job_scores(two_member_sources)
        assert len(rows) == 24
        keys = [
            (r["score"], r["member"], r["resource"], r["job_id"])
            for r in rows
        ]
        assert keys == sorted(keys)
        assert {r["member"] for r in rows} == {"a", "b"}

    def test_member_and_application_filters(self, two_member_sources):
        realm = supremm_realm()
        only_a = realm.job_scores(two_member_sources, member="a")
        assert only_a and all(r["member"] == "a" for r in only_a)
        app = only_a[0]["application"]
        filtered = realm.job_scores(two_member_sources, application=app)
        assert filtered and all(r["application"] == app for r in filtered)

    def test_time_window_filters_on_job_end(self, two_member_sources):
        realm = supremm_realm()
        everything = realm.job_scores(two_member_sources, start=T0, end=T_MAR)
        assert everything == realm.job_scores(two_member_sources)
        assert realm.job_scores(
            two_member_sources, start=T_MAR, end=T_MAR + 86400
        ) == []

    def test_members_without_analytics_are_skipped(self, two_member_sources):
        realm = supremm_realm()
        baseline = realm.job_scores(two_member_sources)
        with_idle = dict(two_member_sources)
        with_idle["idle"] = XdmodInstance("idle").schema
        assert realm.job_scores(with_idle) == baseline

    def test_bare_schema_source_is_member_local(self, two_member_sources):
        rows = supremm_realm().job_scores(two_member_sources["a"])
        assert rows and all(r["member"] == "local" for r in rows)

    def test_query_efficiency_truncates(self, two_member_sources):
        realm = supremm_realm()
        full = realm.job_scores(two_member_sources)
        assert realm.query_efficiency(two_member_sources, limit=3) == full[:3]


# -- REST: /jobs/efficiency ---------------------------------------------------


class TestEfficiencyEndpoint:
    @pytest.fixture()
    def api(self, two_member_sources):
        return XdmodApi(
            {"supremm": supremm_realm()}, two_member_sources,
            obs=fake_obs("api"),
        )

    def test_ranking_cache_and_etag(self, api):
        status, payload, headers = api.handle_full("/jobs/efficiency", {})
        assert status == 200
        assert headers["X-Cache"] == "miss"
        jobs = payload["jobs"]
        assert payload["total_jobs"] == len(jobs) == 24
        scores = [j["score"] for j in jobs]
        assert scores == sorted(scores)
        # warm path: cache hit, and If-None-Match collapses to a 304
        status, _, again = api.handle_full("/jobs/efficiency", {})
        assert again["X-Cache"] == "hit" and again["ETag"] == headers["ETag"]
        status, body, _ = api.handle_full(
            "/jobs/efficiency", {"If-None-Match": headers["ETag"]}
        )
        assert status == 304 and body == {}

    def test_pagination(self, api):
        _, full, _ = api.handle_full("/jobs/efficiency", {})
        status, page, _ = api.handle_full(
            "/jobs/efficiency?offset=1&limit=2", {}
        )
        assert status == 200
        assert page["jobs"] == full["jobs"][1:3]
        assert page["total_jobs"] == full["total_jobs"]
        assert page["offset"] == 1 and page["limit"] == 2

    def test_member_filter_param(self, api):
        status, payload, _ = api.handle_full("/jobs/efficiency?member=b", {})
        assert status == 200
        assert payload["jobs"] and all(
            j["member"] == "b" for j in payload["jobs"]
        )

    def test_bad_params_are_400(self, api):
        assert api.handle_full("/jobs/efficiency?limit=abc", {})[0] == 400
        assert api.handle_full("/jobs/efficiency?offset=-1", {})[0] == 400
        assert api.handle_full("/jobs/efficiency?start=soon", {})[0] == 400

    def test_404_without_supremm_realm(self):
        api = XdmodApi({}, {}, obs=fake_obs("api"))
        status, payload, _ = api.handle_full("/jobs/efficiency", {})
        assert status == 404
        assert "supremm" in payload["error"]

    def test_data_version_bump_invalidates_cache(
        self, api, two_member_sources
    ):
        api.handle_full("/jobs/efficiency", {})
        _, _, headers = api.handle_full("/jobs/efficiency", {})
        assert headers["X-Cache"] == "hit"
        # a replication sync landing new analytics rows bumps the source
        # data_version; the next read must recompute, not serve stale
        fact = two_member_sources["a"].table(ANALYTICS_TABLE)
        row = dict(next(iter(fact.rows())))
        row["efficiency_score"] = 0.0
        fact.upsert(row)
        _, payload, headers = api.handle_full("/jobs/efficiency", {})
        assert headers["X-Cache"] == "stale"
        assert payload["jobs"][0]["score"] == 0.0


class TestSupremmRealmInterface:
    """The SUPReMM realm answers the realm interface the REST layer calls
    (``/realms``, ``/query``) and checks its arguments like every realm."""

    @pytest.fixture()
    def api(self, two_member_sources):
        return XdmodApi(
            {"supremm": supremm_realm()}, two_member_sources,
            obs=fake_obs("api"),
        )

    def get(self, api, path):
        status, _, body, _ = api.handle_http(path, {})
        return status, json.loads(body)

    def test_realms_lists_its_dimensions(self, api):
        status, payload = self.get(api, "/realms")
        assert status == 200
        assert payload["supremm"]["dimensions"] == ["application", "person", "resource"]
        assert len(payload["supremm"]["metrics"]) == 9

    def test_query_is_served(self, api, two_member_sources):
        status, payload = self.get(
            api,
            f"/query?realm=supremm&metric=avg_cpu_user&start={T0}&end={T_MAR}"
            "&group_by=application",
        )
        assert status == 200
        want = supremm_realm().query(
            two_member_sources, "avg_cpu_user", start=T0, end=T_MAR,
            group_by="application",
        )
        assert want.rows
        assert [(r["group"], r["period_start"], r["value"]) for r in payload["rows"]] == [
            (r.group, r.period_start, r.value) for r in want.rows
        ]

    def test_what_it_cannot_serve_is_a_400(self, api):
        base = f"/query?realm=supremm&metric=avg_cpu_user&start={T0}&end={T_MAR}"
        for extra in ("&filter.resource=x", "&view=aggregate", "&group_by=queue"):
            status, payload = self.get(api, base + extra)
            assert status == 400, extra
            assert "error" in payload

    def test_bad_range_and_period_raise_realm_query_error(self, two_member_sources):
        realm = supremm_realm()
        with pytest.raises(RealmQueryError):
            realm.query(two_member_sources, "avg_cpu_user", start=T_MAR, end=T0)
        with pytest.raises(RealmQueryError):
            realm.query(
                two_member_sources, "avg_cpu_user", start=T0, end=T_MAR,
                period="fortnight",
            )


# -- detector (synthetic scores) ----------------------------------------------


def nominal_scores(n=30, app="namd", member="m0"):
    return [
        JobScore(
            member=member, resource="r", job_id=i, application=app, score=0.9
        )
        for i in range(n)
    ]


class TestAnomalyDetector:
    def test_flags_outlier_against_pooled_baseline(self):
        obs = fake_obs("hub")
        detector = AnomalyDetector(obs)
        bad = JobScore(
            member="m1", resource="r", job_id=99, application="namd",
            score=0.2, tags=("idle-tail",),
        )
        anomalies = detector.detect(nominal_scores() + [bad])
        assert [a.job for a in anomalies] == [bad]
        anomaly = anomalies[0]
        assert anomaly.kind == "idle-tail"
        assert anomaly.baseline == pytest.approx(0.9)
        assert anomaly.sigma == pytest.approx(0.05)  # floored
        assert anomaly.zscore == pytest.approx(14.0)

    def test_flag_counted_once_gauge_tracks_open(self):
        obs = fake_obs("hub")
        detector = AnomalyDetector(obs)
        bad = JobScore(
            member="m1", resource="r", job_id=99, application="namd",
            score=0.2, tags=("idle-tail",),
        )
        scores = nominal_scores() + [bad]
        assert len(detector.detect(scores)) == 1
        assert len(detector.detect(scores)) == 1  # still open on re-run
        parsed = parse_prometheus_text(obs.registry.render_prometheus())
        assert parsed.value(
            "analytics_anomalies_total", member="m1", kind="idle-tail"
        ) == 1
        assert parsed.value("analytics_anomalies_open_rows") == 1
        # recovery: the job gone, the gauge returns to zero
        assert detector.detect(nominal_scores()) == []
        parsed = parse_prometheus_text(obs.registry.render_prometheus())
        assert parsed.value("analytics_anomalies_open_rows") == 0

    def test_min_samples_guard_skips_short_jobs(self):
        obs = fake_obs("hub")
        detector = AnomalyDetector(obs)
        short = JobScore(
            member="m0", resource="r", job_id=99, application="namd",
            score=0.2, n_samples=3,
        )
        # a 3-sample job's mean is a warm-up artifact, not evidence
        assert detector.detect(nominal_scores() + [short]) == []
        long = JobScore(
            member="m0", resource="r", job_id=98, application="namd",
            score=0.2, n_samples=30,
        )
        flagged = detector.detect([long])
        assert [a.job for a in flagged] == [long]

    def test_min_baseline_guard(self):
        obs = fake_obs("hub")
        detector = AnomalyDetector(obs)
        # only 3 samples for this application: no baseline, no verdict
        thin = nominal_scores(n=2, app="rare") + [
            JobScore(
                member="m0", resource="r", job_id=99, application="rare",
                score=0.1,
            )
        ]
        assert detector.detect(thin) == []

    def test_kind_classification_fallback(self):
        assert classify_kind(("memory-bound", "low-cpu")) == "memory-bound"
        assert classify_kind(("weird",)) == "low-efficiency"
        assert classify_kind(()) == "low-efficiency"


# -- acceptance: the federated analytics loop ---------------------------------


@pytest.fixture(scope="module")
def injected_demo():
    return _demo_analytics_federation(inject_pathological=True)


class TestFederationAcceptance:
    def test_injected_jobs_rank_worst_and_are_exactly_flagged(
        self, injected_demo
    ):
        hub, satellites, plane, monitor, pathological = injected_demo
        assert len(satellites) == 2 and len(pathological) == 2
        assert plane.refreshes >= 1
        # the two injected pathologies are the federation's two worst jobs
        worst = {(j.member, j.job_id) for j in plane.worst_jobs(2)}
        assert worst == set(pathological)
        # and exactly those are flagged -- no false positives across the
        # ~90 nominal federated jobs
        flagged = {(a.job.member, a.job.job_id) for a in plane.anomalies}
        assert flagged == set(pathological)
        kinds = {a.kind for a in plane.anomalies}
        assert kinds == {"idle-tail", "memory-bound"}

    def test_efficiency_endpoint_over_the_hub(self, injected_demo):
        hub, _, plane, monitor, pathological = injected_demo
        api = XdmodApi(
            {"supremm": supremm_realm()}, hub.federated_schemas(),
            obs=hub.obs, monitor=monitor,
        )
        status, payload, _ = api.handle_full("/jobs/efficiency?limit=2", {})
        assert status == 200
        assert {
            (j["member"], j["job_id"]) for j in payload["jobs"]
        } == set(pathological)
        assert payload["total_jobs"] == len(plane.last_scores)

    def test_anomaly_slo_rule_fires_through_engine(self, injected_demo):
        _, _, _, monitor, pathological = injected_demo
        monitor.evaluate_alerts()
        firing = {
            (s.rule.id, s.member) for s in monitor.alerts.firing()
        }
        assert ("analytics_anomaly_rate_high", "site0") in firing

    def test_health_reports_open_anomalies(self, injected_demo):
        hub, _, plane, monitor, _ = injected_demo
        api = XdmodApi(
            {"supremm": supremm_realm()}, hub.federated_schemas(),
            obs=hub.obs, monitor=monitor,
        )
        status, payload = api.handle("/health", {})
        assert status == 200
        assert payload["anomalies_open"] == plane.anomalies_open == 2

    def test_monitor_render_shows_analytics(self, injected_demo):
        _, _, _, monitor, _ = injected_demo
        panel = monitor.render()
        assert "efficiency scores (n=" in panel
        assert "least efficient jobs:" in panel
        assert "anomalies open: 2" in panel

    def test_clean_federation_flags_nothing(self):
        _, _, plane, monitor, pathological = _demo_analytics_federation()
        assert pathological == []
        assert plane.anomalies == ()
        assert plane.last_scores  # scored plenty, flagged none
        assert not any(
            s.rule.id == "analytics_anomaly_rate_high"
            for s in monitor.alerts.firing()
        )

    def test_render_is_deterministic_under_fake_clock(self):
        first = _demo_analytics_federation(inject_pathological=True)
        second = _demo_analytics_federation(inject_pathological=True)
        assert first[3].render() == second[3].render()
        assert [a.to_dict() for a in first[2].anomalies] == [
            a.to_dict() for a in second[2].anomalies
        ]


# -- CLI ----------------------------------------------------------------------


class TestAnalyticsCli:
    def test_summarize_exits_zero_and_ranks(self, capsys):
        assert main(["analytics", "summarize", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "jobs summarized" in out

    def test_anomalies_exit_one_when_flagged(self, capsys):
        assert main(["analytics", "anomalies", "--inject-pathological"]) == 1
        captured = capsys.readouterr()
        assert "anomalous job(s):" in captured.err
        assert "efficiency scores" in captured.out

    def test_bad_top_is_operator_error(self, capsys):
        assert main(["analytics", "summarize", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err
