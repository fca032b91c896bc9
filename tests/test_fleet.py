"""Federated telemetry plane: member scrapes, fleet TSDB, dashboards, REST.

Covers the fleet telemetry plane end to end — member registries scraped
into the hub's fleet history (``FederationHub.fleet``, a plain
:class:`MetricsHistory`) on every healthy sync turn — plus the tracer
ring buffer, the ``leave()`` telemetry purge, departed members' alert
states, and scrape fidelity (histogram buckets, non-finite values,
counter resets, a scraped ``member`` label kept as ``exported_member``).
"""

from __future__ import annotations

import pytest

from repro.cli import _demo_federation, _demo_fleet_federation
from repro.core import FederationHub, XdmodInstance
from repro.core.faults import FaultPlan, inject_apply_faults
from repro.core.resilience import CircuitBreaker
from repro.etl import ingest_jobs
from repro.obs import (
    FakeClock,
    MetricsHistory,
    MetricsRegistry,
    Observability,
    Tracer,
    alert_rule,
    parse_prometheus_text,
)
from repro.obs.history import SEQ_SERIES
from repro.realms import jobs_realm
from repro.ui import XdmodApi
from tests.rest_client import get_json
from tests.test_loose_federation import make_job


def _registry(**counters: float) -> MetricsRegistry:
    """A registry with one labelled counter child per keyword."""
    registry = MetricsRegistry()
    family = registry.counter(
        "etl_ingest_records_total", "Records ingested", ("source",)
    )
    for source, value in counters.items():
        family.labels(source=source).inc(value)
    return registry


def _fleet(clock: FakeClock | None = None, *, enabled: bool = True) -> MetricsHistory:
    """A fleet history as the hub builds one: no registry of its own."""
    return MetricsHistory(
        MetricsRegistry(enabled=False),
        clock if clock is not None else FakeClock(),
        enabled=enabled,
    )


def _members(fleet: MetricsHistory) -> list[str]:
    return fleet.label_values(SEQ_SERIES, "member")


def _member_keys(fleet: MetricsHistory, member: str) -> list:
    return [k for k in fleet.series_keys() if ("member", member) in k[1]]


def _stored(fleet: MetricsHistory, member: str) -> dict:
    """The member's newest stored samples, keyed as the registry walk
    keys them (the ``member`` label dropped), the seq series left out."""
    out = {}
    for key in _member_keys(fleet, member):
        name, labels = key
        if name == SEQ_SERIES:
            continue
        rest = tuple(item for item in labels if item[0] != "member")
        out[(name, rest)] = fleet.last_sample(key)[1]
    return out


class TestShipment:
    """What one scrape carries into the fleet."""

    def test_carries_full_exposition_including_buckets(self):
        registry = _registry(sacct=42)
        hist = registry.histogram(
            "etl_phase_seconds", "Phase latency", ("phase",)
        )
        hist.labels(phase="shred").observe(0.25)
        fleet = _fleet()
        parsed = parse_prometheus_text(registry.render_prometheus())
        # every exposition sample plus the scrape-number sample
        assert fleet.scrape("site0", registry) == len(parsed.samples) + 1

        stored = _stored(fleet, "site0")
        assert stored == parsed.samples
        assert ("etl_phase_seconds_bucket",
                (("le", "+Inf"), ("phase", "shred"))) in stored
        assert fleet.last(SEQ_SERIES, member="site0") == 1
        text = fleet.render_prometheus()
        assert "# TYPE etl_phase_seconds histogram" in text
        assert "# TYPE etl_ingest_records_total counter" in text
        assert f"# TYPE {SEQ_SERIES} gauge" in text

    def test_walk_matches_text_round_trip(self):
        """The direct exposition walk is pinned to parse(render())."""
        registry = _registry(sacct=7, pbs=3)
        hist = registry.histogram("etl_phase_seconds", "Phase", ("phase",))
        hist.labels(phase="ingest").observe(1.5)
        hist.labels(phase="ingest").observe(120.0)
        parsed = parse_prometheus_text(registry.render_prometheus())
        walked = {
            (name, labels): value
            for name, labels, value in registry.iter_exposition_samples()
        }
        assert walked == parsed.samples
        assert {f.name: f.type_name for f in registry._sorted_families()} == parsed.types

    def test_nonfinite_values_survive_the_scrape(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("probe_value_ratio", "Probe", ("kind",))
        gauge.labels(kind="inf").set(float("inf"))
        gauge.labels(kind="ninf").set(float("-inf"))
        gauge.labels(kind="nan").set(float("nan"))
        fleet = _fleet()
        fleet.scrape("m", registry)
        assert fleet.last(
            "probe_value_ratio", kind="inf", member="m"
        ) == float("inf")
        assert fleet.last(
            "probe_value_ratio", kind="ninf", member="m"
        ) == float("-inf")
        nan = fleet.last("probe_value_ratio", kind="nan", member="m")
        assert nan != nan  # NaN
        # and the merged exposition spells them the Prometheus way
        text = fleet.render_prometheus()
        assert 'probe_value_ratio{kind="inf",member="m"} +Inf' in text
        assert 'probe_value_ratio{kind="ninf",member="m"} -Inf' in text
        assert 'probe_value_ratio{kind="nan",member="m"} NaN' in text


class TestFleetTSDB:
    """The hub's fleet TSDB is a plain :class:`MetricsHistory`: members,
    scrape numbers, staleness and purges are ordinary history queries."""

    def test_merges_under_member_label(self):
        fleet = _fleet()
        fleet.scrape("site0", _registry(sacct=10))
        fleet.scrape("site1", _registry(sacct=99))
        assert _members(fleet) == ["site0", "site1"]
        assert fleet.last(
            "etl_ingest_records_total", member="site0", source="sacct") == 10
        assert fleet.last(
            "etl_ingest_records_total", member="site1", source="sacct") == 99

    def test_scraped_member_label_is_kept_as_exported_member(self):
        """A scraped sample whose member label names another member keeps
        it as ``exported_member`` (Prometheus' ``honor_labels: false``), so
        a nested fleet's children stay apart under the scraped member; one
        naming the scraped member itself needs no second label."""
        registry = MetricsRegistry()
        gauge = registry.gauge("fleet_series_rows", "Nested fleet", ("member",))
        gauge.labels(member="inner").set(5)
        gauge.labels(member="other").set(7)
        gauge.labels(member="outer").set(1)
        fleet = _fleet()
        fleet.scrape("outer", registry)
        assert fleet.last("fleet_series_rows", member="outer") == 13
        assert fleet.last("fleet_series_rows", member="inner") is None
        assert fleet.last(
            "fleet_series_rows", member="outer", exported_member="inner"
        ) == 5
        assert fleet.series_keys("fleet_series_rows") == [
            ("fleet_series_rows", (("exported_member", "inner"), ("member", "outer"))),
            ("fleet_series_rows", (("exported_member", "other"), ("member", "outer"))),
            ("fleet_series_rows", (("member", "outer"),)),
        ]

    def test_counter_reset_across_snapshots(self):
        """A member restart (counter back to a lower value) is treated as
        a reset by the history's increase(), not negative growth."""
        clock = FakeClock()
        fleet = _fleet(clock)
        registry = _registry(sacct=100)
        fleet.scrape("m", registry)
        registry.counter(
            "etl_ingest_records_total", "Records ingested", ("source",)
        ).labels(source="sacct").inc(20)
        fleet.scrape("m", registry)                 # 120: grew by 20
        fleet.scrape("m", _registry(sacct=10))      # restarted, then 10
        at = clock.now()
        assert fleet.increase(
            "etl_ingest_records_total", 1000.0, at=at, member="m"
        ) == pytest.approx(30.0)

    def test_disabled_fleet_ignores_shipments(self):
        fleet = _fleet(enabled=False)
        assert fleet.scrape("m", _registry(sacct=1)) == 0
        assert _members(fleet) == []
        assert fleet.last(SEQ_SERIES, member="m") is None
        assert fleet.render_prometheus() == ""

    def test_staleness_tracks_fresh_shipments_only(self):
        """Staleness is ``age_s`` of the member's scrape-number series:
        the age of its last scrape, the signal the stale rule judges."""
        clock = FakeClock()
        fleet = _fleet(clock)
        registry = _registry(sacct=1)
        rule = alert_rule("fleet_telemetry_stale")
        assert fleet.age_s(SEQ_SERIES, member="m") is None
        assert fleet.last(SEQ_SERIES, member="m") is None
        fleet.scrape("m", registry)
        t0 = clock.now()
        clock.advance(500.0)
        assert fleet.age_s(SEQ_SERIES, member="m") == pytest.approx(
            clock.now() - t0
        )
        assert rule.value_for(fleet, "m") == pytest.approx(500.0)
        assert not rule.breaches(rule.value_for(fleet, "m"))
        clock.advance(rule.max_age_s)
        assert rule.breaches(rule.value_for(fleet, "m"))
        # the next scrape refreshes it and counts on
        fleet.scrape("m", registry)
        assert fleet.last(SEQ_SERIES, member="m") == 2
        assert fleet.age_s(SEQ_SERIES, member="m") == pytest.approx(0.0)
        assert fleet.age_s(SEQ_SERIES, member="unknown") is None
        # age_s is the age of the newest seq sample: its value changes
        # on every scrape
        clock.advance(42.0)
        newest = fleet.last_sample((SEQ_SERIES, (("member", "m"),)))
        assert fleet.age_s(SEQ_SERIES, member="m") == pytest.approx(
            clock.now() - newest[0]
        )
        assert [v for _, v in fleet.samples(SEQ_SERIES, member="m")] == [
            1.0, 2.0
        ]

    def test_series_count_and_purge(self):
        fleet = _fleet()
        assert fleet.scrape("a", _registry(sacct=1, pbs=2)) == 3  # + seq
        assert fleet.scrape("b", _registry(sacct=1)) == 2
        assert len(_member_keys(fleet, "a")) == 3
        assert len(fleet.series_keys()) == 5
        assert fleet.purge_labels(member="a") == 3
        assert _members(fleet) == ["b"]
        assert _member_keys(fleet, "a") == []
        assert fleet.last(
            "etl_ingest_records_total", member="a") is None
        # a member that joins again starts counting from its first scrape
        fleet.scrape("a", _registry(sacct=1))
        assert fleet.last(SEQ_SERIES, member="a") == 1

    def test_repeat_scrapes_and_purge_keep_series_exact(self):
        """Across repeat scrapes the stored series and values are what a
        fresh TSDB stores from the same registry, new children are picked
        up, and a purge (what ``FederationHub.leave`` calls) forgets the
        member's series and leaves the others alone."""
        registry = _registry(sacct=1, pbs=2)
        records = registry.counter(
            "etl_ingest_records_total", "Records ingested", ("source",))
        phases = registry.histogram("etl_phase_seconds", "Phase", ("phase",))
        phases.labels(phase="shred").observe(0.5)

        def walk(reg: MetricsRegistry) -> dict:
            return {(n, labels): v for n, labels, v in reg.iter_exposition_samples()}

        def fresh_keys(reg: MetricsRegistry, member: str) -> list:
            fresh = _fleet()
            fresh.scrape(member, reg)
            return fresh.series_keys()

        fleet = _fleet()
        fleet.scrape("a", registry)
        fleet.scrape("b", registry)
        records.labels(source="sacct").inc(5)
        phases.labels(phase="load").observe(2.0)  # a new child between scrapes
        assert fleet.scrape("a", registry) == len(walk(registry)) + 1
        assert _stored(fleet, "a") == walk(registry)
        assert _member_keys(fleet, "a") == fresh_keys(registry, "a")
        assert len(_member_keys(fleet, "a")) == len(walk(registry)) + 1
        assert [v for _, v in fleet.samples(
            "etl_ingest_records_total", member="a", source="sacct")] == [1.0, 6.0]
        before_b = _stored(fleet, "b")

        fleet.purge_labels(member="a")
        assert fleet.scrape("a", _registry(sacct=7)) == 2
        assert _stored(fleet, "a") == walk(_registry(sacct=7))
        assert len(_member_keys(fleet, "a")) == 2
        assert _stored(fleet, "b") == before_b

    def test_render_prometheus_merged_and_deterministic(self):
        def build() -> MetricsHistory:
            fleet = _fleet()
            for i in range(2):
                registry = _registry(sacct=10 * (i + 1))
                hist = registry.histogram(
                    "etl_phase_seconds", "Phase", ("phase",))
                hist.labels(phase="shred").observe(0.5)
                fleet.scrape(f"site{i}", registry)
            return fleet

        text = build().render_prometheus()
        assert text == build().render_prometheus()
        assert '# TYPE etl_phase_seconds histogram' in text
        assert 'member="site0"' in text and 'member="site1"' in text
        parsed = parse_prometheus_text(text)
        assert parsed.value(
            "etl_ingest_records_total", member="site1", source="sacct") == 20
        assert parsed.value(
            "etl_phase_seconds_bucket", member="site0",
            phase="shred", le="+Inf") == 1


class TestHistorySupport:
    def test_purge_labels_superset_match(self):
        history = MetricsHistory(
            MetricsRegistry(enabled=False), FakeClock()
        )
        history.observe("x_rows", 1.0, member="a", source="s")
        history.observe("x_rows", 2.0, member="b", source="s")
        history.observe("y_rows", 3.0, member="a")
        assert history.purge_labels(member="a") == 2
        assert history.last("x_rows", member="a") is None
        assert history.last("x_rows", member="b") == 2.0
        with pytest.raises(ValueError):
            history.purge_labels()

    def test_observe_key_matches_observe(self):
        history = MetricsHistory(
            MetricsRegistry(enabled=False), FakeClock()
        )
        history.observe("x_rows", 1.0, now=5.0, b="2", a="1")
        history.observe_key(("x_rows", (("a", "1"), ("b", "2"))), 4.0, now=5.0)
        # same key, same timestamp: one series, both observations kept
        assert history.samples("x_rows", a="1", b="2") == [(5.0, 1.0), (5.0, 4.0)]
        assert history.last_sample(
            ("x_rows", (("a", "1"), ("b", "2")))) == (5.0, 4.0)


class TestTracerRingBuffer:
    def test_overflow_evicts_oldest_keeps_newest(self):
        tracer = Tracer(max_spans=2, name="t")
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        names = [record.name for record in tracer.finished]
        assert names == ["s3", "s4"]
        assert tracer.spans_dropped == 3

    def test_drops_counted_in_registry(self):
        obs = Observability(clock=FakeClock(), name="t")
        obs.tracer.max_spans = 1
        for i in range(4):
            with obs.tracer.span(f"s{i}"):
                pass
        assert obs.registry.render_prometheus().count(
            "obs_spans_dropped_total 3") == 1


@pytest.fixture(scope="module")
def healthy_fleet():
    return _demo_fleet_federation()


@pytest.fixture(scope="module")
def stale_fleet():
    return _demo_fleet_federation(inject_faults=True)


class TestFederationAcceptance:
    def test_local_only_metrics_visible_at_hub(self, healthy_fleet):
        hub, satellites, _ = healthy_fleet
        # the satellite's ETL counters exist only in its local registry …
        local = satellites[0].obs.registry.render_prometheus()
        assert "etl_ingest_records_total" in local
        assert "etl_ingest_records_total" not in (
            hub.obs.registry.render_prometheus()
        )
        # … yet the hub can query them, under the member label
        for instance in satellites:
            shipped = hub.fleet.last(
                "etl_ingest_records_total", member=instance.name
            )
            exposed = parse_prometheus_text(
                instance.obs.registry.render_prometheus()
            )
            local_total = sum(
                value for (name, _), value in exposed.samples.items()
                if name == "etl_ingest_records_total"
            )
            assert shipped is not None and shipped == local_total > 0
        assert _members(hub.fleet) == [s.name for s in satellites]

    def test_fleet_dashboard_deterministic(self, healthy_fleet):
        _, _, monitor = healthy_fleet
        board = monitor.render_fleet()
        assert board == monitor.render_fleet()
        again = _demo_fleet_federation()
        assert again[2].render_fleet() == board
        assert "site0" in board and "STALE" not in board

    def test_staleness_alert_fires_when_shipments_stop(self, stale_fleet):
        _, _, monitor = stale_fleet
        firing = {s.rule.id: s for s in monitor.alerts.firing()}
        assert "fleet_telemetry_stale" in firing
        assert firing["fleet_telemetry_stale"].member == "site2"
        assert monitor.stale_members() == ["site2"]
        board = monitor.render_fleet()
        assert "STALE" in board and "stale members: site2" in board

    def test_leave_purges_departed_member_everywhere(self, stale_fleet):
        hub, _, _ = _demo_fleet_federation()
        hub.leave("site1")
        # registry: no phantom member in later scrapes
        assert 'member="site1"' not in hub.obs.registry.render_prometheus()
        # history: partial-label queries no longer pool the member
        assert hub.obs.history.last(
            "replication_lag_rows", member="site1") is None
        assert hub.obs.history.quantile_over_time(
            0.5, "replication_lag_rows", 10_000.0, member="site1") is None
        # fleet TSDB: state and series gone
        assert "site1" not in _members(hub.fleet)
        assert _member_keys(hub.fleet, "site1") == []
        assert hub.fleet.last(
            "etl_ingest_records_total", member="site1") is None
        # the survivors still work
        assert hub.fleet.last(
            "etl_ingest_records_total", member="site0") is not None


class TestDepartedMemberAlerts:
    """A member that leaves takes its alert states with it, in every
    scope: otherwise its last firing state pins ``/health`` degraded."""

    def test_fleet_scope_alert_clears_after_leave(self):
        hub, _, monitor = _demo_fleet_federation(inject_faults=True)
        assert monitor.alerts.state_of(
            "fleet_telemetry_stale", "site2").status == "firing"
        hub.leave("site2")
        for _ in range(3):
            hub.sync()
            monitor.evaluate_alerts()
        assert monitor.alerts.state_of("fleet_telemetry_stale", "site2") is None
        assert all(s.member != "site2" for s in monitor.alerts.states())
        api = XdmodApi({"jobs": jobs_realm()}, hub.schema, monitor=monitor)
        status, payload, _ = get_json(api, "/health")
        assert status == 200
        assert payload["alerts_firing"] == []
        assert payload["degraded_members"] == []
        assert payload["fleet_stale_members"] == []
        assert payload["status"] == "ok"

    def test_member_scope_alert_clears_after_leave(self):
        hub, _, monitor = _demo_federation(inject_faults=True)
        assert monitor.alerts.state_of(
            "sync_failure_burn_rate", "site0").status == "firing"
        hub.leave("site0")
        monitor.evaluate_alerts()
        assert monitor.alerts.state_of("sync_failure_burn_rate", "site0") is None
        assert monitor.alerts.firing() == []
        # the survivor is still evaluated
        assert monitor.alerts.state_of(
            "sync_failure_burn_rate", "site1") is not None


class TestScrapeRidesSync:
    def test_healthy_turns_scrape_once_and_failed_or_open_turns_never(self):
        def obs(name):
            return Observability(clock=FakeClock(), name=name)

        hub = FederationHub("hub", obs=obs("hub"))
        satellites = {}
        for name in ("a", "b"):
            satellites[name] = XdmodInstance(name, obs=obs(name))
            ingest_jobs(satellites[name].schema, [make_job(i) for i in range(3)])
        hub.join(satellites["a"])
        hub.join(
            satellites["b"],
            breaker=CircuitBreaker(failure_threshold=1, cooldown=5),
        )

        def scrapes():
            return {
                name: len(hub.fleet.samples(SEQ_SERIES, member=name))
                for name in satellites
            }

        assert scrapes() == {"a": 0, "b": 0}
        statuses = []
        for turn in range(3):
            if turn == 1:
                # a backlog the hub can never apply: b's turn fails, and
                # its breaker opens for the turn after
                ingest_jobs(satellites["b"].schema, [make_job(10)])
                inject_apply_faults(
                    hub.member("b").channel,
                    FaultPlan(transient_rate=1.0, transient_burst=10**9),
                )
            before = scrapes()
            out = hub.sync()
            statuses.append(out["b"].status)
            assert out["a"].status == "applied"
            after = scrapes()
            assert after["a"] == before["a"] + 1
            assert after["b"] == before["b"] + (out["b"].status == "applied")
        assert statuses == ["applied", "failed", "circuit_open"]
        assert hub.fleet.last(SEQ_SERIES, member="a") == 3
        assert hub.fleet.last(SEQ_SERIES, member="b") == 1

    def test_series_gauge_is_latest_scrape_and_absent_before_first(self):
        """``fleet_series_rows{member}`` is the series count of the
        member's latest scrape; a member never scraped has no child,
        like ``fleet_staleness_seconds``."""
        def obs(name):
            return Observability(clock=FakeClock(), name=name)

        hub = FederationHub("hub", obs=obs("hub"))
        satellites = {}
        for name in ("a", "b"):
            satellites[name] = XdmodInstance(name, obs=obs(name))
            ingest_jobs(satellites[name].schema, [make_job(i) for i in range(3)])
        hub.join(satellites["a"])
        hub.join(satellites["b"], initial_sync=False)
        inject_apply_faults(
            hub.member("b").channel,
            FaultPlan(transient_rate=1.0, transient_burst=10**9),
        )
        hub.sync()
        parsed = parse_prometheus_text(hub.obs.registry.render_prometheus())
        scraped = sum(
            1 for _ in satellites["a"].obs.registry.iter_exposition_samples()
        )
        assert parsed.value("fleet_series_rows", member="a") == scraped + 1
        assert parsed.value("fleet_staleness_seconds", member="a") is not None
        for metric in ("fleet_series_rows", "fleet_staleness_seconds"):
            assert parsed.value(metric, member="b") is None


    def test_staleness_gauges_look_up_one_series_per_member(self, monkeypatch):
        """The gauge pass reads each member's scrape-number series by the
        exact key ``scrape`` writes: no partial-label scan, so its cost
        is linear in members, and its values are ``age_s``'s."""
        clock = FakeClock()
        hub = FederationHub("hub", obs=Observability(clock=clock, name="hub"))
        names = [f"s{i}" for i in range(4)]
        for name in names:
            satellite = XdmodInstance(name, obs=Observability(clock=clock, name=name))
            ingest_jobs(satellite.schema, [make_job(1)])
            hub.join(satellite)
        for name in names:  # one scrape each, a tick apart: distinct ages
            clock.advance(1.0)
            hub.fleet.scrape(name, hub.member(name).instance.obs.registry)
        clock.advance(5.0)
        scans = []
        matches = MetricsHistory._matches

        def counting(self, *args, **kwargs):
            scans.append(args)
            return matches(self, *args, **kwargs)

        monkeypatch.setattr(MetricsHistory, "_matches", counting)
        hub._record_member_gauges()
        assert scans == []
        monkeypatch.undo()
        parsed = parse_prometheus_text(hub.obs.registry.render_prometheus())
        ages = {
            name: parsed.value("fleet_staleness_seconds", member=name)
            for name in names
        }
        assert ages == {
            name: hub.fleet.age_s(SEQ_SERIES, member=name) for name in names
        }
        assert ages == {"s0": 8.0, "s1": 7.0, "s2": 6.0, "s3": 5.0}

    def test_member_hub_keeps_its_own_members_apart(self):
        """A member that is itself a hub (Fig. 2) exposes one
        ``replication_lag_rows`` child per member of its own; the upper
        hub's fleet keeps them as two series, not one series that gets
        two samples at one clock reading."""
        clock = FakeClock()

        def obs(name):
            return Observability(clock=clock, name=name)

        mid = FederationHub("mid", obs=obs("mid"))
        satellites = {}
        for name in ("site0", "site1"):
            satellites[name] = XdmodInstance(name, obs=obs(name))
            ingest_jobs(satellites[name].schema, [make_job(i) for i in range(3)])
            mid.join(satellites[name])
        ingest_jobs(satellites["site1"].schema, [make_job(i) for i in range(10, 14)])
        inject_apply_faults(
            mid.member("site1").channel,
            FaultPlan(transient_rate=1.0, transient_burst=10**9),
        )
        clock.advance(1.0)
        mid.sync()
        lags = {name: mid.lag()[name] for name in ("site0", "site1")}
        assert lags["site0"] == 0 and lags["site1"] > 0
        top = FederationHub("top", obs=obs("top"))
        top.join(mid)
        clock.advance(1.0)
        top.sync()
        fleet = top.fleet
        keys = fleet.series_keys("replication_lag_rows")
        assert keys == [
            ("replication_lag_rows", (("exported_member", name), ("member", "mid")))
            for name in ("site0", "site1")
        ]
        for name, lag in lags.items():
            assert fleet.samples(
                "replication_lag_rows", member="mid", exported_member=name
            ) == [(clock.now(), lag)]
        assert fleet.last("replication_lag_rows", member="mid") == sum(lags.values())
        parsed = parse_prometheus_text(fleet.render_prometheus())
        for name, lag in lags.items():
            assert parsed.value(
                "replication_lag_rows", member="mid", exported_member=name
            ) == lag


class TestRestSurface:
    def test_fleet_metrics_endpoint(self, healthy_fleet):
        hub, _, monitor = healthy_fleet
        api = XdmodApi({"jobs": jobs_realm()}, hub.schema, monitor=monitor)
        status, content_type, body, _ = api.handle_http("/fleet/metrics", {})
        assert status == 200 and "text/plain" in content_type
        parsed = parse_prometheus_text(body.decode())
        assert parsed.value(SEQ_SERIES, member="site0") is not None

    def test_fleet_metrics_requires_hub(self):
        api = XdmodApi({}, {}, monitor=None)
        status, _, body, _ = api.handle_http("/fleet/metrics", {})
        assert status == 404 and b"no fleet TSDB" in body

    def test_health_reports_stale_members(self, stale_fleet):
        hub, _, monitor = stale_fleet
        api = XdmodApi({"jobs": jobs_realm()}, hub.schema, monitor=monitor)
        status, payload, _ = get_json(api, "/health")
        assert status == 200
        assert payload["fleet_stale_members"] == ["site2"]
        assert payload["status"] == "degraded"

    def test_health_empty_stale_list_when_fresh(self, healthy_fleet):
        hub, _, monitor = healthy_fleet
        api = XdmodApi({"jobs": jobs_realm()}, hub.schema, monitor=monitor)
        status, payload, _ = get_json(api, "/health")
        assert status == 200
        assert payload["fleet_stale_members"] == []
