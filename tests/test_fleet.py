"""Federated telemetry plane: shipments, fleet TSDB, dashboards, REST.

Covers the PR-10 tentpole end to end — satellite registry snapshots
riding the sync machinery into the hub's fleet TSDB — plus the
satellite fixes that shipped with it: the tracer ring buffer, the
``leave()`` telemetry purge, and shipment round-trip fidelity
(histogram buckets, non-finite values, counter resets).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import _demo_fleet_federation
from repro.obs import (
    FakeClock,
    FleetTSDB,
    MetricsHistory,
    MetricsRegistry,
    Observability,
    ShipmentError,
    TelemetryShipper,
    Tracer,
    alert_rule,
    build_shipment,
    parse_prometheus_text,
    shipment_checksum,
    shipment_size,
)
from repro.obs.fleet import SEQ_SERIES
from repro.realms import jobs_realm
from repro.ui import XdmodApi
from tests.rest_client import get_json


def _registry(**counters: float) -> MetricsRegistry:
    """A registry with one labelled counter child per keyword."""
    registry = MetricsRegistry()
    family = registry.counter(
        "etl_ingest_records_total", "Records ingested", ("source",)
    )
    for source, value in counters.items():
        family.labels(source=source).inc(value)
    return registry


class TestShipment:
    def test_carries_full_exposition_including_buckets(self):
        registry = _registry(sacct=42)
        hist = registry.histogram(
            "etl_phase_seconds", "Phase latency", ("phase",)
        )
        hist.labels(phase="shred").observe(0.25)
        doc = build_shipment(registry, member="site0", seq=1, scraped_at=5.0)

        parsed = parse_prometheus_text(registry.render_prometheus())
        shipped = {
            (name, tuple(tuple(item) for item in labels)): value
            for name, labels, value in doc["samples"]
        }
        want = {
            (name, labels): _fmt_value
            for (name, labels), _fmt_value in parsed.samples.items()
        }
        assert set(shipped) == set(want)
        assert ("etl_phase_seconds_bucket",
                (("le", "+Inf"), ("phase", "shred"))) in shipped
        assert doc["types"]["etl_phase_seconds"] == "histogram"
        assert doc["member"] == "site0" and doc["seq"] == 1

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
        assert registry.type_names() == parsed.types

    def test_checksum_detects_tamper(self):
        doc = build_shipment(_registry(sacct=1), member="m", seq=1, scraped_at=0.0)
        assert doc["checksum"] == shipment_checksum(doc)
        doc["samples"][0][2] = "999"
        assert doc["checksum"] != shipment_checksum(doc)

    def test_nonfinite_values_survive_strict_json(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("probe_value_ratio", "Probe", ("kind",))
        gauge.labels(kind="inf").set(float("inf"))
        gauge.labels(kind="ninf").set(float("-inf"))
        gauge.labels(kind="nan").set(float("nan"))
        doc = build_shipment(registry, member="m", seq=1, scraped_at=0.0)
        # strict JSON (allow_nan=False) round-trip must not lose them
        wire = json.dumps(doc, allow_nan=False)
        back = json.loads(wire)
        assert back == doc

        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        assert fleet.ingest(back) == "applied"
        assert fleet.history.last(
            "probe_value_ratio", kind="inf", member="m"
        ) == float("inf")
        assert fleet.history.last(
            "probe_value_ratio", kind="ninf", member="m"
        ) == float("-inf")
        nan = fleet.history.last("probe_value_ratio", kind="nan", member="m")
        assert nan != nan  # NaN

    def test_shipper_sequences_and_reships(self):
        shipper = TelemetryShipper(
            _registry(sacct=1), member="m", clock=FakeClock(auto_advance=1.0)
        )
        first = shipper.snapshot()
        assert first["seq"] == 1
        assert shipper.last_bytes == shipment_size(first)
        assert shipper.reship() is first  # redelivery: same doc, same seq
        assert shipper.snapshot()["seq"] == 2


class TestFleetTSDB:
    def test_merges_under_member_label(self):
        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        fleet.ingest(build_shipment(
            _registry(sacct=10), member="site0", seq=1, scraped_at=0.0))
        fleet.ingest(build_shipment(
            _registry(sacct=99), member="site1", seq=1, scraped_at=0.0))
        assert fleet.member_names() == ["site0", "site1"]
        assert fleet.history.last(
            "etl_ingest_records_total", member="site0", source="sacct") == 10
        assert fleet.history.last(
            "etl_ingest_records_total", member="site1", source="sacct") == 99

    def test_member_label_is_reserved(self):
        """A shipped sample carrying its own member label is re-labelled."""
        registry = MetricsRegistry()
        gauge = registry.gauge("fleet_series_rows", "Nested fleet", ("member",))
        gauge.labels(member="inner").set(5)
        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        fleet.ingest(build_shipment(registry, member="outer", seq=1, scraped_at=0.0))
        assert fleet.history.last("fleet_series_rows", member="outer") == 5
        assert fleet.history.last("fleet_series_rows", member="inner") is None

    def test_redelivery_collapses_in_place(self):
        clock = FakeClock(auto_advance=1.0)
        fleet = FleetTSDB(clock)
        shipper = TelemetryShipper(
            _registry(sacct=50), member="m", clock=FakeClock(auto_advance=1.0)
        )
        doc = shipper.snapshot()
        assert fleet.ingest(doc) == "applied"
        assert fleet.ingest(shipper.reship()) == "redelivered"
        assert fleet.ingest(shipper.reship()) == "redelivered"
        # the redelivered samples collapsed onto the original timestamp:
        # one stored sample, and increase() sees no extra growth
        assert len(fleet.history.samples(
            "etl_ingest_records_total", member="m")) == 1
        state = fleet.member_state("m")
        assert state.applied == 1 and state.redelivered == 2

    def test_redelivery_does_not_double_count_increase(self):
        clock = FakeClock(auto_advance=1.0)
        fleet = FleetTSDB(clock)
        registry = _registry(sacct=100)
        shipper = TelemetryShipper(
            registry, member="m", clock=FakeClock(auto_advance=1.0)
        )
        fleet.ingest(shipper.snapshot())            # seq 1: 100
        registry.counter(
            "etl_ingest_records_total", "Records ingested", ("source",)
        ).labels(source="sacct").inc(20)
        fleet.ingest(shipper.snapshot())            # seq 2: 120
        fleet.ingest(shipper.reship())              # seq 2 again (retry)
        at = clock.now()
        assert fleet.history.increase(
            "etl_ingest_records_total", 1000.0, at=at, member="m"
        ) == pytest.approx(20.0)

    def test_counter_reset_across_snapshots(self):
        """A satellite restart (counter back to a lower value) is treated
        as a reset by the history's increase(), not negative growth."""
        clock = FakeClock(auto_advance=1.0)
        fleet = FleetTSDB(clock)
        fleet.ingest(build_shipment(
            _registry(sacct=100), member="m", seq=1, scraped_at=0.0))
        fleet.ingest(build_shipment(
            _registry(sacct=10), member="m", seq=2, scraped_at=1.0))
        at = clock.now()
        assert fleet.history.increase(
            "etl_ingest_records_total", 1000.0, at=at, member="m"
        ) == pytest.approx(10.0)

    def test_out_of_order_duplicate_dropped(self):
        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        old = build_shipment(_registry(sacct=1), member="m", seq=1, scraped_at=0.0)
        new = build_shipment(_registry(sacct=9), member="m", seq=5, scraped_at=4.0)
        fleet.ingest(new)
        assert fleet.ingest(old) == "duplicate"
        assert fleet.history.last(
            "etl_ingest_records_total", member="m", source="sacct") == 9
        assert fleet.member_state("m").duplicates == 1

    def test_corrupt_and_malformed_shipments_rejected(self):
        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        doc = build_shipment(_registry(sacct=1), member="m", seq=1, scraped_at=0.0)
        tampered = dict(doc)
        tampered["seq"] = 99
        with pytest.raises(ShipmentError, match="checksum"):
            fleet.ingest(tampered)
        with pytest.raises(ShipmentError, match="missing"):
            fleet.ingest({"member": "m"})
        future = dict(doc)
        future["version"] = 99
        with pytest.raises(ShipmentError, match="version"):
            fleet.ingest(future)
        # nothing was stored by any rejected document
        assert fleet.member_names() == []

    def test_disabled_fleet_ignores_shipments(self):
        fleet = FleetTSDB(FakeClock(auto_advance=1.0), enabled=False)
        doc = build_shipment(_registry(sacct=1), member="m", seq=1, scraped_at=0.0)
        assert fleet.ingest(doc) == "disabled"
        assert fleet.member_names() == []

    def test_staleness_tracks_fresh_shipments_only(self):
        clock = FakeClock()
        fleet = FleetTSDB(clock)
        shipper = TelemetryShipper(
            _registry(sacct=1), member="m", clock=FakeClock(auto_advance=1.0)
        )
        fleet.ingest(shipper.snapshot())
        t0 = clock.now()
        clock.advance(500.0)
        assert fleet.staleness("m") == pytest.approx(clock.now() - t0)
        # a redelivery must NOT refresh staleness
        fleet.ingest(shipper.reship())
        assert fleet.staleness("m") == pytest.approx(clock.now() - t0)
        assert fleet.stale_members(100.0) == ["m"]
        assert fleet.stale_members(10_000.0) == []
        # a fresh shipment does
        fleet.ingest(shipper.snapshot())
        assert fleet.staleness("m") == pytest.approx(0.0)
        assert fleet.staleness("unknown") is None
        # the synthetic sequence series agrees with the bookkeeping
        assert fleet.history.age_s(SEQ_SERIES, member="m") == pytest.approx(
            fleet.staleness("m")
        )

    def test_series_count_and_purge(self):
        fleet = FleetTSDB(FakeClock(auto_advance=1.0))
        fleet.ingest(build_shipment(
            _registry(sacct=1, pbs=2), member="a", seq=1, scraped_at=0.0))
        fleet.ingest(build_shipment(
            _registry(sacct=1), member="b", seq=1, scraped_at=0.0))
        assert fleet.series_count("a") == 3  # two counters + seq series
        assert fleet.series_count("b") == 2
        assert fleet.series_count() == 5
        assert fleet.purge_member("a") == 3
        assert fleet.member_names() == ["b"]
        assert fleet.series_count("a") == 0
        assert fleet.history.last(
            "etl_ingest_records_total", member="a") is None

    def test_render_prometheus_merged_and_deterministic(self):
        def build() -> FleetTSDB:
            fleet = FleetTSDB(FakeClock(auto_advance=1.0))
            for i in range(2):
                registry = _registry(sacct=10 * (i + 1))
                hist = registry.histogram(
                    "etl_phase_seconds", "Phase", ("phase",))
                hist.labels(phase="shred").observe(0.5)
                fleet.ingest(build_shipment(
                    registry, member=f"site{i}", seq=1, scraped_at=0.0))
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
            MetricsRegistry(enabled=False), FakeClock(auto_advance=1.0)
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
            MetricsRegistry(enabled=False), FakeClock(auto_advance=1.0)
        )
        history.observe("x_rows", 1.0, now=5.0, b="2", a="1")
        history.observe_key(("x_rows", (("a", "1"), ("b", "2"))), 4.0, now=5.0)
        # same key, same timestamp: collapsed last-write-wins
        assert history.samples("x_rows", a="1", b="2") == [(5.0, 4.0)]
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
        obs = Observability(clock=FakeClock(auto_advance=0.001), name="t")
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
            shipped = hub.fleet.history.last(
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
        assert hub.fleet.member_names() == [s.name for s in satellites]

    def test_fleet_dashboard_deterministic(self, healthy_fleet):
        _, _, monitor = healthy_fleet
        board = monitor.render_fleet()
        assert board == monitor.render_fleet()
        again = _demo_fleet_federation()
        assert again[2].render_fleet() == board
        assert "site0" in board and "STALE" not in board

    def test_staleness_alert_fires_when_shipments_stop(self, stale_fleet):
        hub, _, monitor = stale_fleet
        firing = {s.rule.id: s for s in monitor.alerts.firing()}
        assert "fleet_telemetry_stale" in firing
        assert firing["fleet_telemetry_stale"].member == "site2"
        stale_after = alert_rule("fleet_telemetry_stale").max_age_s
        assert hub.fleet.stale_members(stale_after) == ["site2"]
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
        assert "site1" not in hub.fleet.member_names()
        assert hub.fleet.series_count("site1") == 0
        assert hub.fleet.history.last(
            "etl_ingest_records_total", member="site1") is None
        # the survivors still work
        assert hub.fleet.history.last(
            "etl_ingest_records_total", member="site0") is not None


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
