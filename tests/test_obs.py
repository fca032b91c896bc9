"""Telemetry: metrics registry, tracer, clocks, and instrumented hot paths."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import main
from repro.core import FederationHub, FederationMonitor, XdmodInstance
from repro.core.resilience import CircuitBreaker
from repro.etl import ParsedJob, ingest_jobs
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    FakeClock,
    MetricError,
    MetricsRegistry,
    MonotonicClock,
    Observability,
    Tracer,
    parse_prometheus_text,
)
from repro.realms import jobs_realm
from repro.timeutil import ts
from repro.ui import ApiServer, XdmodApi
from tests.conftest import build_two_site_federation
from tests.rest_client import get_json


def make_job(job_id):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 5, 1), start_ts=ts(2017, 5, 1, 1),
        end_ts=ts(2017, 5, 1, 2), nodes=1, cores=2, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource="r1",
    )


# -- clocks -------------------------------------------------------------------


class TestClocks:
    def test_monotonic_clock_advances(self):
        clock = MonotonicClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_fake_clock_is_frozen_by_default(self):
        clock = FakeClock(100.0)
        assert clock.now() == 100.0
        assert clock.now() == 100.0
        clock.advance(2.5)
        assert clock.now() == 102.5

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)


# -- registry units -----------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events", ("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc(2.0)
        counter.labels(kind="b").inc()
        assert registry.value("events_total", kind="a") == 3.0
        assert registry.value("events_total", kind="b") == 1.0
        assert registry.value("events_total", kind="missing") == 0.0

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        with pytest.raises(MetricError):
            counter.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth_rows")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert registry.value("queue_depth_rows") == 13.0

    def test_histogram_observe_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "op_seconds", "op latency", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        count, total = registry.histogram_stats("op_seconds")
        assert count == 3
        assert total == pytest.approx(5.55)

    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        for name in ("Events_total", "events", "events_count", "1e_total"):
            with pytest.raises(MetricError):
                registry.counter(name)

    def test_bad_name_rejected_even_when_disabled(self):
        registry = MetricsRegistry(enabled=False)
        with pytest.raises(MetricError):
            registry.counter("notASuffix")

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            registry.gauge("events_total")
        with pytest.raises(MetricError):
            registry.counter("events_total", labelnames=("other",))
        # identical re-registration is fine (idempotent wiring)
        registry.counter("events_total", labelnames=("kind",))

    def test_unknown_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            counter.labels(color="red")

    def test_disabled_registry_noops_and_renders_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("events_total", labelnames=("kind",)).labels(
            kind="a"
        ).inc()
        registry.gauge("depth_rows").set(9)
        registry.histogram("op_seconds").observe(1.0)
        assert registry.value("events_total", kind="a") == 0.0
        assert registry.histogram_stats("op_seconds") == (0, 0.0)
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {}


class TestPrometheusExposition:
    def _populated(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "events_total", "Events seen", ("kind", "site")
        )
        counter.labels(kind="job", site="a").inc(4)
        counter.labels(kind='we"ird\\',  site="b\n").inc()
        registry.gauge("lag_rows", "Replication lag").set(17)
        hist = registry.histogram(
            "op_seconds", "Latency", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(2.0)
        return registry

    def test_render_has_help_type_and_samples(self):
        text = self._populated().render_prometheus()
        assert "# HELP events_total Events seen\n" in text
        assert "# TYPE events_total counter\n" in text
        assert "# TYPE lag_rows gauge\n" in text
        assert "# TYPE op_seconds histogram\n" in text
        assert 'events_total{kind="job",site="a"} 4\n' in text
        assert 'op_seconds_bucket{le="+Inf"} 3\n' in text
        assert "op_seconds_count 3\n" in text
        assert text.endswith("\n")

    def test_round_trips_through_parser(self):
        registry = self._populated()
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed.types["events_total"] == "counter"
        assert parsed.types["op_seconds"] == "histogram"
        assert parsed.helps["lag_rows"] == "Replication lag"
        assert parsed.value("events_total", kind="job", site="a") == 4
        assert parsed.value("events_total", kind='we"ird\\', site="b\n") == 1
        assert parsed.value("lag_rows") == 17
        assert parsed.value("op_seconds_bucket", le="0.1") == 1
        assert parsed.value("op_seconds_bucket", le="1") == 2
        assert parsed.value("op_seconds_bucket", le="+Inf") == 3
        assert parsed.value("op_seconds_count") == 3
        assert parsed.value("op_seconds_sum") == pytest.approx(2.55)

    def test_parser_rejects_duplicate_samples(self):
        with pytest.raises(MetricError):
            parse_prometheus_text("a_total 1\na_total 2\n")


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_parents(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer", site="a"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(1.0)
            clock.advance(1.0)
        inner, outer = tracer.finished[0], tracer.finished[1]
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"site": "a"}
        assert outer.duration_s == pytest.approx(3.0)
        assert inner.duration_s == pytest.approx(1.0)

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.finished
        assert span.attrs["error"] == "RuntimeError"

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(FakeClock(), max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.spans_dropped == 3

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(FakeClock(), enabled=False)
        with tracer.span("ignored"):
            pass
        assert tracer.finished == ()
        assert tracer.to_jsonl() == ""

    def test_slow_span_report(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("fast"):
            clock.advance(1.0)
        with tracer.span("slow"):
            clock.advance(1.0)
            with tracer.span("fast"):
                clock.advance(1.0)
            clock.advance(1.0)
        report = tracer.slow_spans(top=2)
        assert report[0]["name"] == "slow"
        assert report[0]["count"] == 1
        assert report[1]["name"] == "fast"
        assert report[1]["count"] == 2
        text = tracer.render_slow_report()
        assert "slow" in text and "fast" in text

    def test_jsonl_is_byte_identical_across_runs(self):
        def run():
            clock = FakeClock()
            tracer = Tracer(clock)
            with tracer.span("a", step=1):
                clock.advance(0.5)
                with tracer.span("b"):
                    clock.advance(0.5)
            with tracer.span("c"):
                clock.advance(0.5)
            return tracer.to_jsonl()

        first, second = run(), run()
        assert first == second
        assert first.endswith("\n")
        for line in first.splitlines():
            record = json.loads(line)
            assert set(record) == {
                "span_id", "parent_id", "name", "start_s", "end_s",
                "duration_s", "attrs", "trace_id", "instance",
                "remote_parent",
            }


# -- instrumented hot paths ---------------------------------------------------


class TestInstrumentedPaths:
    def test_etl_and_warehouse_metrics(self, instance):
        registry = instance.obs.registry
        assert registry.value(
            "etl_ingest_records_total", source="jobs"
        ) > 0
        count, total = registry.histogram_stats(
            "etl_ingest_seconds", source="jobs"
        )
        assert count >= 1 and total >= 0.0
        assert registry.value(
            "warehouse_binlog_events_total", schema="modw"
        ) > 0
        names = {span.name for span in instance.obs.tracer.finished}
        assert "ingest_jobs" in names

    def test_aggregation_metrics(self, aggregated_instance):
        registry = aggregated_instance.obs.registry
        assert registry.value(
            "aggregation_rows_total", realm="jobs", mode="full"
        ) > 0
        count, _ = registry.histogram_stats(
            "aggregation_build_seconds", realm="jobs", mode="full"
        )
        assert count >= 1
        names = {
            span.name for span in aggregated_instance.obs.tracer.finished
        }
        assert "aggregate_jobs" in names

    def test_federation_sync_metrics(self, federation):
        hub, satellites, _, _ = federation
        registry = hub.obs.registry
        hub.sync()
        assert registry.value("federation_sync_cycles_total", hub="hub") >= 1
        assert registry.value(
            "replication_events_applied_total", channel="site0"
        ) > 0
        count, _ = registry.histogram_stats(
            "replication_pump_seconds", channel="site0"
        )
        assert count >= 1
        assert registry.value(
            "warehouse_apply_events_total", schema="fed_site0"
        ) > 0
        # synced federation has no lag and no quarantined events
        ingest_jobs(satellites["site0"].schema, [make_job(4242)])
        hub.sync()
        assert registry.value("replication_lag_rows", member="site0") == 0.0
        assert (
            registry.value("federation_dead_letters_rows", member="site0")
            == 0.0
        )
        names = {span.name for span in hub.obs.tracer.finished}
        assert "replication_pump" in names

    def test_circuit_transition_counter(self, federation):
        hub, satellites, _, _ = federation
        # standing lag so sync() actually exercises the (broken) channel
        ingest_jobs(satellites["site0"].schema, [make_job(9999)])
        member = hub.member("site0")
        member.breaker = CircuitBreaker(failure_threshold=1, cooldown=1000)

        def explode(*args, **kwargs):
            raise RuntimeError("satellite unreachable")

        member.channel.catch_up = explode
        hub.sync()  # failure -> breaker opens
        hub.sync()  # breaker refuses -> member skipped, still open
        registry = hub.obs.registry
        assert registry.value(
            "federation_circuit_transitions_total",
            member="site0", state="open",
        ) == 1.0


# -- REST surfaces ------------------------------------------------------------


class TestRestSurfaces:
    def _federated_api(self):
        hub, satellites, _, _ = build_two_site_federation()
        monitor = FederationMonitor(hub)
        api = XdmodApi(
            {"jobs": jobs_realm()},
            {name: hub.database.schema(f"fed_{name}") for name in satellites},
            obs=hub.obs,
            monitor=monitor,
        )
        return hub, satellites, api

    def test_metrics_endpoint_parses_as_prometheus_text(self):
        hub, _, api = self._federated_api()
        hub.sync()
        status, content_type, body = api.handle_raw("/metrics", {})
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus_text(body.decode("utf-8"))
        assert parsed.value("federation_sync_cycles_total", hub="hub") >= 1
        assert "replication_pump_seconds" in parsed.types

    def test_metrics_endpoint_404_without_obs(self, aggregated_instance):
        api = XdmodApi({"jobs": jobs_realm()}, aggregated_instance.schema)
        status, payload, _ = get_json(api, "/metrics")
        assert status == 404

    def test_health_readiness_payload(self):
        hub, satellites, api = self._federated_api()
        status, payload, _ = get_json(api, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["degraded_members"] == []
        assert payload["max_lag"] == 0
        ingest_jobs(satellites["site0"].schema, [make_job(31337)])
        status, payload, _ = get_json(api, "/health")
        assert status == 200  # degraded is still a 200 -- readiness payload
        assert payload["status"] == "degraded"
        assert "site0" in payload["degraded_members"]
        assert payload["max_lag"] > 0

    def test_status_payload(self):
        hub, _, api = self._federated_api()
        hub.sync()
        status, payload, _ = get_json(api, "/status")
        assert status == 200
        assert payload["hub"] == "hub"
        assert {m["name"] for m in payload["members"]} == {"site0", "site1"}
        for member in payload["members"]:
            assert member["health"] == "ok"
            assert "avg_sync_seconds" in member
        assert "federation_sync_cycles_total" in payload["metrics"]

    def test_status_404_without_monitor(self, aggregated_instance):
        api = XdmodApi({"jobs": jobs_realm()}, aggregated_instance.schema)
        status, payload, _ = get_json(api, "/status")
        assert status == 404

    def test_metrics_over_live_server(self):
        hub, _, api = self._federated_api()
        hub.sync()
        with ApiServer(api) as server:
            request = urllib.request.Request(server.url + "/metrics")
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert (
                    response.headers["Content-Type"]
                    == PROMETHEUS_CONTENT_TYPE
                )
                text = response.read().decode("utf-8")
        parsed = parse_prometheus_text(text)
        assert parsed.value("federation_sync_cycles_total", hub="hub") >= 1


# -- monitor ------------------------------------------------------------------


class TestMonitorRates:
    def test_status_reads_rates_from_registry(self, federation):
        hub, _, _, _ = federation
        hub.sync()
        status = FederationMonitor(hub).status()
        member = next(m for m in status.members if m.name == "site0")
        assert member.syncs >= 1
        assert member.sync_seconds >= 0.0
        assert member.avg_sync_seconds >= 0.0
        assert member.events_per_second >= 0.0


# -- determinism end to end ---------------------------------------------------


class TestDeterministicTraces:
    @staticmethod
    def _run():
        obs = Observability(clock=FakeClock())
        instance = XdmodInstance("det", obs=obs)
        instance.pipeline.ingest_parsed_jobs([make_job(i) for i in range(5)])
        instance.aggregate(["day", "month"])
        return obs

    def test_traces_byte_identical_across_runs(self):
        first, second = self._run(), self._run()
        assert first.tracer.to_jsonl() == second.tracer.to_jsonl()
        assert first.tracer.to_jsonl() != ""

    def test_metrics_render_identical_across_runs(self):
        first, second = self._run(), self._run()
        assert (
            first.registry.render_prometheus()
            == second.registry.render_prometheus()
        )

    def test_federated_sync_traces_deterministic(self):
        def run():
            obs = Observability(clock=FakeClock())
            sat = XdmodInstance("s0")
            sat.pipeline.ingest_parsed_jobs(
                [make_job(i) for i in range(3)]
            )
            hub = FederationHub("hub", obs=obs)
            hub.join(sat, mode="tight")
            hub.sync()
            return obs.tracer.to_jsonl()

        first, second = run(), run()
        assert first == second
        assert "replication_pump" in first


# -- CLI ----------------------------------------------------------------------


class TestObsCli:
    def test_metrics_dump(self, capsys):
        assert main(["obs", "metrics", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus_text(out)
        assert "etl_ingest_records_total" in parsed.types

    def test_slow_report(self, capsys):
        assert main(["obs", "slow", "--scale", "0.05", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "span" in out or "name" in out

    def test_trace_tail_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        tracer = Tracer(FakeClock())
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        tracer.write_jsonl(trace)
        assert main(
            ["obs", "trace", "--trace-file", str(trace), "--tail", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["name"] == "s3"
