"""Observability plane: metrics history, SLO alerting, federated traces.

Covers the three layers PR 5 adds on top of the PR-4 telemetry:

- Prometheus exposition edge cases (label escaping, ±Inf/NaN) now
  round-trip through the parser;
- :class:`repro.obs.MetricsHistory` — the ring-buffer mini-TSDB the hub
  snapshots after every sync cycle — and its query vocabulary;
- :class:`repro.obs.AlertEngine` and the shipped SLO rule catalog,
  end-to-end through a fault-injected federation, ``GET /alerts`` and
  ``GET /health``;
- the cross-member trace acceptance scenario: one satellite ingest
  replicated both tight and loose assembles into a single federated
  trace, byte-identical across runs under a FakeClock.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.aggregation.levels import AggregationLevel, AggregationLevelSet
from repro.cli import main
from repro.core import (
    FaultPlan,
    FederationHub,
    FederationMonitor,
    LooseChannel,
    XdmodInstance,
    inject_apply_faults,
)
from repro.etl import ParsedJob, ingest_jobs
from repro.obs import (
    DEFAULT_ALERT_RULES,
    AlertEngine,
    AlertRule,
    FakeClock,
    FederatedTraceAssembler,
    MetricsHistory,
    MetricsRegistry,
    Observability,
    alert_rule,
    parse_prometheus_text,
)
from repro.obs.history import DEFAULT_RETENTION, _Series
from repro.timeutil import ts
from repro.ui import XdmodApi, render_sparkline
from tests.conftest import property_settings
from tests.rest_client import get_json


def make_job(job_id):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 5, 1), start_ts=ts(2017, 5, 1, 1),
        end_ts=ts(2017, 5, 1, 2), nodes=1, cores=2, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource="r1",
    )


def fake_obs(name: str) -> Observability:
    return Observability(clock=FakeClock(), name=name)


# -- exposition edge cases ----------------------------------------------------


class TestExpositionEdgeCases:
    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'back\\slash says "hi"\nand newline'
        registry.gauge("weird_rows", "escaping", ("path",)).labels(
            path=nasty
        ).set(1.5)
        text = registry.render_prometheus()
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        assert "\n" not in text.split("weird_rows{", 1)[1].split("}")[0]
        parsed = parse_prometheus_text(text)
        assert parsed.value("weird_rows", path=nasty) == 1.5

    def test_special_values_render_and_parse(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("edge_rows", "specials", ("kind",))
        gauge.labels(kind="pinf").set(float("inf"))
        gauge.labels(kind="ninf").set(float("-inf"))
        gauge.labels(kind="nan").set(float("nan"))
        text = registry.render_prometheus()
        assert " +Inf" in text and " -Inf" in text and " NaN" in text
        parsed = parse_prometheus_text(text)
        assert parsed.value("edge_rows", kind="pinf") == float("inf")
        assert parsed.value("edge_rows", kind="ninf") == float("-inf")
        assert math.isnan(parsed.value("edge_rows", kind="nan"))

    def test_histogram_inf_bucket_round_trips(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(50.0)  # beyond every finite bucket: lands in +Inf
        text = registry.render_prometheus()
        parsed = parse_prometheus_text(text)
        assert parsed.value("lat_seconds_bucket", le="+Inf") == 2
        assert parsed.value("lat_seconds_bucket", le="0.1") == 1
        assert parsed.value("lat_seconds_count") == 2


# -- metrics history ----------------------------------------------------------


class _Tripwire(str):
    """A sample name that fails the test when touched while armed."""

    armed = False

    def _touched(self, *_):
        if _Tripwire.armed:
            raise AssertionError(f"query touched the {str(self)!r} series")
        return NotImplemented

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _touched

    def __hash__(self):
        self._touched()
        return str.__hash__(self)


def build_history(**kwargs):
    clock = kwargs.pop("clock", None) or FakeClock(1000.0)
    registry = MetricsRegistry()
    return registry, MetricsHistory(registry, clock, **kwargs), clock


class TestMetricsHistory:
    def test_record_snapshots_every_scalar_child(self):
        registry, history, _ = build_history()
        registry.counter("pumps_total", "c", ("member",)).labels(
            member="site0"
        ).inc(3)
        registry.gauge("depth_rows", "g").set(7)
        registry.histogram("pump_seconds", "h").observe(0.25)
        assert history.record() == 4  # counter, gauge, hist _count + _sum
        assert history.last("pumps_total", member="site0") == 3.0
        assert history.last("depth_rows") == 7.0
        assert history.last("pump_seconds_count") == 1.0
        assert history.last("pump_seconds_sum") == 0.25
        assert history.last("no_such_rows") is None

    def test_partial_label_matching_sums_children(self):
        registry, history, _ = build_history()
        syncs = registry.counter("syncs_total", "c", ("member", "status"))
        syncs.labels(member="site0", status="applied").inc(3)
        syncs.labels(member="site0", status="failed").inc(1)
        syncs.labels(member="site1", status="applied").inc(2)
        history.record()
        assert history.last("syncs_total", member="site0") == 4.0
        assert history.last("syncs_total") == 6.0
        assert history.last("syncs_total", member="site0", status="failed") == 1.0
        assert history.last("syncs_total", member="site9") is None

    def test_increase_is_counter_reset_aware(self):
        registry, history, clock = build_history()
        gauge = registry.gauge("events_total", "free-setting counter stand-in")
        for value in (5, 9, 2, 3):  # 2 is a restart-from-zero reset
            gauge.set(value)
            history.record()
            clock.advance(10.0)
        # increase: (9-5) + 2 (reset adds the post-reset value) + (3-2)
        assert history.increase("events_total", 3600.0) == 7.0
        # delta keeps gauge semantics: last minus window baseline
        assert history.delta("events_total", 3600.0) == 3.0 - 5.0
        assert history.rate("events_total", 100.0) == pytest.approx(0.07)
        with pytest.raises(ValueError):
            history.rate("events_total", 0.0)

    def test_quantile_over_time(self):
        registry, history, clock = build_history()
        gauge = registry.gauge("lag_rows", "g")
        for value in (1, 2, 3, 4, 5):
            gauge.set(value)
            history.record()
            clock.advance(1.0)
        assert history.quantile_over_time(0.5, "lag_rows", 3600.0) == 3.0
        assert history.quantile_over_time(0.0, "lag_rows", 3600.0) == 1.0
        assert history.quantile_over_time(1.0, "lag_rows", 3600.0) == 5.0
        assert history.quantile_over_time(0.5, "lag_rows", 1.5) == 5.0
        assert history.quantile_over_time(0.5, "nope_rows", 60.0) is None
        with pytest.raises(ValueError):
            history.quantile_over_time(1.5, "lag_rows", 60.0)

    def test_single_sample_window_functions_return_none(self):
        registry, history, clock = build_history()
        gauge = registry.gauge("one_rows", "g")
        gauge.set(5)
        history.record()
        # one sample with nothing before the window: no computable step,
        # and "no data" must stay distinguishable from "no growth"
        assert history.increase("one_rows", 60.0) is None
        assert history.rate("one_rows", 60.0) is None
        clock.advance(10.0)
        history.record()
        assert history.increase("one_rows", 60.0) == 0.0
        assert history.rate("one_rows", 60.0) == 0.0
        # a window that slid past every sample is "no data" again
        clock.advance(100.0)
        assert history.increase("one_rows", 5.0) is None
        assert history.increase("never_rows", 60.0) is None

    def test_quantile_over_empty_window_is_none(self):
        registry, history, clock = build_history()
        gauge = registry.gauge("q_rows", "g")
        for value in (1, 2, 3):
            gauge.set(value)
            history.record()
            clock.advance(10.0)
        assert history.quantile_over_time(0.5, "q_rows", 3600.0) == 2.0
        # the window has slid past every sample: no data, not 0
        clock.advance(1000.0)
        assert history.quantile_over_time(0.5, "q_rows", 5.0) is None

    def test_counter_reset_survives_retention_downsampling(self):
        ladder = AggregationLevelSet(
            name="r", field="age_s", unit="seconds",
            levels=(
                AggregationLevel("raw", 0.0, 10.0),
                AggregationLevel("coarse", 10.0, 100.0),
            ),
        )
        registry = MetricsRegistry()
        history = MetricsHistory(registry, FakeClock(0.0), retention=ladder)
        gauge = registry.gauge("resets_total", "counter stand-in")
        # the counter climbs to 49, restarts from zero at t=50, climbs again
        for t in range(95):
            gauge.set(t if t < 50 else t - 50)
            history.record(now=float(t))
        history.compact(now=95.0)
        kept = history.samples("resets_total")
        # keep-newest-per-bucket downsampling must not erase the restart:
        # the kept series still shows a negative step across the
        # raw/coarse tier boundary
        values = [v for _, v in kept]
        assert any(b < a for a, b in zip(values, values[1:]))
        # increase() over the compacted series equals the reset-aware fold
        # a client would compute from samples() itself
        expected, prev = 0.0, None
        for _, v in kept:
            if prev is not None:
                expected += (v - prev) if v >= prev else v
            prev = v
        assert expected > 0
        assert history.increase("resets_total", 95.0, at=95.0) == expected

    def test_observe_feeds_explicit_series(self):
        registry, history, clock = build_history()
        for score in (0.9, 0.8, 0.2):
            history.observe("job_score_ratio", score, member="s0", app="namd")
            clock.advance(1.0)
        assert history.samples("job_score_ratio", app="namd") == [
            (1000.0, 0.9), (1001.0, 0.8), (1002.0, 0.2)
        ]
        assert history.last("job_score_ratio", member="s0") == 0.2
        assert history.quantile_over_time(
            0.5, "job_score_ratio", 3600.0, app="namd"
        ) == 0.8
        # same clock reading: an observation is an event, so both are kept
        history.observe("job_score_ratio", 0.5, now=1002.0, member="s0", app="namd")
        assert history.samples("job_score_ratio")[-2:] == [(1002.0, 0.2), (1002.0, 0.5)]
        assert history.last("job_score_ratio") == 0.5
        # disabled history ignores observations entirely
        _, disabled, _ = build_history(enabled=False)
        disabled.observe("job_score_ratio", 1.0)
        assert disabled.samples("job_score_ratio") == []

    def test_observe_keeps_every_observation_at_one_reading(self):
        registry, history, clock = build_history()
        scores = [0.1 * i for i in range(12)]
        for score in scores:  # one job score each, the clock never moves
            history.observe("job_score_ratio", score, member="s0", app="namd")
        assert history.samples("job_score_ratio") == [(1000.0, v) for v in scores]
        assert history.quantile_over_time(0.5, "job_score_ratio", 60.0) == (
            pytest.approx(0.55)
        )

    def test_snapshot_at_one_reading_keeps_only_a_moved_value(self):
        registry, history, clock = build_history()
        counter = registry.counter("flags_total", "c")
        counter.inc(0)
        history.record()
        history.record()  # a re-read of the same state adds nothing
        counter.inc()
        history.record()  # the step is kept, though no time has passed
        assert history.samples("flags_total") == [(1000.0, 0.0), (1000.0, 1.0)]
        assert history.increase("flags_total", 60.0) == 1.0

    def test_age_tracks_value_changes_not_samples(self):
        registry, history, clock = build_history()
        gauge = registry.gauge("beat_rows", "g")
        gauge.set(5)
        history.record()
        clock.advance(10.0)
        history.record()  # same value re-recorded: not a change
        assert history.age_s("beat_rows") == 10.0
        gauge.set(7)
        clock.advance(5.0)
        history.record()
        assert history.age_s("beat_rows") == 0.0
        assert history.age_s("never_rows") is None

    def test_retention_ladder_downsamples_and_drops(self):
        ladder = AggregationLevelSet(
            name="r", field="age_s", unit="seconds",
            levels=(
                AggregationLevel("raw", 0.0, 10.0),
                AggregationLevel("coarse", 10.0, 100.0),
            ),
        )

        def run():
            registry = MetricsRegistry()
            history = MetricsHistory(
                registry, FakeClock(0.0), retention=ladder
            )
            gauge = registry.gauge("v_rows", "g")
            for t in range(120):
                gauge.set(t)
                history.record(now=float(t))
            history.compact(now=119.0)
            return history.samples("v_rows")

        samples = run()
        times = [t for t, _ in samples]
        # raw tier: every sample younger than 10 s survives
        assert [t for t in times if t > 109.0] == [float(t) for t in range(110, 120)]
        # beyond the ladder span (age >= 100 s) everything is dropped
        assert min(times) >= 20.0
        # coarse tier keeps one (the newest) sample per 10 s bucket
        coarse = [t for t in times if t <= 109.0]
        assert len(coarse) == len({int(t // 10) for t in coarse})
        # deterministic: an identical run compacts identically
        assert run() == samples

    def test_retention_must_start_at_age_zero(self):
        ladder = AggregationLevelSet(
            name="r", field="age_s", unit="seconds",
            levels=(AggregationLevel("late", 5.0, 10.0),),
        )
        with pytest.raises(ValueError):
            MetricsHistory(MetricsRegistry(), FakeClock(0.0), retention=ladder)

    def test_disabled_history_is_a_noop(self):
        registry, history, _ = build_history(enabled=False)
        registry.gauge("v_rows", "g").set(1)
        assert history.record() == 0
        assert history.samples("v_rows") == []
        assert history.last("v_rows") is None

    def test_max_samples_backstop_trims_oldest(self):
        registry, history, _ = build_history(max_samples=32)
        gauge = registry.gauge("v_rows", "g")
        for i in range(100):
            gauge.set(i)
            history.record(now=float(i))
        samples = history.samples("v_rows")
        assert len(samples) <= 32
        assert samples[-1] == (99.0, 99.0)

    def test_full_raw_series_is_not_compacted_on_every_append(self, monkeypatch):
        """A series at its cap whose samples all sit in the raw tier has
        nothing a compaction could drop: appends past the cap only trim."""
        registry, history, _ = build_history(max_samples=32)
        gauge = registry.gauge("v_rows", "g")
        compactions = []
        compact_series = history._compact_series
        monkeypatch.setattr(
            history, "_compact_series",
            lambda series, now: (compactions.append(now), compact_series(series, now)),
        )
        appends = 5000
        for i in range(32 + appends):  # 0.01 s apart: all inside the 300 s raw tier
            gauge.set(i)
            history.record(now=i * 0.01)
            history.observe_key(("w_rows", ()), float(i), now=i * 0.01)
        # only record()'s periodic sweep (every 16 records, 2 series) remains
        assert len(compactions) <= 2 * (32 + appends) // 16
        for name in ("v_rows", "w_rows"):
            samples = history.samples(name)
            assert len(samples) == 32
            assert samples[0][1] == appends and samples[-1][1] == 31 + appends

    def test_query_visits_only_its_own_names_series(self):
        """Queries go through a name index: once the store is filled, no
        query hashes, compares or reads another sample name's series."""
        registry, history, _ = build_history()
        other = _Tripwire("other_rows")
        for m in range(50):
            history.observe_key((other, (("member", f"m{m:02d}"),)), float(m), now=1.0)
        history.observe("wanted_rows", 1.0, now=1.0, member="a", status="ok")
        history.observe("wanted_rows", 3.0, now=2.0, member="a", status="ok")
        history.observe("wanted_rows", 5.0, now=2.0, member="b", status="ok")
        _Tripwire.armed = True
        try:
            assert history.last("wanted_rows") == 8.0
            assert history.last("wanted_rows", member="a") == 3.0
            assert history.rate("wanted_rows", 10.0, at=2.0, member="a") == 0.2
            assert history.age_s("wanted_rows", at=4.0, member="b") == 2.0
            assert history.samples("wanted_rows", member="a") == [(1.0, 1.0), (2.0, 3.0)]
            assert history.series_keys("wanted_rows") == [
                ("wanted_rows", (("member", "a"), ("status", "ok"))),
                ("wanted_rows", (("member", "b"), ("status", "ok"))),
            ]
            assert history.last("missing_rows") is None
        finally:
            _Tripwire.armed = False
        assert history.purge_labels(member="a") == 1
        assert history.series_keys("wanted_rows") == [
            ("wanted_rows", (("member", "b"), ("status", "ok")))
        ]
        assert history.purge_labels(member="b") == 1
        assert history.series_keys("wanted_rows") == []
        assert history.last("wanted_rows") is None
        assert len(history.series_keys()) == 50

    def test_metrics_scrape_records_into_history(self):
        obs = fake_obs("api")
        obs.registry.counter("hits_total", "c").inc(2)
        api = XdmodApi({}, {}, obs=obs)
        status, ctype, body = api.handle_raw("/metrics", {})
        assert status == 200
        assert b"hits_total 2" in body
        assert obs.history.last("hits_total") == 2.0


def compacted_by_walk(retention, samples, now):
    """The compaction walk that classifies every sample with
    ``level_of``, raw tier included: newest first, stop at the horizon,
    keep every raw sample and the newest sample per tier bucket."""
    _, horizon = retention.span()
    kept, seen = [], set()
    for t, v in reversed(samples):
        age = now - t
        if age >= horizon:
            break
        label = retention.level_of(age)
        if label == retention.OUTSIDE:
            continue
        width = next(l.lo for l in retention.levels if l.label == label)
        if width <= 0:
            kept.append((t, v))
            continue
        bucket = (label, int(t // width))
        if bucket not in seen:
            seen.add(bucket)
            kept.append((t, v))
    return kept[::-1]


NOW = 100_000.0
#: sample ages: the default ladder's tier edges, just either side of
#: them, negative ages (a sample stamped after ``now``) and anything else
AGES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1e-9, -1e-9, -1.0, 299.999, 300.0, 300.001,
        3599.999, 3600.0, 3600.001, 86399.999, 86400.0, 86400.5,
    ]),
    st.floats(-600.0, 90_000.0, allow_nan=False),
)


class TestCompaction:
    @property_settings(200)
    @given(ages=st.lists(AGES, max_size=40))
    def test_compaction_equals_the_classifying_walk(self, ages):
        """Out-of-order times included: explicit ``now=`` observations
        need not arrive in time order."""
        _, history, _ = build_history()
        samples = [(NOW - age, float(i)) for i, age in enumerate(ages)]
        series = _Series()
        series.samples = list(samples)
        history._compact_series(series, NOW)
        assert series.samples == compacted_by_walk(DEFAULT_RETENTION, samples, NOW)

    def test_raw_tier_samples_never_reach_level_of(self, monkeypatch):
        classified = []
        level_of = AggregationLevelSet.level_of
        monkeypatch.setattr(
            AggregationLevelSet, "level_of",
            lambda self, value: (classified.append(value), level_of(self, value))[1],
        )
        _, history, _ = build_history()
        ages = [4000.0, 0.0, 299.5, 301.0, 3599.0, 3600.0, 150.0, -5.0, 299.999]
        series = _Series()
        series.samples = [(NOW - age, age) for age in ages]
        history._compact_series(series, NOW)
        assert sorted(classified) == [-5.0, 301.0, 3599.0, 3600.0, 4000.0]
        assert {v for _, v in series.samples} >= {0.0, 299.5, 150.0, 299.999}


# -- alert rules and engine ---------------------------------------------------


def build_engine(*rules: AlertRule):
    registry, history, clock = build_history()
    return registry, history, clock, AlertEngine(history, rules)


class TestAlertRules:
    def test_rule_validation(self):
        ok = dict(id="r", metric="m_rows", summary="s")
        with pytest.raises(ValueError):
            AlertRule(kind="sometimes", **ok)
        with pytest.raises(ValueError):
            AlertRule(kind="threshold", op="!=", **ok)
        with pytest.raises(ValueError):
            AlertRule(kind="burn_rate", func="median", **ok)
        with pytest.raises(ValueError):
            AlertRule(kind="threshold", for_count=0, **ok)

    def test_catalog_lookup_round_trips(self):
        assert alert_rule("member_stale").kind == "absence"
        ids = [r.id for r in DEFAULT_ALERT_RULES]
        assert len(set(ids)) == len(ids)
        for rule in DEFAULT_ALERT_RULES:
            assert alert_rule(rule.id) is rule

    def test_unknown_rule_id_raises_with_catalog(self):
        bogus = "lag_is_hot"  # via a variable: rule ids in alert_rule()
        # literals are what repolint's R7 checks
        with pytest.raises(KeyError) as err:
            alert_rule(bogus)
        assert "member_stale" in str(err.value)


class TestAlertEngine:
    def test_threshold_state_machine(self):
        rule_id = "lag_hot"
        rule = AlertRule(
            id=rule_id, kind="threshold", metric="replication_lag_rows",
            op=">=", threshold=10.0, for_count=2, summary="lag is hot",
        )
        registry, history, clock, engine = build_engine(rule)
        lag = registry.gauge("replication_lag_rows", "g", ("member",))

        def step(value):
            lag.labels(member="site0").set(value)
            history.record()
            clock.advance(1.0)
            engine.evaluate(["site0"])
            return engine.state_of(rule_id, "site0")

        assert step(20).status == "pending"  # first breach
        state = step(25)  # for_count=2 reached
        assert state.status == "firing" and state.active
        assert engine.firing()[0].rule.id == rule_id
        assert step(0).status == "resolved"
        assert step(0).status == "inactive"
        assert engine.firing() == []

    def test_for_count_one_fires_immediately(self):
        rule_id = "dlq_any"
        rule = AlertRule(
            id=rule_id, kind="threshold", metric="dlq_rows",
            op=">", threshold=0.0, for_count=1, summary="dlq non-empty",
        )
        registry, history, _, engine = build_engine(rule)
        registry.gauge("dlq_rows", "g", ("member",)).labels(member="m").set(1)
        history.record()
        engine.evaluate(["m"])
        assert engine.state_of(rule_id, "m").status == "firing"

    def test_absence_never_seen_is_healthy_then_fires_on_silence(self):
        rule_id = "quiet"
        rule = AlertRule(
            id=rule_id, kind="absence", metric="beats_total",
            max_age_s=60.0, for_count=1, summary="member quiet",
        )
        registry, history, clock, engine = build_engine(rule)
        engine.evaluate(["m"])
        state = engine.state_of(rule_id, "m")
        assert state.status == "inactive" and state.value is None
        beats = registry.counter("beats_total", "c", ("member",))
        beats.labels(member="m").inc()
        history.record()
        engine.evaluate(["m"])
        assert engine.state_of(rule_id, "m").status == "inactive"
        clock.advance(120.0)
        engine.evaluate(["m"])
        assert engine.state_of(rule_id, "m").status == "firing"
        beats.labels(member="m").inc()  # the member comes back
        history.record()
        engine.evaluate(["m"])
        assert engine.state_of(rule_id, "m").status == "resolved"

    def test_burn_rate_ratio_with_denominator(self):
        rule_id = "fail_ratio"
        rule = AlertRule(
            id=rule_id, kind="burn_rate", metric="ops_total",
            labels=(("status", "failed"),), denominator="ops_total",
            op=">=", threshold=0.5, window_s=600.0, for_count=1,
            summary="failure ratio high",
        )
        registry, history, clock, engine = build_engine(rule)
        ops = registry.counter("ops_total", "c", ("member", "status"))
        ops.labels(member="m", status="failed").inc(0)
        ops.labels(member="m", status="ok").inc(0)
        history.record()
        engine.evaluate(["m"])  # window holds no increase: ratio 0, healthy
        assert engine.state_of(rule_id, "m").status == "inactive"
        clock.advance(10.0)
        ops.labels(member="m", status="failed").inc(3)
        ops.labels(member="m", status="ok").inc(1)
        history.record()
        engine.evaluate(["m"])
        state = engine.state_of(rule_id, "m")
        assert state.status == "firing"
        assert state.value == 0.75

    def test_duplicate_rule_ids_rejected(self):
        rule = AlertRule(
            id="dup", kind="threshold", metric="m_rows", summary="s"
        )
        _, history, _ = build_history()
        with pytest.raises(ValueError):
            AlertEngine(history, [rule, rule])

    def test_default_catalog_is_quiet_on_a_fresh_hub(self):
        _, history, _ = build_history()
        engine = AlertEngine(history)
        engine.evaluate(["site0", "site1"])
        assert engine.active() == []

    def test_render_and_to_dict(self):
        rule_id = "dlq_any"
        rule = AlertRule(
            id=rule_id, kind="threshold", metric="dlq_rows",
            op=">", threshold=0.0, for_count=1, severity="page",
            summary="dead letters present",
        )
        registry, history, _, engine = build_engine(rule)
        registry.gauge("dlq_rows", "g", ("member",)).labels(member="m").set(2)
        history.record()
        engine.evaluate(["m"])
        text = engine.render()
        assert "1 firing / 1 tracked" in text
        assert f"FIRING {rule_id}[m]: dead letters present" in text
        payload = engine.to_dict()
        assert payload["firing"] == 1
        (alert,) = payload["alerts"]
        assert alert["rule"] == rule_id
        assert alert["severity"] == "page"
        assert alert["status"] == "firing"

    def test_render_before_any_evaluation(self):
        _, history, _ = build_history()
        assert "(no evaluations yet)" in AlertEngine(history).render()


# -- federated trace acceptance -----------------------------------------------


def build_traced_federation():
    """One satellite ingest replicated tight AND loose into one hub."""
    sat = XdmodInstance("site0", obs=fake_obs("site0"))
    with sat.obs.tracer.span("ingest_batch", site="site0"):
        ingest_jobs(sat.schema, [make_job(i) for i in range(8)])
    hub = FederationHub("hub", obs=fake_obs("hub"))
    hub.join(sat, mode="tight")  # initial sync pumps the whole backlog
    LooseChannel(
        sat.schema, hub.database, "fed_site0_loose", obs=hub.obs
    ).ship()
    return hub, sat


class TestFederatedTraceAcceptance:
    def test_single_ingest_assembles_one_federated_trace(self):
        hub, sat = build_traced_federation()
        assembler = FederatedTraceAssembler(hub.obs.tracer, sat.obs.tracer)
        federated = [
            tid for tid in assembler.trace_ids()
            if len(assembler.instances_of(tid)) > 1
        ]
        assert len(federated) == 1
        (tid,) = federated
        assert tid.startswith("site0:")
        assert assembler.instances_of(tid) == ["hub", "site0"]
        reparented = assembler.reparented_spans(tid)
        assert len(reparented) >= 4
        names = {s.name for s in reparented}
        assert "hub_apply" in names  # tight path joined the trace
        assert "loose_load" in names  # and so did the dump shipment
        for span in reparented:
            assert span.remote_parent.startswith("site0#")

    def test_render_marks_reparented_spans(self):
        hub, sat = build_traced_federation()
        assembler = FederatedTraceAssembler(hub.obs.tracer, sat.obs.tracer)
        (tid,) = [
            t for t in assembler.trace_ids()
            if len(assembler.instances_of(t)) > 1
        ]
        text = assembler.render(tid)
        assert text.splitlines()[0].endswith("across 2 instances)")
        assert "<= hub_apply" in text
        assert "<= loose_load" in text
        assert "(from site0#" in text

    def test_loose_load_spans_name_their_member(self):
        """Every satellite's schema is ``modw``: the span is labelled with
        the member, so two loose members' loads tell apart."""
        hub = FederationHub("hub", obs=fake_obs("hub"))
        for name in ("site1", "site2"):
            sat = XdmodInstance(name, obs=fake_obs(name))
            with sat.obs.tracer.span("ingest_batch", site=name):
                ingest_jobs(sat.schema, [make_job(i) for i in range(3)])
            hub.join(sat, mode="loose")
        loads = [s for s in hub.obs.tracer.finished if s.name == "loose_load"]
        assert sorted(s.attrs["member"] for s in loads) == ["site1", "site2"]
        assert sorted(s.attrs["target"] for s in loads) == ["fed_site1", "fed_site2"]

    def test_assembly_is_byte_identical_across_runs(self):
        def render_once():
            hub, sat = build_traced_federation()
            assembler = FederatedTraceAssembler(
                hub.obs.tracer, sat.obs.tracer
            )
            return assembler.render_all()

        assert render_once() == render_once()


# -- alerts end to end through a fault-injected federation --------------------


def build_faulted_federation(n_jobs=600):
    """A hub whose only member fails every apply, with a big backlog."""
    sat = XdmodInstance("site0", obs=fake_obs("site0"))
    ingest_jobs(sat.schema, [make_job(i) for i in range(n_jobs)])
    hub = FederationHub("hub", obs=fake_obs("hub"))
    hub.join(sat, mode="tight", initial_sync=False)
    inject_apply_faults(
        hub.member("site0").channel,
        FaultPlan(transient_rate=1.0, transient_burst=10**9),
    )
    return hub, FederationMonitor(hub)


def run_cycles(hub, monitor, n=3):
    """``n`` sync cycles, each followed by an alert evaluation, the hub's
    clock moving one tick before each operation."""
    for _ in range(n):
        for step in (hub.sync, monitor.evaluate_alerts):
            hub.obs.clock.advance(1.0)
            step()


class TestAlertsEndToEnd:
    def test_burn_rate_and_lag_alerts_fire_deterministically(self):
        hub, monitor = build_faulted_federation()
        run_cycles(hub, monitor)
        firing = {s.rule.id for s in monitor.alerts.firing()}
        assert "sync_failure_burn_rate" in firing
        assert "replication_lag_high" in firing
        ratio = monitor.alerts.state_of("sync_failure_burn_rate", "site0")
        assert ratio.value == 1.0  # every cycle failed

    def test_staleness_alert_fires_when_member_goes_quiet(self):
        hub, monitor = build_faulted_federation(n_jobs=10)
        hub.sync()
        monitor.evaluate_alerts()
        assert monitor.alerts.state_of("member_stale", "site0").status == "inactive"
        hub.obs.clock.advance(2000.0)  # past the 900 s staleness budget
        monitor.evaluate_alerts()
        state = monitor.alerts.state_of("member_stale", "site0")
        assert state.status == "firing"
        assert state.value > 900.0

    def test_firing_alerts_surface_in_rest_endpoints(self):
        hub, monitor = build_faulted_federation()
        run_cycles(hub, monitor)
        api = XdmodApi({}, {}, obs=hub.obs, monitor=monitor)

        status, payload, _ = get_json(api, "/alerts")
        assert status == 200
        assert payload["firing"] >= 2
        firing = {
            a["rule"] for a in payload["alerts"] if a["status"] == "firing"
        }
        assert {"sync_failure_burn_rate", "replication_lag_high"} <= firing

        status, health, _ = get_json(api, "/health")
        assert status == 200
        assert health["status"] == "degraded"
        assert "sync_failure_burn_rate" in {
            a["rule"] for a in health["alerts_firing"]
        }

    def test_alerts_endpoint_404_without_monitor(self):
        api = XdmodApi({}, {})
        status, payload, _ = get_json(api, "/alerts")
        assert status == 404
        assert "monitor" in payload["error"]

    def test_monitor_render_shows_history_and_alerts(self):
        hub, monitor = build_faulted_federation()
        run_cycles(hub, monitor)
        text = monitor.render()
        assert "history (oldest -> newest):" in text
        assert "lag " in text
        assert "alerts: 2 firing" in text
        assert "sync_failure_burn_rate[site0]" in text


# -- sparklines ---------------------------------------------------------------


class TestSparkline:
    def test_empty_and_flat(self):
        assert render_sparkline([]) == ""
        assert render_sparkline([0.0, 0.0, 0.0]) == "   "

    def test_scales_to_max(self):
        spark = render_sparkline([0.0, 5.0, 10.0])
        assert len(spark) == 3
        assert spark[0] == " " and spark[-1] == "@"
        assert spark.isascii()

    def test_downsamples_to_width(self):
        spark = render_sparkline([float(v) for v in range(100)], width=16)
        assert len(spark) == 16
        assert spark[-1] == "@"


# -- CLI ----------------------------------------------------------------------


class TestObsPlaneCli:
    def test_trace_missing_file_is_operator_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "trace", "--trace-file", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_alerts_clean_federation_exits_zero(self, capsys):
        assert main(["obs", "alerts"]) == 0
        captured = capsys.readouterr()
        assert "0 firing" in captured.out
        assert captured.err == ""

    def test_alerts_exit_nonzero_when_firing(self, capsys):
        assert main(["obs", "alerts", "--inject-faults"]) == 1
        captured = capsys.readouterr()
        assert "sync_failure_burn_rate" in captured.out
        assert "firing" in captured.err

    def test_federated_trace_renders_cross_instance_trees(self, capsys):
        assert main(["obs", "trace", "--federated"]) == 0
        out = capsys.readouterr().out
        assert "across 2 instances)" in out
        assert "<= hub_apply" in out
        assert "<= loose_load" in out
