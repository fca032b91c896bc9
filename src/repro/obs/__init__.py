"""Federation-wide telemetry: metrics registry, span tracing, clocks.

One :class:`Observability` bundle travels with each
:class:`~repro.core.federation.XdmodInstance` — the registry collects
labelled counters/gauges/histograms, the tracer collects nested spans,
and the shared injectable clock keeps ``repro/core/`` free of wall-clock
reads (see :mod:`repro.obs.clock`).  ``GET /metrics`` on the REST server
renders the registry in Prometheus text format; ``xdmod-repro obs``
dumps the same data from the CLI.
"""

from __future__ import annotations

from .alerts import (
    DEFAULT_ALERT_RULES,
    GLOBAL_SCOPE,
    AlertEngine,
    AlertRule,
    AlertState,
    alert_rule,
)
from .anomaly import Anomaly, AnomalyDetector, JobScore
from .clock import Clock, FakeClock, MonotonicClock
from .history import DEFAULT_RETENTION, MetricsHistory
from .metrics import (
    DEFAULT_BUCKETS,
    METRIC_NAME_PATTERN,
    METRIC_NAME_RE,
    PROMETHEUS_CONTENT_TYPE,
    MetricError,
    MetricsRegistry,
    ParsedExposition,
    parse_prometheus_text,
)
from .propagation import FederatedTraceAssembler, TraceContext
from .trace import SpanRecord, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RETENTION",
    "METRIC_NAME_PATTERN",
    "METRIC_NAME_RE",
    "PROMETHEUS_CONTENT_TYPE",
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "Anomaly",
    "AnomalyDetector",
    "Clock",
    "DEFAULT_ALERT_RULES",
    "FakeClock",
    "FederatedTraceAssembler",
    "GLOBAL_SCOPE",
    "JobScore",
    "MetricError",
    "MetricsHistory",
    "MetricsRegistry",
    "MonotonicClock",
    "Observability",
    "ParsedExposition",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "alert_rule",
    "parse_prometheus_text",
]


class Observability:
    """Registry + tracer + clock, wired together.

    Pass ``Observability(clock=FakeClock(...))`` in tests for
    deterministic timings; ``Observability.disabled()`` keeps every
    instrumented call site live but makes each update a no-op (the
    baseline configuration in ``bench_a11_obs_overhead``).
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        enabled: bool = True,
        max_spans: int = 10000,
        name: str = "",
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(
            self.clock, enabled=enabled, max_spans=max_spans, name=name
        )
        self.history = MetricsHistory(
            self.registry, self.clock, enabled=enabled
        )
        self.tracer.bind_metrics(self.registry)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    @classmethod
    def default(cls) -> "Observability":
        """Enabled, monotonic wall clock — production wiring."""
        return cls()

    @classmethod
    def disabled(cls) -> "Observability":
        """Instrumentation resolves to no-ops; the baseline bundle."""
        return cls(enabled=False)
