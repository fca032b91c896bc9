"""In-process metrics registry with Prometheus text exposition.

Counters, gauges, and fixed-bucket histograms, all labelled.  The design
follows the pull model of the MPCDF/DCDB monitoring stacks: instrumented
code updates cheap in-memory children; an exporter (``GET /metrics``)
renders the whole registry on demand.

Conventions enforced at registration time (and statically by repolint's
``unregistered-metric-name`` rule): metric names are ``snake_case`` and
carry a unit suffix — ``_total`` (counters), ``_seconds``, ``_bytes``,
``_rows``.

Hot-path cost model: instrumented call sites resolve their labelled child
once (``registry.counter(...).labels(...)``) and keep the child; updates
are then a single attribute bump.  A registry constructed with
``enabled=False`` hands out shared no-op children, so the "bare" baseline
in ``bench_a11_obs_overhead`` runs the very same instrumented code.

Family/child creation is lock-protected; value updates rely on the GIL
(a lost increment under a racing live-replicator thread is acceptable
telemetry error, corruption is not possible).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping

from ..analysis.sanitizer import create_lock

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_NAME_PATTERN",
    "METRIC_NAME_RE",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricError",
    "MetricsRegistry",
    "ParsedExposition",
    "parse_prometheus_text",
]

#: Naming convention: snake_case plus a unit suffix.  Single source of
#: truth — the repolint rule checks literals against the same pattern.
METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*_(total|seconds|bytes|rows|ratio)$"
METRIC_NAME_RE = re.compile(METRIC_NAME_PATTERN)

#: Latency buckets (seconds) sized for in-process pipeline stages.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Exposition content type, per the Prometheus text-format spec.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricError(ValueError):
    """Invalid metric name, label set, or conflicting re-registration."""


def _fmt(value: float) -> str:
    # Prometheus spells special values +Inf/-Inf/NaN (int() would raise).
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _NoopChild:
    """Shared do-nothing child handed out by a disabled registry."""

    def labels(self, **labelvalues: str) -> "_NoopChild":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def remove(self, **labelvalues: str) -> bool:
        return False


_NOOP = _NoopChild()


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        self.value += amount


class _Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class _Family:
    """One metric name: type, help, label names, and labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        type_name: str,
        child_factory: Callable[[], object],
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.type_name = type_name
        self._child_factory = child_factory
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = create_lock(f"Family:{name}")  # guards: _children

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._child_factory())
        return child

    def remove(self, **labelvalues: str) -> bool:
        """Drop one labelled child; returns True when it existed.

        Partial label sets drop every child whose labels match the given
        subset — ``remove(member="siteA")`` on a ``(member, status)``
        family clears all of that member's children.
        """
        unknown = set(labelvalues) - set(self.labelnames)
        if unknown:
            raise MetricError(
                f"metric {self.name!r} has labels {self.labelnames}, "
                f"got unknown {tuple(sorted(unknown))}"
            )
        positions = [
            (i, str(labelvalues[n]))
            for i, n in enumerate(self.labelnames)
            if n in labelvalues
        ]
        with self._lock:
            doomed = [
                key for key in self._children
                if all(key[i] == v for i, v in positions)
            ]
            for key in doomed:
                del self._children[key]
        return bool(doomed)

    def _default_child(self):
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "call .labels(...) first"
            )
        return self.labels()

    # unlabelled convenience: family acts as its own child
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def items(self) -> list[tuple[dict[str, str], object]]:
        with self._lock:
            pairs = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in pairs
        ]


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Re-registering a name is idempotent when type and labels match and an
    error when they conflict, so call sites may resolve their family
    inline without central declarations.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = create_lock("MetricsRegistry")  # guards: _families

    # -- registration ----------------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        type_name: str,
        child_factory: Callable[[], object],
    ):
        if not METRIC_NAME_RE.match(name):
            raise MetricError(
                f"metric name {name!r} violates the naming convention "
                f"{METRIC_NAME_PATTERN!r} (snake_case + unit suffix)"
            )
        if not self.enabled:
            return _NOOP
        names = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, names, type_name, child_factory)
                self._families[name] = family
                return family
        if family.type_name != type_name or family.labelnames != names:
            raise MetricError(
                f"metric {name!r} already registered as {family.type_name} "
                f"with labels {family.labelnames}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help_text, labelnames, "counter", _Counter)

    def gauge(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help_text, labelnames, "gauge", _Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        return self._family(
            name, help_text, labelnames, "histogram", lambda: _Histogram(bounds)
        )

    def purge_labels(self, **labels: str) -> int:
        """Drop every child, of every family, whose labels include
        ``labels``: the reverse of ``.labels(...)`` for a label set that
        stops being meaningful — a federation member that left, a
        serving cache that was torn down — which ``/metrics`` would
        otherwise report forever at its last value.  The registry-side
        counterpart of :meth:`~repro.obs.history.MetricsHistory.purge_labels`.
        Returns the number of families that lost a child; at least one
        label is required (an empty filter would drop everything)."""
        if not labels:
            raise ValueError("purge_labels() requires at least one label")
        with self._lock:
            families = [
                f for f in self._families.values() if labels.keys() <= set(f.labelnames)
            ]
        return sum(family.remove(**labels) for family in families)

    # -- queries ---------------------------------------------------------------

    def _find_child(self, name: str, labels: Mapping[str, str]):
        family = self._families.get(name)
        if family is None:
            return None
        for child_labels, child in family.items():
            if child_labels == {k: str(v) for k, v in labels.items()}:
                return child
        return None

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge child (0.0 when absent)."""
        child = self._find_child(name, labels)
        if child is None or not isinstance(child, (_Counter, _Gauge)):
            return 0.0
        return child.value

    def histogram_stats(self, name: str, **labels: str) -> tuple[int, float]:
        """``(count, sum)`` of a histogram child ((0, 0.0) when absent)."""
        child = self._find_child(name, labels)
        if child is None or not isinstance(child, _Histogram):
            return (0, 0.0)
        return (child.count, child.sum)

    def iter_scalar_samples(self):
        """Yield ``(sample_name, sorted label items, value)`` per child.

        Counters and gauges yield their value; a histogram yields
        synthetic ``<name>_count`` and ``<name>_sum`` series.  Iteration
        order is deterministic (family name, then label values) — this is
        the walk :class:`~repro.obs.history.MetricsHistory` snapshots.
        """
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            for labels, child in family.items():
                key = tuple(sorted(labels.items()))
                if isinstance(child, _Histogram):
                    yield family.name + "_count", key, float(child.count)
                    yield family.name + "_sum", key, child.sum
                else:
                    yield family.name, key, float(child.value)  # type: ignore[attr-defined]

    def iter_exposition_samples(self):
        """Yield ``(sample_name, sorted label items, value)`` per sample.

        The full exposition walk — histogram ``_bucket`` (cumulative,
        ``le``-labelled, ``+Inf`` included), ``_sum`` and ``_count``
        series and all — producing exactly the samples
        :func:`parse_prometheus_text` recovers from
        :meth:`render_prometheus`, without the text round-trip.  The
        fleet TSDB's scrape walks this on every sync cycle, so it
        must stay cheap and byte-compatible with the rendered form.
        """
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            for labels, child in family.items():
                base = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
                if isinstance(child, _Histogram):
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.counts):
                        cumulative += n
                        key = tuple(sorted(base + (("le", _fmt(bound)),)))
                        yield family.name + "_bucket", key, float(cumulative)
                    cumulative += child.counts[-1]
                    key = tuple(sorted(base + (("le", "+Inf"),)))
                    yield family.name + "_bucket", key, float(cumulative)
                    yield family.name + "_sum", base, float(child.sum)
                    yield family.name + "_count", base, float(child.count)
                else:
                    yield family.name, base, float(child.value)  # type: ignore[attr-defined]

    def type_names(self) -> dict[str, str]:
        """Family name -> exposition type, in family-name order."""
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        return {family.name: family.type_name for family in families}

    # -- exposition ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type_name}")
            for labels, child in family.items():
                if isinstance(child, _Histogram):
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.counts):
                        cumulative += n
                        le = _render_labels(labels, f'le="{_fmt(bound)}"')
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    cumulative += child.counts[-1]
                    le = _render_labels(labels, 'le="+Inf"')
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                    label_str = _render_labels(labels)
                    lines.append(f"{family.name}_sum{label_str} {_fmt(child.sum)}")
                    lines.append(f"{family.name}_count{label_str} {child.count}")
                else:
                    label_str = _render_labels(labels)
                    lines.append(
                        f"{family.name}{label_str} {_fmt(child.value)}"  # type: ignore[attr-defined]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-friendly dump of every family and child."""
        out: dict = {}
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            values = []
            for labels, child in family.items():
                if isinstance(child, _Histogram):
                    values.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _fmt(b): n
                            for b, n in zip(child.buckets, child.counts)
                        },
                    })
                else:
                    values.append({"labels": labels, "value": child.value})  # type: ignore[attr-defined]
            out[family.name] = {
                "type": family.type_name,
                "help": family.help,
                "values": values,
            }
        return out


class ParsedExposition:
    """Result of :func:`parse_prometheus_text` with convenience lookups."""

    def __init__(
        self,
        types: dict[str, str],
        helps: dict[str, str],
        samples: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    ) -> None:
        self.types = types
        self.helps = helps
        self.samples = samples

    def value(self, sample_name: str, **labels: str) -> float | None:
        key = (sample_name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples.get(key)

    def sample_names(self) -> set[str]:
        return {name for name, _ in self.samples}


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise MetricError(f"unquoted label value in {text!r}")
        j = eq + 2
        value: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                j += 1
                esc = text[j]
                value.append({"\\": "\\", '"': '"', "n": "\n"}.get(esc, esc))
            else:
                value.append(ch)
            j += 1
        labels.append((name, "".join(value)))
        i = j + 1
    return tuple(sorted(labels))


def parse_prometheus_text(text: str) -> ParsedExposition:
    """Strict-enough parser of the text format, for round-trip tests."""
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            types[name] = type_name.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            label_text = line[line.index("{") + 1 : line.rindex("}")]
            labels = _parse_labels(label_text)
            value_text = line[line.rindex("}") + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        elif value_text == "NaN":
            value = float("nan")
        else:
            value = float(value_text)
        key = (name, labels)
        if key in samples:
            raise MetricError(f"duplicate sample {key!r}")
        samples[key] = value
    return ParsedExposition(types, helps, samples)
