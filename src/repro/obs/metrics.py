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

One walk, ``_Family.samples``, turns children into exposition samples
(the only place a histogram becomes ``_bucket``/``_sum``/``_count``);
the exposition, ``iter_exposition_samples`` and the metrics history all
read it, and one writer prints this registry and the fleet history.

Family/child creation is lock-protected; value updates rely on the GIL
(a lost increment under a racing live-replicator thread is acceptable
telemetry error, corruption is not possible).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping

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


#: ``((label, value), ...)`` of one exposition sample
Labels = tuple[tuple[str, str], ...]


def _write_exposition(
    families: Iterable[tuple[str, str | None, str, Iterable[tuple[str, Labels, float]]]],
) -> str:
    """Prometheus text exposition of ``(family, help, type, samples)``
    groups: a ``# HELP`` line unless ``help`` is None, a ``# TYPE`` line,
    then one line per sample, its labels in the order given."""
    lines: list[str] = []
    for family, help_text, type_name, samples in families:
        if help_text is not None:
            lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {type_name}")
        for name, labels, value in samples:
            if labels:
                text = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
                name = f"{name}{{{text}}}"
            lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


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
    __slots__ = ("buckets", "les", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...], les: tuple[str, ...]) -> None:
        self.buckets = buckets
        #: each bucket's ``le`` label value, ``+Inf`` last
        self.les = les
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

    def _key(self, labelvalues: Mapping[str, object]) -> tuple[str, ...] | None:
        """The child key of a full label set (None for any other set)."""
        if labelvalues.keys() != set(self.labelnames):
            return None
        return tuple(str(labelvalues[n]) for n in self.labelnames)

    def labels(self, **labelvalues: str):
        key = self._key(labelvalues)
        if key is None:
            raise MetricError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._child_factory())
        return child

    def get(self, labelvalues: Mapping[str, object]):
        """The child :meth:`labels` returns; None where it would create one."""
        key = self._key(labelvalues)
        return None if key is None else self._children.get(key)

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

    def samples(self, *, buckets: bool = True) -> Iterator[tuple[str, Labels, float]]:
        """The walk: ``(sample name, label items, value)`` per exposition
        sample, children in label-value order, each child's label items
        sorted by name.  A histogram child yields its cumulative
        ``_bucket`` samples (``le`` appended last, ``+Inf`` included) —
        unless ``buckets`` is false, which builds none — then ``_sum``
        and ``_count``."""
        name, names = self.name, self.labelnames
        order = sorted(range(len(names)), key=names.__getitem__)
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            labels = tuple([(names[i], key[i]) for i in order])
            if isinstance(child, _Histogram):
                if buckets:
                    cumulative = 0
                    for le, n in zip(child.les, child.counts):
                        cumulative += n
                        yield name + "_bucket", labels + (("le", le),), float(cumulative)
                yield name + "_sum", labels, float(child.sum)
                yield name + "_count", labels, float(child.count)
            else:
                yield name, labels, float(child.value)  # type: ignore[attr-defined]


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
        les = tuple(map(_fmt, bounds)) + ("+Inf",)
        return self._family(
            name, help_text, labelnames, "histogram", lambda: _Histogram(bounds, les)
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

    def _child(self, name: str, labels: Mapping[str, str]):
        family = self._families.get(name)
        return None if family is None else family.get(labels)

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge child (0.0 when absent)."""
        child = self._child(name, labels)
        return child.value if isinstance(child, (_Counter, _Gauge)) else 0.0

    def histogram_stats(self, name: str, **labels: str) -> tuple[int, float]:
        """``(count, sum)`` of a histogram child ((0, 0.0) when absent)."""
        child = self._child(name, labels)
        return (child.count, child.sum) if isinstance(child, _Histogram) else (0, 0.0)

    def _sorted_families(self) -> list[_Family]:
        """Every family, in name order: the order of every walk."""
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def iter_exposition_samples(self) -> Iterator[tuple[str, Labels, float]]:
        """Every family's samples (:meth:`_Family.samples`) with sorted
        label items: exactly the samples :func:`parse_prometheus_text`
        recovers from :meth:`render_prometheus`."""
        for family in self._sorted_families():
            for name, labels, value in family.samples():
                yield name, tuple(sorted(labels)), value

    # -- exposition ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        return _write_exposition(
            (f.name, f.help, f.type_name, f.samples()) for f in self._sorted_families()
        )

    def snapshot(self) -> dict:
        """JSON-friendly dump of every family and child."""
        out: dict = {}
        for family in self._sorted_families():
            names = family.labelnames
            with family._lock:
                children = sorted(family._children.items())
            values = []
            for key, child in children:
                labels = dict(zip(names, key))
                if isinstance(child, _Histogram):
                    values.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": dict(zip(child.les[:-1], child.counts)),
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
    for raw in text.split("\n"):  # not splitlines(): a label value may hold \r
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
        key = (name, labels)
        if key in samples:
            raise MetricError(f"duplicate sample {key!r}")
        samples[key] = float(value_text)  # also spells +Inf, -Inf and NaN
    return ParsedExposition(types, helps, samples)
