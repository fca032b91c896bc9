"""Metrics history: a ring-buffer mini-TSDB over the metrics registry.

``GET /metrics`` exposes the registry's *current* values; alerting on
replication-lag growth or sync-failure burn rates needs the values *over
time*.  :class:`MetricsHistory` snapshots every counter/gauge (and each
histogram's ``_count``/``_sum``) whenever the federation hub completes a
sync cycle or the REST exporter is scraped, and answers the small query
vocabulary the SLO engine and the monitor sparklines need: ``last()``,
``age_s()``, ``delta()``, ``increase()``, ``rate()`` and
``quantile_over_time()``, all with partial label matching (querying
``federation_member_syncs_total`` with only ``member=...`` sums over the
``status`` children).

Retention reuses the aggregation-level machinery from
:mod:`repro.aggregation.levels`: a retention ladder is an
:class:`~repro.aggregation.levels.AggregationLevelSet` over *sample age*
in seconds.  The first tier (``lo == 0``) keeps raw samples; each older
tier keeps one sample per ``lo`` seconds of history; samples older than
the ladder's span are dropped.  Downsampling keeps the *newest* sample in
each bucket, so the compaction is deterministic under a
:class:`~repro.obs.clock.FakeClock` and history-backed renders stay
byte-identical across runs.

Both ``record`` and ``scrape`` read the registry's one sample walk
(``record`` skips the histogram buckets) into one index: sample name ->
label items -> series.  The federation hub's fleet TSDB
(``FederationHub.fleet``) is a history too, with no registry of its own:
:meth:`MetricsHistory.scrape` merges a member registry's full exposition
into it under a ``member`` label, noting each sample's family for the
fleet's ``render_prometheus``, after every healthy sync turn, so the
same vocabulary answers fleet queries.
"""

from __future__ import annotations

from typing import Mapping

from ..aggregation.levels import AggregationLevel, AggregationLevelSet
from ..analysis.sanitizer import create_lock
from .clock import Clock
from .metrics import Labels, MetricsRegistry, _write_exposition

__all__ = ["DEFAULT_RETENTION", "MetricsHistory", "SEQ_SERIES", "SeriesKey"]

#: ``(sample_name, sorted ((label, value), ...))`` — one stored series.
SeriesKey = tuple[str, Labels]

#: Synthetic per-member series every :meth:`MetricsHistory.scrape`
#: appends (value = the member's scrape number).  Its ``age_s`` is the
#: fleet staleness signal the ``fleet_telemetry_stale`` rule judges.
SEQ_SERIES = "fleet_shipment_seq_rows"

#: Default retention ladder: 5 minutes raw, one sample per minute out to
#: an hour, one per 10 minutes out to a day.  Ages are in seconds.
DEFAULT_RETENTION = AggregationLevelSet(
    name="history_retention",
    field="age_s",
    unit="seconds",
    levels=(
        AggregationLevel("raw", 0.0, 300.0),
        AggregationLevel("per-minute", 300.0, 3600.0),
        AggregationLevel("per-10-minute", 3600.0, 86400.0),
    ),
)


class _Series:
    """Samples for one ``(name, labels)`` child, oldest first, and the
    exposition family of a scraped one (None: the sample's own name)."""

    __slots__ = ("samples", "last_changed", "family")

    def __init__(self, family: str | None = None) -> None:
        self.samples: list[tuple[float, float]] = []
        self.last_changed: float = 0.0
        self.family = family

    def append(self, t: float, value: float, *, snapshot: bool = False) -> None:
        """Add a sample, unless it is a ``snapshot`` (a re-read of state)
        repeating the newest sample's reading and value."""
        if self.samples:
            last_t, last_v = self.samples[-1]
            if value == last_v:
                if snapshot and t == last_t:
                    return
            else:
                self.last_changed = t
        else:
            self.last_changed = t
        self.samples.append((t, value))

    def last(self) -> tuple[float, float] | None:
        return self.samples[-1] if self.samples else None


class MetricsHistory:
    """Ring-buffer history of registry samples with downsampling tiers.

    Parameters
    ----------
    registry:
        The registry to snapshot; :meth:`record` walks every child.
    clock:
        Time source for sample timestamps and query anchors — the same
        injectable clock the tracer uses, so histories built under
        :class:`~repro.obs.clock.FakeClock` are fully deterministic.
    retention:
        Age-tier ladder (see module docstring).  The first tier must
        start at age 0.
    max_samples:
        Hard per-series cap; a series pushed past it is compacted and,
        if still over, trimmed oldest-first.  A backstop against clocks
        that never move (every FakeClock read may return the same time).
    enabled:
        When False, :meth:`record` is a no-op.  The a12 benchmark's
        baseline arm disables history on an otherwise identical hub.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Clock,
        *,
        retention: AggregationLevelSet = DEFAULT_RETENTION,
        max_samples: int = 1024,
        enabled: bool = True,
    ) -> None:
        lo, _ = retention.span()
        if lo != 0.0:
            raise ValueError("retention ladder must start at age 0 (raw tier)")
        self._registry = registry
        self._clock = clock
        self.retention = retention
        #: upper age bound of the raw tier (the tier starting at age 0)
        self._raw_s = next(l.hi for l in retention.levels if l.lo == 0.0)
        self.max_samples = max_samples
        self.enabled = enabled
        #: sample name -> label items -> series: a query reads its own
        #: name's series only, not the whole store
        self._series: dict[str, dict[Labels, _Series]] = {}
        self._records = 0
        #: family name -> ``# TYPE`` of every scraped family (first wins)
        self._types: dict[str, str] = {}
        self._lock = create_lock("MetricsHistory")  # guards: _types

    @property
    def clock(self) -> Clock:
        return self._clock

    # -- recording ---------------------------------------------------------

    def record(self, *, now: float | None = None) -> int:
        """Snapshot the registry walk's samples, histogram buckets aside;
        returns series touched.

        Called by :meth:`FederationHub.sync`, :meth:`FederationHub.ship_loose`
        and the ``/metrics`` scrape handler; safe to call from anywhere
        else (an extra sample is just an extra sample).
        """
        if not self.enabled:
            return 0
        t = self._now(now)
        n = 0
        for family in self._registry._sorted_families():
            for name, labels, value in family.samples(buckets=False):
                self._put((name, labels), t, value, snapshot=True)
                n += 1
        self._records += 1
        if self._records % 16 == 0:
            self.compact(now=t)
        return n

    def observe(self, name: str, value: float, *, now: float | None = None, **labels: str) -> None:
        """Append one sample to an explicit series (no registry child).

        For event-shaped data — one sample per job, per request, per
        document — that has no natural counter/gauge in the registry but
        should still be queryable with the history's window vocabulary
        (the analytics stage records one efficiency score per job this
        way).  Every observation is kept, several at one clock reading
        too: only snapshots (:meth:`record`, :meth:`scrape`) collapse.
        """
        if not self.enabled:
            return
        key: SeriesKey = (
            name, tuple(sorted((k, str(v)) for k, v in labels.items()))
        )
        self.observe_key(key, value, now=now)

    def observe_key(
        self, key: SeriesKey, value: float, *, now: float | None = None
    ) -> None:
        """:meth:`observe` with a prebuilt series key, whose label items
        the caller guarantees are ``(name, value)`` string pairs in
        sorted order."""
        if not self.enabled:
            return
        self._put(key, self._now(now), float(value))

    def scrape(self, member: str, registry: MetricsRegistry) -> int:
        """Merge ``registry``'s exposition samples (histogram buckets
        included) under a ``member`` label, plus one :data:`SEQ_SERIES`
        sample, all at one clock reading.  A scraped ``member`` label that
        names another member (a member hub's own) is kept as
        ``exported_member``, as Prometheus keeps a label that collides with
        a target label.  Returns the series written (0 when disabled)."""
        if not self.enabled:
            return 0
        # read the registry before taking our lock: its own lock must
        # never nest inside this one
        walked = [(family, list(family.samples())) for family in registry._sorted_families()]
        seq_key: SeriesKey = (SEQ_SERIES, (("member", member),))
        n = 1
        with self._lock:
            t = float(self._clock.now())
            latest = self.last_sample(seq_key)
            self._types.setdefault(SEQ_SERIES, "gauge")
            put = self._put
            for family, samples in walked:
                self._types.setdefault(family.name, family.type_name)
                for name, labels, value in samples:
                    items = [
                        ("exported_member", v) if k == "member" else (k, v)
                        for k, v in labels
                        if k != "member" or v != member
                    ]
                    items.append(("member", member))
                    items.sort()
                    put((name, tuple(items)), t, value, snapshot=True, family=family.name)
                n += len(samples)
            put(seq_key, t, (latest[1] if latest else 0.0) + 1.0, snapshot=True)
        return n

    def _put(
        self, key: SeriesKey, t: float, value: float, *,
        snapshot: bool = False, family: str | None = None,
    ) -> None:
        by_labels = self._series.get(key[0])
        if by_labels is None:
            by_labels = self._series[key[0]] = {}
        series = by_labels.get(key[1])
        if series is None:
            series = by_labels[key[1]] = _Series(family)
        series.append(t, value, snapshot=snapshot)
        if len(series.samples) > self.max_samples:
            self._cap(series, t)

    def _cap(self, series: _Series, now: float) -> None:
        """Bring a series over ``max_samples`` back to it: compact, then
        trim oldest-first.  While the oldest sample is still in the raw
        tier the compaction would keep every sample, so it is skipped —
        otherwise a full series pays an O(``max_samples``) pass on every
        append."""
        if not 0.0 <= now - series.samples[0][0] < self._raw_s:
            self._compact_series(series, now)
        del series.samples[: max(0, len(series.samples) - self.max_samples)]

    def compact(self, *, now: float | None = None) -> None:
        """Apply the retention ladder to every series."""
        t = self._now(now)
        for by_labels in self._series.values():
            for series in by_labels.values():
                self._compact_series(series, t)

    def _compact_series(self, series: _Series, now: float) -> None:
        _, horizon = self.retention.span()
        raw_s = self._raw_s
        # a tier's bucket width is its ``lo`` (0 == keep raw)
        tiers = {l.label: l.lo for l in self.retention.levels}
        kept: list[tuple[float, float]] = []
        seen: set[tuple[str, int]] = set()
        for t, v in reversed(series.samples):  # newest first: keep newest per bucket
            age = now - t
            if 0.0 <= age < raw_s:  # the raw tier keeps every sample
                kept.append((t, v))
                continue
            if age >= horizon:
                break
            label = self.retention.level_of(age)
            if label == self.retention.OUTSIDE:
                continue
            width = tiers[label]
            if width <= 0:
                kept.append((t, v))
                continue
            bucket = (label, int(t // width))
            if bucket in seen:
                continue
            seen.add(bucket)
            kept.append((t, v))
        kept.reverse()
        series.samples = kept

    # -- lookup ------------------------------------------------------------

    def _now(self, at: float | None) -> float:
        return float(self._clock.now() if at is None else at)

    def _matches(self, name: str, labels: Mapping[str, str]) -> list[_Series]:
        """Series for ``name`` whose labels are a superset of ``labels``."""
        want = {(k, str(v)) for k, v in labels.items()}
        return [
            series
            for skey, series in sorted(self._series.get(name, {}).items())
            if want <= set(skey)
        ]

    def series_keys(self, name: str | None = None) -> list[SeriesKey]:
        names = sorted(self._series) if name is None else [name]
        return [(n, skey) for n in names for skey in sorted(self._series.get(n, ()))]

    def label_values(self, name: str, label: str) -> list[str]:
        """Sorted distinct values of ``label`` across ``name``'s series
        (the fleet's members: ``label_values(SEQ_SERIES, "member")``)."""
        return sorted({
            value for skey in self._series.get(name, ()) for key, value in skey if key == label
        })

    def last_sample(self, key: SeriesKey) -> tuple[float, float] | None:
        """Newest ``(t, value)`` of one exact series (None when absent).

        Unlike :meth:`last`, no partial-label pooling: the key must match
        a stored series exactly (as returned by :meth:`series_keys`).
        """
        series = self._series.get(key[0], {}).get(key[1])
        return series.last() if series is not None else None

    def purge_labels(self, **labels: str) -> int:
        """Drop every series whose labels are a superset of ``labels``.

        The history-side counterpart of registry ``remove_labels``: when
        a federation member leaves, its stored series would otherwise
        keep matching partial-label queries forever — a phantom member
        inflating ``quantile_over_time`` pools and ``last()`` sums.
        Returns the number of series dropped; at least one label is
        required (an empty filter would silently drop everything).
        """
        if not labels:
            raise ValueError("purge_labels() requires at least one label")
        want = {(k, str(v)) for k, v in labels.items()}
        dropped = 0
        for name, by_labels in list(self._series.items()):
            for skey in [skey for skey in by_labels if want <= set(skey)]:
                del by_labels[skey]
                dropped += 1
            if not by_labels:
                del self._series[name]
        return dropped

    def samples(self, name: str, **labels: str) -> list[tuple[float, float]]:
        """All stored ``(t, value)`` samples of the matching series.

        With partial labels, samples from every matching child are pooled
        and sorted by time (sparklines over an exact child pass the full
        label set and get that one series back untouched).
        """
        out: list[tuple[float, float]] = []
        for series in self._matches(name, labels):
            out.extend(series.samples)
        out.sort()
        return out

    def last(self, name: str, **labels: str) -> float | None:
        """Sum of the latest values across matching series; None if none."""
        found = False
        total = 0.0
        for series in self._matches(name, labels):
            latest = series.last()
            if latest is not None:
                found = True
                total += latest[1]
        return total if found else None

    def age_s(self, name: str, *, at: float | None = None, **labels: str) -> float | None:
        """Seconds since any matching series last *changed* value.

        The absence/staleness signal: a member whose lag gauge keeps
        getting re-set to the same value is still being synced; one whose
        series never changes (or never appears) has gone quiet.
        """
        changed = [
            s.last_changed for s in self._matches(name, labels) if s.samples
        ]
        if not changed:
            return None
        return self._now(at) - max(changed)

    # -- range queries -----------------------------------------------------

    def _window(
        self, series: _Series, window_s: float, at: float | None
    ) -> tuple[list[tuple[float, float]], tuple[float, float] | None]:
        """``(samples inside the window, newest sample at/before it)``."""
        t0 = self._now(at) - window_s
        inside: list[tuple[float, float]] = []
        before: tuple[float, float] | None = None
        for t, v in series.samples:
            if t < t0:
                before = (t, v)
            else:
                inside.append((t, v))
        return inside, before

    def delta(
        self, name: str, window_s: float, *, at: float | None = None, **labels: str
    ) -> float:
        """Signed change over the window, summed across matching series.

        Gauge semantics: last value minus the value at the window start
        (the newest sample at or before it, falling back to the first
        in-window sample).
        """
        total = 0.0
        for series in self._matches(name, labels):
            inside, before = self._window(series, window_s, at)
            if not inside:
                continue
            baseline = before[1] if before is not None else inside[0][1]
            total += inside[-1][1] - baseline
        return total

    def increase(
        self, name: str, window_s: float, *, at: float | None = None, **labels: str
    ) -> float | None:
        """Counter-reset-aware increase over the window, summed across
        matching series: negative steps are treated as the counter having
        restarted from zero, matching PromQL ``increase()``.

        Returns None when no matching series holds a computable step —
        no samples, or only a single sample with nothing before the
        window to difference against.  "No data" and "no growth" are
        different answers, and the alert engine treats them differently.
        """
        total = 0.0
        computed = False
        for series in self._matches(name, labels):
            inside, before = self._window(series, window_s, at)
            prev = before[1] if before is not None else None
            for _, v in inside:
                if prev is not None:
                    step = v - prev
                    total += step if step >= 0 else v
                    computed = True
                prev = v
        return total if computed else None

    def rate(
        self, name: str, window_s: float, *, at: float | None = None, **labels: str
    ) -> float | None:
        """Per-second :meth:`increase` over the window (None = no data)."""
        if window_s <= 0:
            raise ValueError("rate() needs a positive window")
        increase = self.increase(name, window_s, at=at, **labels)
        return None if increase is None else increase / window_s

    def quantile_over_time(
        self,
        q: float,
        name: str,
        window_s: float,
        *,
        at: float | None = None,
        **labels: str,
    ) -> float | None:
        """Quantile of all in-window values pooled across matching series
        (linear interpolation); None when the window holds no samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        values: list[float] = []
        for series in self._matches(name, labels):
            inside, _ = self._window(series, window_s, at)
            values.extend(v for _, v in inside)
        if not values:
            return None
        values.sort()
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)

    # -- exposition --------------------------------------------------------

    def render_prometheus(self) -> str:
        """Newest value of every series as Prometheus text (``GET
        /fleet/metrics``), typed by the scraped ``# TYPE`` maps, in a
        deterministic order: family, then sample name and labels."""
        families: dict[str, list[tuple[str, Labels, float]]] = {}
        for name, by_labels in self._series.items():
            for labels, series in by_labels.items():
                latest = series.last()
                if latest is not None:
                    families.setdefault(series.family or name, []).append(
                        (name, labels, latest[1])
                    )
        return _write_exposition(
            (family, None, self._types.get(family, "untyped"), sorted(families[family]))
            for family in sorted(families)
        )
