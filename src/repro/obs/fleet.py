"""Federated telemetry: member registries scraped into a fleet TSDB.

The paper's premise is that a hub monitors affiliated resources it does
not operate — yet each instance's
:class:`~repro.obs.metrics.MetricsRegistry` is local to it.  The hub
closes that gap the way the Open Science Data Federation does in
production (per-site collectors scraped into one central monitoring
stack): after every healthy sync turn it scrapes the member's registry
into one :class:`FleetTSDB`.

A scrape (:meth:`FleetTSDB.scrape`) reads the hub clock once, walks the
registry's exposition samples (pinned byte-compatible with a strict
render/parse round trip, so the fleet holds exactly what a Prometheus
scrape would see, histogram buckets included) and merges them into an
internal :class:`~repro.obs.history.MetricsHistory` under an added
``member`` label.  The history's PromQL-flavoured vocabulary (``last``,
``increase``, ``rate``, ``quantile_over_time``) then works unchanged
over the merged fleet.  Counter resets between scrapes (a member
restarting) are handled by the history's reset-aware ``increase()``.

Staleness: every scrape also appends the synthetic :data:`SEQ_SERIES`
sample, whose value is the member's scrape number.  Its last sample is
the only record of when the member was last scraped — ``age_s`` over it
is the signal behind the ``fleet_telemetry_stale`` alert rule and
``fleet_stale_members`` in ``GET /health``.  A member the hub cannot
reach is not scraped, so its series go stale exactly when its data does.

The ``member`` label is reserved: a scraped sample that already carries
one (a regional hub exposing its own fleet, say) is re-labelled with the
scraped member's name.
"""

from __future__ import annotations

from ..analysis.sanitizer import create_lock
from .clock import Clock
from .history import MetricsHistory, SeriesKey
from .metrics import MetricsRegistry, _fmt, _render_labels

__all__ = ["SEQ_SERIES", "FleetTSDB"]

#: Synthetic per-member series appended on every scrape (value = scrape
#: number).  Its ``age_s`` is the fleet staleness signal.
SEQ_SERIES = "fleet_shipment_seq_rows"


def _seq_key(member: str) -> SeriesKey:
    return (SEQ_SERIES, (("member", member),))


class FleetTSDB:
    """Hub-side TSDB over every member's shipped telemetry.

    Samples live in an internal :class:`MetricsHistory` (exposed as
    ``.history``) keyed by the scraped series plus a ``member`` label, so
    the full history query vocabulary works over the merged fleet; the
    fleet-scoped alert rules and the fleet dashboard query it directly.

    Per member the TSDB keeps the set of series keys it ever scraped, so
    per-member series counts stay O(1) — the hub records them as gauges
    on every sync cycle, and a scan of the whole fleet history there
    would make the cycle quadratic in fleet size.
    """

    def __init__(self, clock: Clock, *, enabled: bool = True) -> None:
        self._clock = clock
        self.enabled = enabled
        self.history = MetricsHistory(MetricsRegistry(enabled=False), clock)
        self._series: dict[str, set[SeriesKey]] = {}
        self._types: dict[str, str] = {SEQ_SERIES: "gauge"}
        self._lock = create_lock("FleetTSDB")  # guards: _series, _types

    # -- scrape ------------------------------------------------------------

    def scrape(self, member: str, registry: MetricsRegistry) -> int:
        """Merge ``registry``'s current samples under ``member``.

        Returns the member's scrape number (1 for its first scrape), or
        0 when the fleet is disabled.
        """
        if not self.enabled:
            return 0
        # read the registry before taking our lock: its own lock must
        # never nest inside this one
        samples = list(registry.iter_exposition_samples())
        types = registry.type_names()
        with self._lock:
            t = float(self._clock.now())
            seq = (self.last_seq(member) or 0) + 1
            keys = self._series.setdefault(member, set())
            for name, type_name in types.items():
                self._types.setdefault(name, type_name)
            observe_key = self.history.observe_key
            for name, labels, value in samples:
                # the member label is reserved: drop any scraped one,
                # then insert ours keeping the label items sorted
                items = [item for item in labels if item[0] != "member"]
                items.append(("member", member))
                items.sort()
                key = (name, tuple(items))
                observe_key(key, value, now=t)
                keys.add(key)
            seq_key = _seq_key(member)
            observe_key(seq_key, float(seq), now=t)
            keys.add(seq_key)
        return seq

    # -- queries -----------------------------------------------------------

    def member_names(self) -> list[str]:
        return sorted(self._series)

    def last_seq(self, name: str) -> int | None:
        """The member's last scrape number (None before its first)."""
        latest = self.history.last_sample(_seq_key(name))
        return int(latest[1]) if latest is not None else None

    def staleness(self, name: str, *, at: float | None = None) -> float | None:
        """Seconds since the member was last scraped.

        O(1): the age of the newest :data:`SEQ_SERIES` sample — equal by
        construction to ``history.age_s`` over that series, which the
        fleet alert rules evaluate, but cheap enough to record as a
        per-member gauge on every sync cycle.
        """
        latest = self.history.last_sample(_seq_key(name))
        if latest is None:
            return None
        return float(self._clock.now() if at is None else at) - latest[0]

    def stale_members(
        self, max_age_s: float, *, at: float | None = None
    ) -> list[str]:
        """Members last scraped more than ``max_age_s`` ago."""
        now = float(self._clock.now() if at is None else at)
        out = []
        for name in self.member_names():
            age = self.staleness(name, at=now)
            if age is not None and age > max_age_s:
                out.append(name)
        return out

    def series_count(self, name: str | None = None) -> int:
        """Stored series, fleet-wide or for one member (O(1) per member)."""
        if name is None:
            return len(self.history.series_keys())
        return len(self._series.get(name, ()))

    def purge_member(self, name: str) -> int:
        """Forget a departed member: its key set and every stored series."""
        with self._lock:
            self._series.pop(name, None)
        return self.history.purge_labels(member=name)

    # -- exposition --------------------------------------------------------

    def _family_of(self, sample_name: str) -> str:
        if sample_name in self._types:
            return sample_name
        for suffix in ("_bucket", "_count", "_sum"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if self._types.get(base) == "histogram":
                    return base
        return sample_name

    def render_prometheus(self) -> str:
        """Merged fleet exposition: newest value of every member series.

        Served by ``GET /fleet/metrics``.  Types come from the scraped
        registries' ``# TYPE`` maps (first scrape wins); output order is
        deterministic (family name, then sample name and labels).
        """
        families: dict[str, list[tuple[str, tuple, float]]] = {}
        for key in self.history.series_keys():
            latest = self.history.last_sample(key)
            if latest is None:
                continue
            sample_name, labels = key
            families.setdefault(self._family_of(sample_name), []).append(
                (sample_name, labels, latest[1])
            )
        lines: list[str] = []
        for family in sorted(families):
            type_name = self._types.get(family, "untyped")
            lines.append(f"# TYPE {family} {type_name}")
            for sample_name, labels, value in sorted(
                families[family], key=lambda s: (s[0], s[1])
            ):
                lines.append(
                    f"{sample_name}{_render_labels(dict(labels))} {_fmt(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
