"""Federation operations monitoring.

Operators of a federation need the hub's view of its own plumbing: which
members are connected, how far behind each channel is, how much data each
replicated schema holds, and whether the consistency invariants currently
hold.  :class:`FederationMonitor` assembles that status snapshot and
renders it as the text panel an ops dashboard (or a cron email) would show.

With the resilience layer, the snapshot also carries each member's failure
posture: circuit-breaker state, retry totals, dead-letter depth, and the
last error seen — the numbers an operator needs to decide between waiting
(transient), replaying the dead-letter queue (poison fixed), and paging
someone (member down, circuit open).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..obs import (
    DEFAULT_ALERT_RULES,
    AlertEngine,
    AlertRule,
    AlertState,
    MetricsHistory,
    Observability,
    alert_rule,
)
from ..obs.history import SEQ_SERIES
from ..ui.ascii import render_sparkline
from .consistency import check_federation
from .federation import FederationHub
from .resilience import CircuitState


@dataclass(frozen=True)
class MemberStatus:
    """One member's health snapshot.

    The rate/latency fields (``syncs``, ``sync_seconds``,
    ``events_per_second``) come from the hub's metrics registry — the
    accumulated ``replication_pump_seconds`` histogram — rather than
    point-in-time channel state, so they describe the member's lifetime
    throughput, not just the current cursor position.
    """

    name: str
    mode: str  # tight | loose
    lag_events: int
    fed_schema: str
    tables: int
    fact_job_rows: int
    events_applied: int
    events_filtered: int
    consistent: bool
    circuit_state: str = CircuitState.CLOSED.value
    retries: int = 0
    dead_letters: int = 0
    last_error: str = ""
    syncs: int = 0
    sync_seconds: float = 0.0
    events_per_second: float = 0.0

    @property
    def avg_sync_seconds(self) -> float:
        return self.sync_seconds / self.syncs if self.syncs else 0.0

    @property
    def health(self) -> str:
        """One-word operator verdict for this member."""
        if self.circuit_state == CircuitState.OPEN.value:
            return "CIRCUIT-OPEN"
        if self.dead_letters:
            return "quarantined"
        if not self.consistent:
            return "INCONSISTENT"
        if self.circuit_state == CircuitState.HALF_OPEN.value:
            return "probing"
        if self.lag_events:
            return "lagging"
        return "ok"


@dataclass(frozen=True)
class FederationStatus:
    """Whole-federation health snapshot."""

    hub: str
    members: tuple[MemberStatus, ...]
    totals: Mapping[str, float]
    all_consistent: bool

    @property
    def max_lag(self) -> int:
        return max((m.lag_events for m in self.members), default=0)

    @property
    def degraded_members(self) -> tuple[str, ...]:
        return tuple(
            m.name for m in self.members if m.health != "ok"
        )


class FederationMonitor:
    """Status collection over one hub."""

    def __init__(
        self,
        hub: FederationHub,
        *,
        obs: Observability | None = None,
        alert_rules: tuple[AlertRule, ...] = DEFAULT_ALERT_RULES,
        analytics=None,
    ) -> None:
        self.hub = hub
        self.obs = obs if obs is not None else hub.obs
        self.alerts = AlertEngine(
            self.obs.history, alert_rules, fleet=hub.fleet
        )
        # duck-typed AnalyticsPlane (repro.analytics) — kept untyped so the
        # core monitor never imports the analytics package
        self.analytics = analytics

    def evaluate_alerts(self):
        """Run the SLO rule catalog over every current member.

        Called by ``GET /alerts`` and ``GET /health``; callable from cron
        too.  Returns all known alert states (see
        :meth:`repro.obs.AlertEngine.evaluate`).
        """
        return self.alerts.evaluate([m.name for m in self.hub.members])

    def status(self) -> FederationStatus:
        lag = self.hub.lag()
        check = check_federation(self.hub)
        by_member = {m.member: m for m in check.members}
        members = []
        database = self.hub.database
        for member in self.hub.members:
            has_schema = database.has_schema(member.fed_schema)
            schema = database.schema(member.fed_schema) if has_schema else None
            stats = member.channel.stats
            member_check = by_member.get(member.name)
            consistent = bool(member_check and member_check.ok)
            syncs, sync_seconds = self.obs.registry.histogram_stats(
                "replication_pump_seconds", channel=member.name
            )
            members.append(
                MemberStatus(
                    name=member.name,
                    mode=member.mode,
                    lag_events=lag.get(member.name, 0),
                    fed_schema=member.fed_schema,
                    tables=len(schema.table_names()) if schema else 0,
                    fact_job_rows=(
                        len(schema.table("fact_job"))
                        if schema and schema.has_table("fact_job") else 0
                    ),
                    events_applied=stats.events_applied,
                    events_filtered=stats.events_filtered,
                    consistent=consistent,
                    circuit_state=member.breaker.state.value,
                    retries=stats.retries,
                    dead_letters=member.dead_letter_depth,
                    last_error=stats.last_error or member.last_error,
                    syncs=syncs,
                    sync_seconds=sync_seconds,
                    events_per_second=(
                        stats.events_applied / sync_seconds if sync_seconds > 0 else 0.0
                    ),
                )
            )
        return FederationStatus(
            hub=self.hub.name,
            members=tuple(members),
            totals=check.federation_totals(),
            all_consistent=check.ok,
        )

    def render(self) -> str:
        """Human status panel."""
        status = self.status()
        name_w = max([len("member")] + [len(m.name) for m in status.members]) + 2
        lines = [
            f"Federation hub: {status.hub}",
            "=" * (17 + len(status.hub)),
            f"{'member':<{name_w}}{'mode':<7}{'lag':>6}{'jobs':>9}"
            f"{'applied':>9}{'filtered':>9}{'retries':>9}{'dlq':>5}  state",
        ]
        for member in status.members:
            lines.append(
                f"{member.name:<{name_w}}{member.mode:<7}{member.lag_events:>6}"
                f"{member.fact_job_rows:>9}{member.events_applied:>9}"
                f"{member.events_filtered:>9}{member.retries:>9}"
                f"{member.dead_letters:>5}  {member.health}"
            )
            if member.last_error:
                lines.append(f"{'':<{name_w}}  last error: {member.last_error}")
        totals = status.totals
        lines.append(
            f"federation totals: {totals.get('n_jobs', 0):,.0f} jobs, "
            f"{totals.get('cpu_hours', 0):,.0f} CPU hours, "
            f"{totals.get('xdsu', 0):,.0f} XD SUs"
        )
        lines.append(
            "consistency: " + ("OK" if status.all_consistent else "VIOLATED")
        )
        rated = [m for m in status.members if m.syncs]
        if rated:
            lines.append(
                "replication rates: " + ", ".join(
                    f"{m.name}={m.events_per_second:,.0f} ev/s "
                    f"(avg pump {m.avg_sync_seconds * 1000:.2f} ms "
                    f"over {m.syncs} pumps)"
                    for m in rated
                )
            )
        history = self.obs.history
        if history.enabled:
            rows = []
            for member in status.members:
                lag = _values(history, "replication_lag_rows", member.name)
                if lag:
                    rows.append((member.name, "lag", lag))
                dlq = _values(history, "federation_dead_letters_rows", member.name)
                if any(dlq):
                    rows.append((member.name, "dlq", dlq))
            lines += _spark_block("history", name_w, rows)
        plane = self.analytics
        if plane is not None and plane.last_scores:
            scores = sorted(job.score for job in plane.last_scores)
            lines.append(
                f"efficiency scores (n={len(scores)}, worst -> best): "
                f"{render_sparkline(scores)}"
            )
            lines.append(
                "least efficient jobs: " + ", ".join(
                    f"{job.member}/{job.resource}#{job.job_id} "
                    f"{job.application} {job.score:.2f}"
                    + (f" [{','.join(job.tags)}]" if job.tags else "")
                    for job in plane.worst_jobs(3)
                )
            )
            if plane.anomalies:
                lines.append(
                    f"anomalies open: {len(plane.anomalies)} (" + ", ".join(
                        f"{a.job.member}#{a.job.job_id}:{a.kind}"
                        for a in plane.anomalies
                    ) + ")"
                )
        if self.alerts.evaluations:
            lines.append(_firing_line("alerts", self.alerts.firing()))
        report = self.hub.last_aggregation
        parts = []
        if report.skipped:
            parts.append("skipped: " + ", ".join(
                f"{name} ({why})" for name, why in sorted(report.skipped.items())
            ))
        if report.quarantined:
            parts.append("quarantined events: " + ", ".join(
                f"{name}={n}" for name, n in sorted(report.quarantined.items())
            ))
        if parts:
            lines.append("last aggregation: " + "; ".join(parts))
        return "\n".join(lines)

    def stale_members(self, *, at: float | None = None) -> list[str]:
        """Members the ``fleet_telemetry_stale`` rule judges stale (the
        ``age_s`` of their :data:`SEQ_SERIES` past its ``max_age_s``): the
        one staleness rule of :meth:`render_fleet`, ``/health`` and CLI."""
        fleet = self.hub.fleet
        rule = alert_rule("fleet_telemetry_stale")
        now = float(fleet.clock.now() if at is None else at)
        return [
            name for name in fleet.label_values(SEQ_SERIES, "member")
            if rule.breaches(rule.value_for(fleet, name, at=now))
        ]

    def render_fleet(self, *, at: float | None = None) -> str:
        """Fleet telemetry dashboard over the hub's fleet history.

        Per member: last scrape number, series in its latest scrape
        (``fleet_series_rows``), staleness,
        ETL ingest rate and cache hit-ratio *as the satellite reported
        them*, hub-side replication lag, and the fleet-scoped alerts
        currently firing (evaluate first via :meth:`evaluate_alerts`).

        Deterministic: one clock read (or the explicit ``at``) anchors
        every windowed query, so the panel is byte-identical across runs
        of the same FakeClock-driven scenario.
        """
        hub = self.hub
        fleet = hub.fleet
        names = fleet.label_values(SEQ_SERIES, "member")
        title = f"Fleet telemetry: {hub.name}"
        lines = [title, "=" * len(title)]
        if not names:
            lines.append("(no telemetry shipments ingested)")
            return "\n".join(lines)
        now = float(self.obs.clock.now() if at is None else at)
        stale = self.stale_members(at=now)
        window = 600.0
        lag = hub.lag()
        name_w = max([len("member")] + [len(n) for n in names]) + 2
        lines.append(
            f"{'member':<{name_w}}{'seq':>6}{'series':>8}{'age_s':>8}"
            f"{'ingest/s':>10}{'lag':>6}{'cache':>7}  state"
        )
        for name in names:
            seq = int(fleet.last(SEQ_SERIES, member=name) or 0)
            age = fleet.age_s(SEQ_SERIES, at=now, member=name)
            rate = fleet.rate(
                "etl_ingest_records_total", window, at=now, member=name
            )
            hits = fleet.last(
                "serving_cache_lookups_total", member=name, result="hit"
            )
            lookups = fleet.last("serving_cache_lookups_total", member=name)
            cache = (
                f"{hits / lookups * 100:.0f}%"
                if hits is not None and lookups else "-"
            )
            lines.append(
                f"{name:<{name_w}}{seq:>6}"
                f"{hub.obs.registry.value('fleet_series_rows', member=name):>8.0f}"
                f"{(f'{age:.0f}' if age is not None else '-'):>8}"
                f"{(f'{rate:.2f}' if rate is not None else '-'):>10}"
                f"{lag.get(name, 0):>6}{cache:>7}  "
                + ("STALE" if name in stale else "fresh")
            )
        seqs = {name: _values(fleet, SEQ_SERIES, name) for name in names}
        lines += _spark_block("shipments", name_w, [
            (name, "seq", seqs[name]) for name in names if len(seqs[name]) > 1
        ])
        if stale:
            lines.append("stale members: " + ", ".join(stale))
        if self.alerts.evaluations:
            lines.append(_firing_line("fleet alerts", [
                s for s in self.alerts.firing() if s.rule.scope == "fleet"
            ]))
        return "\n".join(lines)


def _values(history: MetricsHistory, name: str, member: str) -> list[float]:
    """A member's stored values of ``name``, oldest first."""
    return [v for _, v in history.samples(name, member=member)]


def _spark_block(
    title: str, name_w: int, rows: list[tuple[str, str, list[float]]]
) -> list[str]:
    """``title`` over one sparkline per ``(member, what, values)`` row;
    no lines at all when there is no row."""
    if not rows:
        return []
    return [f"{title} (oldest -> newest):"] + [
        f"  {name:<{name_w}}{what} {render_sparkline(values)}"
        for name, what, values in rows
    ]


def _firing_line(title: str, firing: list[AlertState]) -> str:
    """``<title>: N firing (rule[member], ...)``."""
    names = ", ".join(f"{s.rule.id}[{s.member}]" for s in firing)
    return f"{title}: {len(firing)} firing" + (f" ({names})" if firing else "")
