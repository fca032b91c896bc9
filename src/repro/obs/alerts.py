"""Declarative SLO alerting over the metrics history.

The federation hub's operators care about a handful of conditions: a
member falling behind (lag), poison events piling up (dead letters), a
circuit breaker flapping, syncs failing faster than they succeed, and a
member going quiet entirely.  Each is an :class:`AlertRule` — a small
declarative record naming a metric in the
:class:`~repro.obs.history.MetricsHistory` and how to judge it — and the
:class:`AlertEngine` runs the classic inactive → pending → firing →
resolved state machine over every ``(rule, member)`` pair.

Rule kinds:

``threshold``
    Compare the latest value (``history.last``) against ``threshold``.
``absence``
    Fire when the metric has not *changed* for ``max_age_s`` seconds (or
    has never been seen) — the staleness signal for a member gone quiet.
``burn_rate``
    Compare a windowed aggregate against ``threshold``: counter
    ``increase`` by default, signed gauge ``delta`` with
    ``func="delta"``, and a failure *ratio* when ``denominator`` names a
    second metric (numerator and denominator both use counter-increase
    semantics; an empty window denominates to a ratio of 0).

Rule ids are the stable operator-facing contract: dashboards, runbooks
and call sites refer to rules via :func:`alert_rule`, and repolint's
``unknown-alert-rule-id`` rule statically rejects literals that name no
rule in :data:`DEFAULT_ALERT_RULES`.

Everything is clocked by the history's injectable clock, so a
fault-injected federation under a :class:`~repro.obs.clock.FakeClock`
fires alerts deterministically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .history import SEQ_SERIES, MetricsHistory

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "DEFAULT_ALERT_RULES",
    "GLOBAL_SCOPE",
    "alert_rule",
]

#: Pseudo-member that global-scope rules are evaluated under: conditions
#: like the API error ratio describe the hub as a whole, not one member.
GLOBAL_SCOPE = "_global"

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition, evaluated per federation member.

    ``labels`` narrows the history query (e.g. only the ``state="open"``
    child of the circuit-transition counter); with the default
    ``scope="member"`` the member name is always injected as the
    ``member`` label.  ``scope="global"`` rules judge a federation-wide
    series with no member label (the API error ratio) and are evaluated
    once per cycle under the :data:`GLOBAL_SCOPE` pseudo-member.
    ``scope="fleet"`` rules are evaluated per member like
    ``scope="member"``, but against the hub's fleet history
    (``FederationHub.fleet``) — the series the hub *scrapes* from
    members rather than the series it records locally.  ``for_count``
    is how many consecutive breaching evaluations promote pending to
    firing.
    """

    id: str
    kind: str  # threshold | absence | burn_rate
    metric: str
    summary: str
    op: str = ">="
    threshold: float = 0.0
    window_s: float = 600.0
    max_age_s: float = 900.0
    for_count: int = 2
    severity: str = "warn"  # warn | page
    labels: tuple[tuple[str, str], ...] = ()
    denominator: str = ""
    func: str = "increase"  # burn_rate aggregate: increase | delta | rate
    scope: str = "member"  # member | global | fleet

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "absence", "burn_rate"):
            raise ValueError(f"unknown alert kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.func not in ("increase", "delta", "rate"):
            raise ValueError(f"unknown burn-rate func {self.func!r}")
        if self.for_count < 1:
            raise ValueError("for_count must be >= 1")
        if self.scope not in ("member", "global", "fleet"):
            raise ValueError(f"unknown alert scope {self.scope!r}")

    def value_for(
        self, history: MetricsHistory, member: str, *, at: float | None = None
    ) -> float | None:
        """The number this rule judges, for one member (None = no data)."""
        labels = dict(self.labels)
        if self.scope in ("member", "fleet"):
            labels["member"] = member
        if self.kind == "threshold":
            return history.last(self.metric, **labels)
        if self.kind == "absence":
            return history.age_s(self.metric, at=at, **labels)
        agg = getattr(history, self.func)
        value = agg(self.metric, self.window_s, at=at, **labels)
        if self.denominator:
            den_labels = (
                {"member": member} if self.scope != "global" else {}
            )
            den = history.increase(
                self.denominator, self.window_s, at=at, **den_labels
            )
            if den is None or den <= 0:
                # no denominator activity in the window: ratio of 0
                return 0.0
            return (value or 0.0) / den
        return value

    def breaches(self, value: float | None) -> bool:
        if self.kind == "absence":
            # a series never recorded is "no data", not "stale": a fresh
            # hub that has not synced yet must come up healthy
            return value is not None and value > self.max_age_s
        if value is None:
            return False
        return _OPS[self.op](value, self.threshold)


#: The shipped rule catalog.  Ids are a stable interface — repolint R7
#: checks every literal passed to :func:`alert_rule` against this tuple.
DEFAULT_ALERT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        id="replication_lag_high",
        kind="threshold",
        metric="replication_lag_rows",
        op=">=",
        threshold=500.0,
        for_count=2,
        severity="warn",
        summary="member replication lag at or above 500 events",
    ),
    AlertRule(
        id="dead_letter_growth",
        kind="burn_rate",
        func="delta",
        metric="federation_dead_letters_rows",
        op=">",
        threshold=0.0,
        window_s=600.0,
        for_count=1,
        severity="warn",
        summary="dead-letter queue grew within the last window",
    ),
    AlertRule(
        id="circuit_breaker_flap",
        kind="burn_rate",
        metric="federation_circuit_transitions_total",
        labels=(("state", "open"),),
        op=">=",
        threshold=2.0,
        window_s=600.0,
        for_count=1,
        severity="page",
        summary="member circuit breaker opened repeatedly within the window",
    ),
    AlertRule(
        id="sync_failure_burn_rate",
        kind="burn_rate",
        metric="federation_member_syncs_total",
        labels=(("status", "failed"),),
        denominator="federation_member_syncs_total",
        op=">=",
        threshold=0.5,
        window_s=600.0,
        for_count=2,
        severity="page",
        summary="at least half of recent sync cycles failed for the member",
    ),
    AlertRule(
        id="member_stale",
        kind="absence",
        metric="federation_member_syncs_total",
        max_age_s=900.0,
        for_count=1,
        severity="page",
        summary="no sync outcome recorded for the member recently",
    ),
    AlertRule(
        id="analytics_anomaly_rate_high",
        kind="burn_rate",
        metric="analytics_anomalies_total",
        op=">=",
        threshold=1.0,
        window_s=3600.0,
        for_count=1,
        severity="warn",
        summary="job-level anomaly flagged for the member within the window",
    ),
    AlertRule(
        id="fleet_telemetry_stale",
        kind="absence",
        metric="fleet_shipment_seq_rows",
        max_age_s=900.0,
        for_count=1,
        severity="page",
        scope="fleet",
        summary="no fresh telemetry shipment ingested from the member recently",
    ),
    AlertRule(
        id="fleet_etl_ingest_stall",
        kind="absence",
        metric="etl_ingest_records_total",
        max_age_s=3600.0,
        for_count=1,
        severity="warn",
        scope="fleet",
        summary="member-local ETL ingest counters have stopped advancing",
    ),
    AlertRule(
        id="api_error_ratio_high",
        kind="burn_rate",
        metric="serving_requests_total",
        labels=(("class", "5xx"),),
        denominator="serving_requests_total",
        op=">=",
        threshold=0.05,
        window_s=600.0,
        for_count=2,
        severity="page",
        scope="global",
        summary="at least 5% of recent API requests returned server errors",
    ),
)

_RULES_BY_ID: dict[str, AlertRule] = {r.id: r for r in DEFAULT_ALERT_RULES}


def alert_rule(rule_id: str) -> AlertRule:
    """Look up a shipped rule by id (the R7-checked entry point)."""
    try:
        return _RULES_BY_ID[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown alert rule {rule_id!r}; shipped rules: "
            f"{sorted(_RULES_BY_ID)}"
        ) from None


@dataclass
class AlertState:
    """Current state of one ``(rule, member)`` pair."""

    rule: AlertRule
    member: str
    status: str = "inactive"  # inactive | pending | firing | resolved
    value: float | None = None
    since: float = 0.0
    breaches: int = 0

    @property
    def active(self) -> bool:
        return self.status in ("pending", "firing")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.id,
            "member": self.member,
            "status": self.status,
            "severity": self.rule.severity,
            "value": self.value,
            "since": self.since,
            "summary": self.rule.summary,
        }


class AlertEngine:
    """Evaluates a rule catalog against a metrics history, per member.

    One engine per hub; :meth:`evaluate` is called after sync cycles (or
    on demand by ``GET /alerts``) with the current member list.  States
    persist across evaluations; a member no longer among a rule's targets
    (it left the federation, or its fleet series were purged) loses its
    state at the next evaluation, so a departed member's alert cannot
    fire forever.
    """

    def __init__(
        self,
        history: MetricsHistory,
        rules: Iterable[AlertRule] = DEFAULT_ALERT_RULES,
        *,
        fleet=None,
    ) -> None:
        self.history = history
        #: the hub's fleet :class:`MetricsHistory` (scraped member series)
        self.fleet = fleet
        self.rules = tuple(rules)
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate alert rule ids in {ids}")
        self._states: dict[tuple[str, str], AlertState] = {}
        self.evaluations = 0

    def evaluate(self, members: Iterable[str]) -> list[AlertState]:
        """Run every rule for every member; returns all known states.

        ``scope="global"`` rules ignore the member list and evaluate once
        under the :data:`GLOBAL_SCOPE` pseudo-member; ``scope="fleet"``
        rules evaluate over the fleet history for every member it holds a
        scrape of (skipped entirely when the engine was built without a
        ``fleet``).  States of pairs not evaluated this time are dropped.
        """
        now = self.history.clock.now()
        self.evaluations += 1
        member_list = list(members)
        evaluated: set[tuple[str, str]] = set()
        for rule in self.rules:
            source = self.history
            if rule.scope == "member":
                targets = member_list
            elif rule.scope == "fleet":
                if self.fleet is None:
                    continue
                targets = self.fleet.label_values(SEQ_SERIES, "member")
                source = self.fleet
            else:
                targets = [GLOBAL_SCOPE]
            for member in targets:
                key = (rule.id, member)
                evaluated.add(key)
                state = self._states.get(key)
                if state is None:
                    state = self._states.setdefault(key, AlertState(rule, member))
                value = rule.value_for(source, member, at=now)
                state.value = value
                if rule.breaches(value):
                    state.breaches += 1
                    if state.status in ("inactive", "resolved"):
                        state.status = "pending"
                        state.since = now
                        state.breaches = 1
                    if state.status == "pending" and state.breaches >= rule.for_count:
                        state.status = "firing"
                else:
                    if state.status == "firing":
                        state.status = "resolved"
                        state.since = now
                    elif state.status in ("pending", "resolved"):
                        state.status = "inactive"
                    state.breaches = 0
        for key in self._states.keys() - evaluated:
            del self._states[key]
        return self.states()

    def states(self) -> list[AlertState]:
        return [self._states[k] for k in sorted(self._states)]

    def firing(self) -> list[AlertState]:
        return [s for s in self.states() if s.status == "firing"]

    def active(self) -> list[AlertState]:
        return [s for s in self.states() if s.active]

    def state_of(self, rule_id: str, member: str) -> AlertState | None:
        return self._states.get((rule_id, member))

    def to_dict(self) -> dict:
        firing = self.firing()
        return {
            "evaluations": self.evaluations,
            "firing": len(firing),
            "alerts": [s.to_dict() for s in self.states()],
        }

    def render(self) -> str:
        """Operator-facing alert table (the CLI / report artifact view)."""
        states = self.states()
        lines = ["Alerts", "======"]
        if not states:
            lines.append("(no evaluations yet)")
            return "\n".join(lines)
        order = {"firing": 0, "pending": 1, "resolved": 2, "inactive": 3}
        rows = sorted(
            states, key=lambda s: (order[s.status], s.rule.id, s.member)
        )
        id_w = max(len("rule"), max(len(s.rule.id) for s in rows)) + 2
        member_w = max(len("member"), max(len(s.member) for s in rows)) + 2
        lines.append(
            f"{'rule':<{id_w}}{'member':<{member_w}}{'status':<10}"
            f"{'severity':<10}value"
        )
        for s in rows:
            value = "-" if s.value is None else f"{s.value:g}"
            lines.append(
                f"{s.rule.id:<{id_w}}{s.member:<{member_w}}{s.status:<10}"
                f"{s.rule.severity:<10}{value}"
            )
        firing = [s for s in rows if s.status == "firing"]
        lines.append(
            f"{len(firing)} firing / {len(rows)} tracked"
        )
        for s in firing:
            lines.append(f"  FIRING {s.rule.id}[{s.member}]: {s.rule.summary}")
        return "\n".join(lines)
