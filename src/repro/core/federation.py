"""Federation orchestration: XDMoD instances, satellites, and the hub.

The federation model (Sections II-A, II-B): independent XDMoD instances,
each ingesting and aggregating its own resources' data, replicate raw HPC
Jobs realm data into uniquely-named schemas on a central federated hub in a
fan-in topology.  The hub re-aggregates the raw data under its own
aggregation levels and offers a unified view; satellites retain full local
functionality and need no knowledge of one another.  The only membership
requirement is that every instance runs the same XDMoD version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from ..aggregation import AggregationConfig, Aggregator
from ..etl.pipeline import WAREHOUSE_SCHEMA, IngestPipeline
from ..etl.star import PersonInfo
from ..obs import Observability
from ..obs.fleet import FleetTSDB, ShipmentError, TelemetryShipper
from ..simulators.hpl import ConversionTable
from ..warehouse import Database, Schema
from .errors import MembershipError, VersionMismatchError
from .loose import LooseChannel
from .replicator import ReplicationChannel, ReplicationFilter
from .resilience import (
    CircuitBreaker,
    CircuitState,
    MemberSyncOutcome,
    RetryPolicy,
)

#: The XDMoD release this codebase models (Open XDMoD contemporary with
#: the paper; SSO shipped in 6.5, federation developed against 8.0).
XDMOD_VERSION = "8.0.0"

#: Hub-side schema naming convention: one renamed schema per instance.
FED_SCHEMA_PREFIX = "fed_"


class XdmodInstance:
    """One Open XDMoD installation: warehouse + ETL + aggregation.

    This is the unit of federation — satellites and hubs are both
    instances.  ``name`` doubles as the instance's identity inside a
    federation.
    """

    def __init__(
        self,
        name: str,
        *,
        version: str = XDMOD_VERSION,
        aggregation: AggregationConfig | None = None,
        conversion: ConversionTable | None = None,
        directory: Mapping[str, PersonInfo] | None = None,
        science_fields: Mapping[str, str] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.name = name
        self.version = version
        #: telemetry bundle shared by every layer of this instance;
        #: inject Observability(clock=FakeClock(...)) for determinism or
        #: Observability.disabled() to strip the overhead
        self.obs = obs if obs is not None else Observability.default()
        if not self.obs.tracer.name:
            # trace ids and span references are qualified by instance name
            self.obs.tracer.name = name
        self.database = Database(
            name,
            metrics=self.obs.registry,
            trace_provider=self.obs.tracer.current_context,
        )
        self.pipeline = IngestPipeline(
            self.database,
            conversion=conversion,
            directory=directory,
            science_fields=science_fields,
            obs=self.obs,
        )
        self.aggregator = Aggregator(self.schema, aggregation, obs=self.obs)

    @property
    def schema(self) -> Schema:
        """The instance's primary warehouse schema (``modw``)."""
        return self.database.schema(WAREHOUSE_SCHEMA)

    @property
    def aggregation(self) -> AggregationConfig:
        return self.aggregator.config

    def aggregate(
        self,
        periods: Sequence[str] | None = None,
        *,
        incremental: bool = False,
    ) -> dict[str, int]:
        """Run the nightly aggregation step locally.

        With ``incremental=True`` only the groups that newly ingested
        facts contribute to are recomputed, from the ``agg_watermark``
        on, instead of rebuilding every realm from row 0.
        """
        if incremental:
            return self.aggregator.aggregate_all_incremental(periods)
        return self.aggregator.aggregate_all(periods)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XdmodInstance({self.name!r}, version={self.version!r})"


@dataclass
class FederationMember:
    """Hub-side registration of one satellite.

    Every member carries a :class:`CircuitBreaker`: repeated sync
    failures stop the member from consuming sync cycles (OPEN), and the
    breaker automatically re-probes it after a cooldown (HALF_OPEN).
    """

    instance: XdmodInstance
    mode: str  # "tight" | "loose"
    fed_schema: str
    channel: ReplicationChannel | None = None
    loose_channel: LooseChannel | None = None
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    last_error: str = ""
    telemetry: TelemetryShipper | None = None

    @property
    def name(self) -> str:
        return self.instance.name

    @property
    def dead_letter_depth(self) -> int:
        return len(self.channel.dead_letters) if self.channel else 0


@dataclass(frozen=True)
class FederationAggregationReport:
    """What the last :meth:`FederationHub.aggregate_federation` covered.

    The unified view can proceed over healthy members while being honest
    about the rest: ``skipped`` members contributed nothing this round
    (and why), ``stale`` members contributed data that lags their
    satellite, ``quarantined`` members have dead-lettered events excluded
    from their contribution.
    """

    aggregated: tuple[str, ...] = ()
    skipped: Mapping[str, str] = field(default_factory=dict)
    stale: Mapping[str, int] = field(default_factory=dict)
    quarantined: Mapping[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every member contributed fresh, whole data."""
        return not (self.skipped or self.stale or self.quarantined)


class FederationHub(XdmodInstance):
    """The central federated hub: an XDMoD instance that also accumulates
    one replicated schema per satellite and aggregates them all under its
    own aggregation levels."""

    def __init__(
        self,
        name: str = "federation_hub",
        *,
        version: str = XDMOD_VERSION,
        aggregation: AggregationConfig | None = None,
        conversion: ConversionTable | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            name, version=version, aggregation=aggregation,
            conversion=conversion, obs=obs,
        )
        self._members: dict[str, FederationMember] = {}
        self.last_aggregation = FederationAggregationReport()
        self._post_aggregation_hooks: list[Callable[[], object]] = []
        registry = self.obs.registry
        self._m_sync_cycles = registry.counter(
            "federation_sync_cycles_total",
            "Sync cycles run by the hub",
            ("hub",),
        ).labels(hub=name)
        self._m_transitions = registry.counter(
            "federation_circuit_transitions_total",
            "Circuit-breaker state changes observed per member",
            ("member", "state"),
        )
        self._m_loose_ships = registry.counter(
            "federation_loose_ship_total",
            "Successful loose-mode dump shipments per member",
            ("member",),
        )
        self._g_lag = registry.gauge(
            "replication_lag_rows",
            "Unreplicated events (tight) or staleness (loose) per member",
            ("member",),
        )
        self._g_dead_letters = registry.gauge(
            "federation_dead_letters_rows",
            "Quarantined events currently held per member",
            ("member",),
        )
        self._m_member_syncs = registry.counter(
            "federation_member_syncs_total",
            "Per-member sync/shipment outcomes by status",
            ("member", "status"),
        )
        #: merged TSDB over every member's shipped telemetry; disabled in
        #: lockstep with the hub's own observability bundle
        self.fleet = FleetTSDB(self.obs.clock, enabled=self.obs.enabled)
        self._m_fleet_ships = registry.counter(
            "fleet_shipments_total",
            "Telemetry shipments ingested into the fleet TSDB by outcome",
            ("member", "status"),
        )
        self._g_fleet_bytes = registry.gauge(
            "fleet_shipment_bytes",
            "Wire size of the member's most recent telemetry shipment",
            ("member",),
        )
        self._g_fleet_series = registry.gauge(
            "fleet_series_rows",
            "Fleet TSDB series currently held per member",
            ("member",),
        )
        self._g_fleet_staleness = registry.gauge(
            "fleet_staleness_seconds",
            "Seconds since the member's last fresh telemetry shipment",
            ("member",),
        )

    def _record_outcomes(self, out: Mapping[str, MemberSyncOutcome]) -> None:
        """Count outcomes, ship telemetry, refresh gauges, snapshot."""
        for name, outcome in out.items():
            self._m_member_syncs.labels(member=name, status=outcome.status).inc()
            # telemetry rides the sync machinery: a member the hub could
            # not reach this cycle (failed / circuit open) ships nothing,
            # so its fleet series go stale exactly when its data does
            if outcome.status not in ("failed", "circuit_open"):
                self._ship_telemetry(self._members.get(name))
        self._record_member_gauges()
        self.obs.history.record()

    def _ship_telemetry(self, member: FederationMember | None) -> None:
        """Snapshot one member's registry into the fleet TSDB."""
        if member is None or member.telemetry is None or not self.fleet.enabled:
            return
        shipment = member.telemetry.snapshot()
        try:
            status = self.fleet.ingest(shipment)
        except ShipmentError:
            self._m_fleet_ships.labels(member=member.name, status="corrupt").inc()
            return
        self._m_fleet_ships.labels(member=member.name, status=status).inc()
        self._g_fleet_bytes.labels(member=member.name).set(
            member.telemetry.last_bytes
        )

    def _note_transition(self, member: FederationMember, before: CircuitState) -> None:
        after = member.breaker.state
        if after is not before:
            self._m_transitions.labels(
                member=member.name, state=after.name.lower()
            ).inc()

    def _record_member_gauges(self) -> None:
        lag = self.lag()
        at = self.obs.clock.now() if self.fleet.enabled else 0.0
        for member in self.members:
            self._g_lag.labels(member=member.name).set(lag.get(member.name, 0))
            self._g_dead_letters.labels(member=member.name).set(
                member.dead_letter_depth
            )
            if member.telemetry is None:
                continue
            staleness = self.fleet.staleness(member.name, at=at)
            if staleness is not None:
                self._g_fleet_staleness.labels(member=member.name).set(staleness)
            self._g_fleet_series.labels(member=member.name).set(
                self.fleet.series_count(member.name)
            )

    # -- membership -----------------------------------------------------------

    def join(
        self,
        satellite: XdmodInstance,
        *,
        mode: str = "tight",
        filter: ReplicationFilter | None = None,
        initial_sync: bool = True,
        retry_policy: RetryPolicy | None = None,
        quarantine: bool = False,
        breaker: CircuitBreaker | None = None,
    ) -> FederationMember:
        """Add a satellite to the federation.

        Enforces the version requirement, provisions the hub-side schema,
        and (for tight mode) opens a replication channel from the
        satellite's binlog position 0 so all historical data replicates.

        ``retry_policy`` and ``quarantine`` configure the member's tight
        channel (see :class:`~repro.core.ReplicationChannel`); ``breaker``
        overrides the member's default circuit breaker.
        """
        if satellite.version != self.version:
            raise VersionMismatchError(
                f"satellite {satellite.name!r} runs XDMoD {satellite.version}, "
                f"federation requires {self.version}"
            )
        if satellite.name in self._members:
            raise MembershipError(f"{satellite.name!r} is already a member")
        if satellite.name == self.name:
            raise MembershipError("the hub cannot federate itself")
        if mode not in ("tight", "loose"):
            raise MembershipError(f"unknown federation mode {mode!r}")

        fed_schema_name = FED_SCHEMA_PREFIX + satellite.name
        member = FederationMember(
            instance=satellite, mode=mode, fed_schema=fed_schema_name
        )
        if breaker is not None:
            member.breaker = breaker
        if self.fleet.enabled:
            # telemetry remote-write: the member's local registry ships
            # into the hub's fleet TSDB after every healthy sync cycle
            member.telemetry = TelemetryShipper(
                satellite.obs.registry,
                member=satellite.name,
                clock=satellite.obs.clock,
            )
        if mode == "tight":
            target = self.database.ensure_schema(fed_schema_name)
            member.channel = ReplicationChannel(
                satellite.schema,
                target,
                filter=filter,
                retry_policy=retry_policy,
                quarantine=quarantine,
                obs=self.obs,
                name=satellite.name,
            )
            if initial_sync:
                member.channel.catch_up()
        else:
            member.loose_channel = LooseChannel(
                satellite.schema,
                self.database,
                fed_schema_name,
                filter=filter,
                obs=self.obs,
            )
            if initial_sync:
                member.loose_channel.ship()
        self._members[satellite.name] = member
        return member

    def leave(self, name: str, *, drop_data: bool = False) -> None:
        """Remove a member; optionally drop its replicated schema.

        The departed member's telemetry is removed everywhere it lives:
        its per-member registry children (otherwise the last
        ``replication_lag_rows`` value would sit in every later scrape as
        a phantom member and keep feeding the lag alert), its
        ``MetricsHistory`` series (otherwise partial-label queries like
        ``quantile_over_time(..., )`` would keep pooling them), and its
        fleet TSDB state and shipped series.
        """
        member = self._members.pop(name, None)
        if member is None:
            raise MembershipError(f"{name!r} is not a member")
        if drop_data and self.database.has_schema(member.fed_schema):
            self.database.drop_schema(member.fed_schema)
        for metric in (
            "replication_lag_rows",
            "federation_dead_letters_rows",
            "federation_member_syncs_total",
            "federation_circuit_transitions_total",
            "federation_loose_ship_total",
            "fleet_shipments_total",
            "fleet_shipment_bytes",
            "fleet_series_rows",
            "fleet_staleness_seconds",
        ):
            self.obs.registry.remove_labels(metric, member=name)
        self.obs.history.purge_labels(member=name)
        self.fleet.purge_member(name)

    def member(self, name: str) -> FederationMember:
        try:
            return self._members[name]
        except KeyError:
            raise MembershipError(f"{name!r} is not a member") from None

    @property
    def members(self) -> list[FederationMember]:
        return [self._members[k] for k in sorted(self._members)]

    # -- data movement ------------------------------------------------------------

    def sync(self, *, batch: int | None = None) -> dict[str, MemberSyncOutcome]:
        """Pump every channel once; returns a per-member outcome.

        Tight members stream binlog events; loose members re-ship their
        dump only when called through :meth:`ship_loose` (live sync leaves
        them stale, as the real mechanism would).

        Failures are isolated per member: one satellite's broken channel
        never stops the others from replicating.  A failing member's
        outcome carries the error, its circuit breaker is notified, and —
        once the breaker opens — subsequent cycles skip the member
        (``circuit_open``) until the cooldown elapses and a probe either
        recovers it or re-opens the circuit.  The outcomes compare as the
        number of events applied, so ``sync()["site"] > 0`` and
        ``sum(sync().values())`` behave as before.
        """
        out: dict[str, MemberSyncOutcome] = {}
        self._m_sync_cycles.inc()
        for member in self.members:
            if member.channel is None:
                out[member.name] = MemberSyncOutcome(member.name, "idle", 0)
                continue
            breaker_before = member.breaker.state
            if not member.breaker.allow():
                self._note_transition(member, breaker_before)
                out[member.name] = MemberSyncOutcome(
                    member.name, "circuit_open", 0,
                    error=member.breaker.last_error,
                )
                continue
            stats = member.channel.stats
            retries_before = stats.retries
            quarantined_before = stats.events_quarantined
            try:
                applied = (
                    member.channel.catch_up()
                    if batch is None
                    else member.channel.pump(batch)
                )
            # repolint: ignore[overbroad-except] -- degraded-mode boundary: any member failure is recorded per-member and sync continues
            except Exception as exc:
                member.breaker.record_failure(str(exc))
                member.last_error = str(exc)
                self._note_transition(member, breaker_before)
                out[member.name] = MemberSyncOutcome(
                    member.name, "failed", 0,
                    retried=stats.retries - retries_before,
                    error=str(exc),
                )
                continue
            member.breaker.record_success()
            member.last_error = ""
            self._note_transition(member, breaker_before)
            retried = stats.retries - retries_before
            quarantined = stats.events_quarantined - quarantined_before
            status = (
                "quarantined" if quarantined
                else "retried" if retried
                else "applied"
            )
            out[member.name] = MemberSyncOutcome(
                member.name, status, applied,
                retried=retried, quarantined=quarantined,
            )
        self._record_outcomes(out)
        return out

    def ship_loose(self) -> dict[str, MemberSyncOutcome]:
        """Re-ship every loose member's dump; returns per-member outcomes
        whose value is the number of rows loaded.

        Like :meth:`sync`, failures (e.g. a corrupt dump file rejected by
        checksum verification) are isolated per member and feed the
        member's circuit breaker; the previous good shipment stays live
        on the hub.
        """
        out: dict[str, MemberSyncOutcome] = {}
        for member in self.members:
            if member.loose_channel is None:
                continue
            breaker_before = member.breaker.state
            if not member.breaker.allow():
                self._note_transition(member, breaker_before)
                out[member.name] = MemberSyncOutcome(
                    member.name, "circuit_open", 0,
                    error=member.breaker.last_error,
                )
                continue
            try:
                schema = member.loose_channel.ship()
            # repolint: ignore[overbroad-except] -- degraded-mode boundary: a failed shipment marks the member failed, others proceed
            except Exception as exc:
                member.breaker.record_failure(str(exc))
                member.last_error = str(exc)
                self._note_transition(member, breaker_before)
                out[member.name] = MemberSyncOutcome(
                    member.name, "failed", 0, error=str(exc)
                )
                continue
            member.breaker.record_success()
            member.last_error = ""
            self._note_transition(member, breaker_before)
            self._m_loose_ships.labels(member=member.name).inc()
            rows = sum(len(schema.table(t)) for t in schema.table_names())
            out[member.name] = MemberSyncOutcome(member.name, "applied", rows)
        self._record_outcomes(out)
        return out

    def lag(self) -> dict[str, int]:
        """Replication lag (tight: binlog events; loose: staleness)."""
        out: dict[str, int] = {}
        for member in self.members:
            if member.channel is not None:
                out[member.name] = member.channel.lag
            elif member.loose_channel is not None:
                out[member.name] = member.loose_channel.staleness
        return out

    # -- hub-side aggregation -----------------------------------------------------

    def federated_schemas(self, *, include_local: bool = False) -> Mapping[str, Schema]:
        """Instance name -> hub-side schema holding its replicated data.

        A read-only live view, resolved on every access: whoever holds it
        (an :class:`repro.ui.XdmodApi`, say) sees a loose re-ship's new
        schema and the members that joined or left since it was handed out.
        """
        return _MemberSchemas(self, include_local)

    def aggregate_federation(
        self,
        periods: Sequence[str] | None = None,
        *,
        incremental: bool = False,
    ) -> dict[str, dict[str, int]]:
        """Aggregate every replicated schema under the HUB's levels.

        "All raw instance data are fully replicated to the master, then
        aggregated there, according to the federation hub's aggregation
        levels, so no data are lost or changed."

        With ``incremental=True`` each member schema folds in only its
        newly replicated facts (from its ``agg_watermark`` on) instead of
        rebuilding every aggregate; the result tables are identical to a
        full rebuild over the same facts, and a member whose facts saw
        anything but appends rebuilds by itself.  Level changes go
        through :meth:`reaggregate_federation`, which always rebuilds.

        Degraded mode: members whose circuit is open, whose schema never
        replicated, or whose aggregation raises are *skipped* — the
        healthy members still aggregate — and the skip reasons, along
        with stale (lagging) and quarantined members, are recorded in
        :attr:`last_aggregation` for the monitor to surface.
        """
        out: dict[str, dict[str, int]] = {}
        skipped: dict[str, str] = {}
        stale: dict[str, int] = {}
        quarantined: dict[str, int] = {}
        lag = self.lag()
        schemas = self.federated_schemas()
        for member in self.members:
            if member.name not in schemas:
                skipped[member.name] = "no replicated schema on hub"
        for name, schema in schemas.items():
            member = self._members.get(name)
            if member is not None and member.breaker.state is CircuitState.OPEN:
                skipped[name] = "circuit open"
                continue
            try:
                aggregator = Aggregator(schema, self.aggregation, obs=self.obs)
                if incremental:
                    out[name] = aggregator.aggregate_all_incremental(periods)
                else:
                    out[name] = aggregator.aggregate_all(periods)
            # repolint: ignore[overbroad-except] -- degraded-mode boundary: aggregation failure for one member is reported as skipped
            except Exception as exc:
                skipped[name] = str(exc)
                continue
            if lag.get(name, 0) > 0:
                stale[name] = lag[name]
            if member is not None and member.dead_letter_depth:
                quarantined[name] = member.dead_letter_depth
        self.last_aggregation = FederationAggregationReport(
            aggregated=tuple(sorted(out)),
            skipped=skipped,
            stale=stale,
            quarantined=quarantined,
        )
        for hook in self._post_aggregation_hooks:
            hook()
        return out

    def add_post_aggregation_hook(self, hook: Callable[[], object]) -> None:
        """Run ``hook()`` after every :meth:`aggregate_federation`.

        This is how the serving layer keeps its pre-materialized views
        warm (``hub.add_post_aggregation_hook(service.materialize)``)
        without ``repro.core`` importing ``repro.ui``: the hub only sees
        an opaque callable, invoked once fresh aggregates have landed.
        """
        self._post_aggregation_hooks.append(hook)

    def reaggregate_federation(
        self,
        aggregation: AggregationConfig,
        periods: Sequence[str] | None = None,
    ) -> dict[str, dict[str, int]]:
        """Change the hub's levels and re-aggregate all raw federation data
        (the Table I new-satellite scenario)."""
        self.aggregator.config = aggregation
        return self.aggregate_federation(periods)


class _MemberSchemas(Mapping[str, Schema]):
    """:meth:`FederationHub.federated_schemas`: the hub's current member
    schemas, looked up afresh on every access."""

    def __init__(self, hub: FederationHub, include_local: bool) -> None:
        self._hub, self._include_local = hub, include_local

    def _current(self) -> dict[str, Schema]:
        hub, out = self._hub, {}
        if self._include_local and len(hub.schema.table_names()) > 1:
            out[hub.name] = hub.schema
        for member in hub.members:
            if hub.database.has_schema(member.fed_schema):
                out[member.name] = hub.database.schema(member.fed_schema)
        return out

    def __getitem__(self, name: str) -> Schema:
        return self._current()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._current())

    def __len__(self) -> int:
        return len(self._current())

    def items(self):  # one lookup per pass, not one per key
        return self._current().items()
