"""Degraded-mode federation: fault-isolated sync, quarantine, recovery.

The acceptance scenario for the resilience layer: with seeded faults on
one of three satellites, the hub keeps healthy members at zero lag, the
flaky member's circuit opens and later recovers, and after a dead-letter
replay the whole federation checks out consistent again.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CircuitBreaker,
    CircuitState,
    FaultPlan,
    FederationHub,
    FederationMonitor,
    LooseChannel,
    ReplicationChannel,
    ReplicationError,
    ReplicationFilter,
    RetryPolicy,
    XdmodInstance,
    check_federation,
    corrupt_dump_file,
    inject_apply_faults,
)
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Database, DumpError


def make_job(job_id, resource="r1"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 3), nodes=1, cores=2, req_walltime_s=7200,
        state="COMPLETED", exit_code=0, resource=resource,
    )


def make_satellite(name: str, n_jobs: int = 6) -> XdmodInstance:
    satellite = XdmodInstance(name)
    ingest_jobs(
        satellite.schema,
        [make_job(i, resource=f"{name}_cluster") for i in range(n_jobs)],
    )
    return satellite


@pytest.fixture()
def three_site_hub():
    hub = FederationHub("hub")
    satellites = {}
    for name in ("site0", "site1", "site2"):
        satellites[name] = make_satellite(name)
        hub.join(satellites[name], retry_policy=RetryPolicy(max_retries=1))
    return hub, satellites


class TestChannelQuarantine:
    """Dead-letter behaviour at the single-channel level."""

    def _channel(self, **kwargs) -> tuple[ReplicationChannel, XdmodInstance]:
        satellite = make_satellite("sat")
        hub_db = Database("hub")
        channel = ReplicationChannel(
            satellite.schema, hub_db.create_schema("fed_sat"), **kwargs
        )
        return channel, satellite

    def test_poison_event_without_quarantine_wedges(self):
        channel, satellite = self._channel()
        channel.catch_up()
        head = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [make_job(100)])
        wrapper = inject_apply_faults(channel, FaultPlan(poison_lsns={head}))
        position_before = channel.cursor.position
        with pytest.raises(ReplicationError):
            channel.catch_up()
        # cursor did not advance past the poison event (at-least-once)
        assert channel.cursor.position <= head
        assert channel.lag > 0
        # ...and an idempotent re-pump after the fix resumes at that LSN
        wrapper.plan.heal()
        applied = channel.catch_up()
        assert applied > 0
        assert channel.lag == 0
        assert channel.cursor.position == satellite.schema.binlog.head_lsn
        assert channel.target.table("fact_job").checksum() == (
            satellite.schema.table("fact_job").checksum()
        )
        assert position_before <= head

    def test_poison_event_quarantined_and_skipped(self):
        channel, satellite = self._channel(quarantine=True)
        channel.catch_up()
        head = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [make_job(100), make_job(101)])
        wrapper = inject_apply_faults(channel, FaultPlan(poison_lsns={head}))
        channel.catch_up()
        # the poison event is parked, everything after it still applied
        assert channel.lag == 0
        assert len(channel.dead_letters) == 1
        assert channel.dead_letters.lsns() == [head]
        assert channel.stats.events_quarantined == 1
        # replay while still poisoned: stays quarantined
        assert channel.replay() == 0
        assert len(channel.dead_letters) == 1
        # heal, replay: applied and consistent
        wrapper.plan.heal()
        assert channel.replay() == 1
        assert len(channel.dead_letters) == 0
        assert channel.stats.events_quarantined == 0
        assert channel.target.table("fact_job").checksum() == (
            satellite.schema.table("fact_job").checksum()
        )

    def test_replay_addresses_specific_lsns(self):
        channel, satellite = self._channel(quarantine=True)
        channel.catch_up()
        head = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [make_job(100)])
        mid = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [make_job(101)])
        wrapper = inject_apply_faults(
            channel, FaultPlan(poison_lsns={head, mid})
        )
        channel.catch_up()
        assert channel.dead_letters.lsns() == [head, mid]
        wrapper.plan.heal()
        assert channel.replay([mid]) == 1
        assert channel.dead_letters.lsns() == [head]
        assert channel.replay([999]) == 0  # unknown LSN: no-op
        assert channel.replay() == 1
        assert len(channel.dead_letters) == 0

    def test_stats_add_up_under_partial_batches(self):
        channel, satellite = self._channel(retry_policy=RetryPolicy(max_retries=0))
        channel.catch_up()
        syncs_before = channel.stats.syncs
        head = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [make_job(100)])
        inject_apply_faults(
            channel, FaultPlan(transient_lsns={head}, transient_burst=1)
        )
        with pytest.raises(ReplicationError):
            channel.pump()
        # the failed sync is still counted...
        assert channel.stats.syncs == syncs_before + 1
        # ...and the failed event was NOT counted as seen (it will be
        # re-polled), so the counters keep adding up
        stats = channel.stats
        assert stats.events_seen == (
            stats.events_applied + stats.events_filtered
            + stats.events_quarantined
        )
        channel.catch_up()  # burst cleared: everything applies
        stats = channel.stats
        assert channel.lag == 0
        assert stats.events_seen == (
            stats.events_applied + stats.events_filtered
            + stats.events_quarantined
        )


class TestDegradedSync:
    """Hub-level isolation: one flaky member never blocks the others."""

    def test_acceptance_scenario(self, three_site_hub):
        """Seeded transient faults on 1 of 3 satellites: healthy members
        stay at zero lag, the flaky circuit opens then recovers, and after
        dead-letter replay the federation is consistent again."""
        hub, satellites = three_site_hub
        flaky = hub.member("site1")
        flaky.breaker = CircuitBreaker(failure_threshold=2, cooldown=2)

        # -- phase 1: transient faults exhaust retries, circuit opens ----
        head = satellites["site1"].schema.binlog.head_lsn
        for name, satellite in satellites.items():
            ingest_jobs(satellite.schema, [make_job(200)])
        # first new site1 event fails its first 5 applies (retry policy
        # does 2 per sync): sync1 fails, sync2 fails -> breaker opens
        wrapper = inject_apply_faults(
            flaky.channel,
            FaultPlan(transient_lsns={head}, transient_burst=5),
        )
        out1 = hub.sync()
        assert out1["site1"].status == "failed"
        assert out1["site0"].status == "applied" and out1["site0"].applied > 0
        assert out1["site2"].status == "applied" and out1["site2"].applied > 0
        assert hub.lag()["site0"] == 0 and hub.lag()["site2"] == 0

        out2 = hub.sync()
        assert out2["site1"].status == "failed"
        assert flaky.breaker.state is CircuitState.OPEN

        # -- phase 2: circuit open, member consumes no sync work ---------
        for _ in range(2):
            out = hub.sync()
            assert out["site1"].status == "circuit_open"
            assert hub.lag()["site0"] == 0 and hub.lag()["site2"] == 0
        assert hub.lag()["site1"] > 0  # honest about the flaky member

        # -- phase 3: probe succeeds (burst exhausted), circuit closes ---
        out = hub.sync()
        assert out["site1"].status == "retried"
        assert out["site1"].applied > 0
        assert flaky.breaker.state is CircuitState.CLOSED
        assert hub.lag()["site1"] == 0

        # -- phase 4: poison event is quarantined, then replayed ---------
        flaky.channel.quarantine = True
        poison_lsn = satellites["site1"].schema.binlog.head_lsn
        ingest_jobs(satellites["site1"].schema, [make_job(300)])
        wrapper.plan.poison_lsns = {poison_lsn}
        out = hub.sync()
        assert out["site1"].status == "quarantined"
        assert flaky.dead_letter_depth == 1
        assert hub.lag()["site1"] == 0  # skipped, not wedged
        assert not check_federation(hub).ok  # quarantine is visible

        wrapper.plan.heal()
        assert flaky.channel.replay() == 1
        check = check_federation(hub)
        assert check.ok  # all members consistent again
        assert flaky.dead_letter_depth == 0

    def test_sync_isolates_hard_failures(self, three_site_hub):
        hub, satellites = three_site_hub
        for satellite in satellites.values():
            ingest_jobs(satellite.schema, [make_job(201)])
        inject_apply_faults(
            hub.member("site2").channel,
            FaultPlan(transient_rate=1.0, transient_burst=10**9),
        )
        out = hub.sync()
        assert out["site2"].status == "failed"
        assert "LSN" in out["site2"].error
        assert out["site0"].applied > 0 and out["site1"].applied > 0
        assert out["site2"].applied == 0

    def test_aggregation_proceeds_over_healthy_members(self, three_site_hub):
        hub, satellites = three_site_hub
        flaky = hub.member("site1")
        flaky.breaker = CircuitBreaker(failure_threshold=1, cooldown=5)
        for satellite in satellites.values():
            ingest_jobs(satellite.schema, [make_job(202)])
        inject_apply_faults(
            flaky.channel, FaultPlan(transient_rate=1.0, transient_burst=10**9)
        )
        hub.sync()  # site1 fails, breaker opens
        assert flaky.breaker.state is CircuitState.OPEN
        out = hub.aggregate_federation(["month"])
        assert set(out) == {"site0", "site2"}  # healthy members aggregated
        report = hub.last_aggregation
        assert report.skipped == {"site1": "circuit open"}
        assert not report.complete
        assert "site1" not in report.stale

    def test_aggregation_annotates_stale_and_quarantined(self, three_site_hub):
        hub, satellites = three_site_hub
        member = hub.member("site2")
        member.channel.quarantine = True
        poison = satellites["site2"].schema.binlog.head_lsn
        ingest_jobs(satellites["site2"].schema, [make_job(203)])
        inject_apply_faults(member.channel, FaultPlan(poison_lsns={poison}))
        hub.sync()
        ingest_jobs(satellites["site0"].schema, [make_job(204)])  # now stale
        out = hub.aggregate_federation(["month"])
        assert set(out) == {"site0", "site1", "site2"}
        report = hub.last_aggregation
        assert report.quarantined == {"site2": 1}
        assert report.stale.get("site0", 0) > 0
        assert not report.complete


class TestLooseResilience:
    def test_flipped_byte_rejected_on_ship_via_file(self, tmp_path):
        """Acceptance: a corrupted dump file raises DumpError on load and
        nothing is partially loaded over the previous shipment."""
        satellite = make_satellite("sat")
        hub_db = Database("hub")
        channel = LooseChannel(satellite.schema, hub_db, "fed_sat")
        channel.ship()  # previous good shipment
        good_checksum = hub_db.schema("fed_sat").checksum()

        ingest_jobs(satellite.schema, [make_job(100)])
        path = tmp_path / "sat.dump.gz"
        from repro.warehouse import write_dump_file

        write_dump_file(channel.export(), path)
        corrupt_dump_file(path, mode="payload")

        from repro.warehouse import load_schema, read_dump_file

        with pytest.raises(DumpError):
            load_schema(
                hub_db, read_dump_file(path),
                rename_to="fed_sat", replace=True,
            )
        # previous shipment untouched — no silent partial load
        assert hub_db.schema("fed_sat").checksum() == good_checksum

    def test_ship_via_file_end_to_end_verifies(self, tmp_path):
        satellite = make_satellite("sat")
        hub_db = Database("hub")
        channel = LooseChannel(satellite.schema, hub_db, "fed_sat")
        shipped = channel.ship_via_file(tmp_path / "ok.dump.gz")
        # the shipment is realm-filtered, so compare the replicated tables
        for table in shipped.table_names():
            assert shipped.table(table).checksum() == (
                satellite.schema.table(table).checksum()
            )
        assert "fact_job" in shipped.table_names()

    def test_ship_loose_isolates_member_failures(self, tmp_path):
        hub = FederationHub("hub")
        good = make_satellite("good")
        bad = make_satellite("bad")
        hub.join(good, mode="loose")
        hub.join(bad, mode="loose")
        # sabotage the bad member's export so every shipment fails
        bad_member = hub.member("bad")
        original_export = bad_member.loose_channel.export

        def broken_export():
            dump = original_export()
            dump["checksum"] = "0" * 64  # corrupted in transit
            return dump

        bad_member.loose_channel.export = broken_export
        ingest_jobs(good.schema, [make_job(100)])
        ingest_jobs(bad.schema, [make_job(100)])
        out = hub.ship_loose()
        assert out["good"].status == "applied" and out["good"].applied > 0
        assert out["bad"].status == "failed"
        assert "checksum" in out["bad"].error
        assert hub.lag()["good"] == 0
        # breaker eventually opens for the persistently bad member
        hub.ship_loose()
        hub.ship_loose()
        out = hub.ship_loose()
        assert out["bad"].status == "circuit_open"

    def test_to_tight_handover_after_failed_shipment(self):
        """A failed re-shipment must not poison the loose->tight convert:
        the channel still resumes from the last *successful* shipment."""
        satellite = make_satellite("sat")
        hub = FederationHub("hub")
        member = hub.join(satellite, mode="loose")
        channel = member.loose_channel
        lsn_after_good_ship = channel.last_shipped_lsn
        # same resource as the seed jobs: the delta is exactly 2 fact rows
        ingest_jobs(satellite.schema, [
            make_job(100, resource="sat_cluster"),
            make_job(101, resource="sat_cluster"),
        ])

        original_export = channel.export
        channel.export = lambda: {
            **original_export(), "checksum": "0" * 64
        }
        with pytest.raises(DumpError):
            channel.ship()
        # failed shipment recorded nothing
        assert channel.last_shipped_lsn == lsn_after_good_ship
        assert channel.shipments == 1
        channel.export = original_export

        hub.convert("sat", "tight")
        assert hub.sync()["sat"].applied == 2  # exactly the two new fact rows
        assert hub.database.schema("fed_sat").table("fact_job").checksum() == (
            satellite.schema.table("fact_job").checksum()
        )


class TestLooseSegmentResilience:
    """A loose member's segments apply through the member's one channel,
    under the ``retry_policy`` and ``quarantine`` it joined with."""

    def loose_hub(self, **options):
        hub = FederationHub("hub")
        satellite = make_satellite("sat")
        member = hub.join(satellite, mode="loose", **options)
        base = satellite.schema.binlog.head_lsn
        ingest_jobs(satellite.schema, [
            make_job(100 + i, resource="sat_cluster") for i in range(3)
        ])
        first_fact = next(
            event.lsn for event in satellite.schema.binlog.read_from(base)
            if event.table == "fact_job"
        )
        return hub, satellite, member, first_fact

    def test_poison_event_in_a_segment_is_quarantined_then_replayed(self):
        hub, satellite, member, poison = self.loose_hub(quarantine=True)
        assert member.channel.quarantine
        plan = FaultPlan(poison_lsns={poison})
        inject_apply_faults(member.channel, plan)
        out = hub.ship_loose()["sat"]
        assert (out.status, out.applied, out.quarantined) == ("quarantined", 2, 1)
        assert member.dead_letter_depth == 1
        assert member.loose_channel.last_shipped_lsn == satellite.schema.binlog.head_lsn
        hub.aggregate_federation()
        assert hub.last_aggregation.quarantined == {"sat": 1}
        plan.heal()
        assert member.channel.replay() == 1
        fed = hub.database.schema("fed_sat")
        replicated = [n for n in fed.table_names() if not fed.table(n).schema.derived]
        assert "fact_job" in replicated
        for name in replicated:
            assert fed.table(name).checksum() == satellite.schema.table(name).checksum()

    def test_a_dump_drops_the_dead_letters_it_covers(self):
        """A dump loads the satellite as of its head, the quarantined
        event included: its letter has nothing left to replay."""
        hub, satellite, member, poison = self.loose_hub(quarantine=True)
        plan = FaultPlan(poison_lsns={poison})
        inject_apply_faults(member.channel, plan)
        hub.ship_loose()
        assert member.dead_letter_depth == 1
        member.channel.filter = ReplicationFilter()  # forces a dump
        out = hub.ship_loose()["sat"]
        assert out.status == "applied" and member.loose_channel.stats.dumps == 2
        assert member.dead_letter_depth == 0
        assert member.channel.stats.events_quarantined == 1  # history kept
        plan.heal()
        assert member.channel.replay() == 0
        hub.aggregate_federation()
        assert hub.last_aggregation.quarantined == {}
        fed = hub.database.schema("fed_sat")
        assert len(fed.table("fact_job")) == len(satellite.schema.table("fact_job"))

    def test_transient_fault_in_a_segment_is_retried(self):
        policy = RetryPolicy(max_retries=3)
        hub, _, member, flaky = self.loose_hub(retry_policy=policy)
        assert member.channel.retry_policy is policy
        inject_apply_faults(member.channel, FaultPlan(transient_lsns={flaky}))
        out = hub.ship_loose()["sat"]
        assert (out.status, out.applied, out.retried) == ("retried", 3, 1)
        assert member.dead_letter_depth == 0 and hub.lag()["sat"] == 0


class TestMonitorResilience:
    def test_render_shows_quarantined_member(self, three_site_hub):
        hub, satellites = three_site_hub
        member = hub.member("site1")
        member.channel.quarantine = True
        poison = satellites["site1"].schema.binlog.head_lsn
        ingest_jobs(satellites["site1"].schema, [make_job(100)])
        inject_apply_faults(member.channel, FaultPlan(poison_lsns={poison}))
        hub.sync()
        monitor = FederationMonitor(hub)
        status = monitor.status()
        site1 = next(m for m in status.members if m.name == "site1")
        assert site1.dead_letters == 1
        assert site1.health == "quarantined"
        assert "site1" in status.degraded_members
        text = monitor.render()  # must not crash with a degraded member
        assert "quarantined" in text
        assert "dlq" in text

    def test_status_surfaces_circuit_and_errors(self, three_site_hub):
        hub, satellites = three_site_hub
        flaky = hub.member("site0")
        flaky.breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        ingest_jobs(satellites["site0"].schema, [make_job(100)])
        inject_apply_faults(
            flaky.channel, FaultPlan(transient_rate=1.0, transient_burst=10**9)
        )
        hub.sync()
        status = FederationMonitor(hub).status()
        site0 = next(m for m in status.members if m.name == "site0")
        assert site0.circuit_state == "open"
        assert site0.health == "CIRCUIT-OPEN"
        assert site0.last_error
        text = FederationMonitor(hub).render()
        assert "CIRCUIT-OPEN" in text
        assert "last error" in text

    def test_monitor_survives_member_with_no_schema(self):
        hub = FederationHub("hub")
        satellite = make_satellite("sat")
        hub.join(satellite, mode="loose", initial_sync=False)
        status = FederationMonitor(hub).status()
        member = status.members[0]
        assert member.tables == 0
        assert FederationMonitor(hub).render()  # does not crash