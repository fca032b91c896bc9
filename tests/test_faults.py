"""Fault injection: deterministic failures for schemas, cursors, dumps."""

from __future__ import annotations

import pytest

from repro.core import (
    FaultPlan,
    FaultySchema,
    LooseChannel,
    PoisonApplyFault,
    ReplicationChannel,
    ReplicationError,
    RetryPolicy,
    TransientApplyFault,
    corrupt_dump_file,
    inject_apply_faults,
    stall_binlog,
    truncate_dump_file,
)
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Database, DumpError, dump_schema, read_dump_file
from repro.warehouse.dump import dump_checksum


def make_job(job_id, resource="r1"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 3), nodes=1, cores=2, req_walltime_s=7200,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def satellite_schema():
    schema = Database("sat").create_schema("modw")
    ingest_jobs(schema, [make_job(i) for i in range(5)])
    return schema


class TestFaultPlan:
    def test_transient_rate_is_seed_deterministic(self):
        a = FaultPlan(seed=11, transient_rate=0.4)
        b = FaultPlan(seed=11, transient_rate=0.4)
        c = FaultPlan(seed=12, transient_rate=0.4)
        picks_a = [a.is_transient(lsn) for lsn in range(200)]
        assert picks_a == [b.is_transient(lsn) for lsn in range(200)]
        assert picks_a != [c.is_transient(lsn) for lsn in range(200)]
        assert 0 < sum(picks_a) < 200  # the rate actually selects a subset

    def test_transient_clears_after_burst(self):
        plan = FaultPlan(transient_lsns={5}, transient_burst=2)
        assert isinstance(plan.should_fail(5, 0), TransientApplyFault)
        assert isinstance(plan.should_fail(5, 1), TransientApplyFault)
        assert plan.should_fail(5, 2) is None
        assert plan.should_fail(6, 0) is None

    def test_poison_fails_until_healed(self):
        plan = FaultPlan(poison_lsns={9})
        assert isinstance(plan.should_fail(9, 0), PoisonApplyFault)
        assert isinstance(plan.should_fail(9, 99), PoisonApplyFault)
        plan.heal(9)
        assert plan.should_fail(9, 100) is None

    def test_heal_all(self):
        plan = FaultPlan(poison_lsns={1, 2})
        plan.heal()
        assert plan.should_fail(1, 0) is None
        assert plan.should_fail(2, 0) is None


class TestFaultySchema:
    def test_delegates_everything_else(self, satellite_schema):
        hub = Database("hub").create_schema("fed_sat")
        faulty = FaultySchema(hub, FaultPlan())
        assert faulty.name == "fed_sat"
        assert faulty.table_names() == []

    def test_transient_fault_absorbed_by_retry(self, satellite_schema):
        hub_db = Database("hub")
        target = hub_db.create_schema("fed_sat")
        channel = ReplicationChannel(
            satellite_schema, target,
            retry_policy=RetryPolicy(max_retries=2, seed=0),
        )
        head = satellite_schema.binlog.head_lsn
        wrapper = inject_apply_faults(
            channel, FaultPlan(transient_lsns=set(range(head)), transient_burst=1)
        )
        applied = channel.catch_up()
        assert applied > 0
        assert channel.lag == 0
        assert wrapper.faults_raised > 0
        assert channel.stats.retries >= wrapper.faults_raised
        assert target.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )

    def test_fault_beyond_retries_surfaces(self, satellite_schema):
        channel = ReplicationChannel(
            satellite_schema, Database("hub").create_schema("fed_sat"),
            retry_policy=RetryPolicy(max_retries=1),
        )
        head = satellite_schema.binlog.head_lsn
        inject_apply_faults(
            channel,
            FaultPlan(transient_lsns=set(range(head)), transient_burst=10),
        )
        with pytest.raises(ReplicationError):
            channel.pump()


class TestFaultsUnderBatchedApply:
    """``FaultySchema`` has its own ``apply_rows``: without it the proxy's
    ``__getattr__`` would hand a whole batch to the wrapped schema and the
    plan would never be consulted."""

    @staticmethod
    def _thousand_event_run():
        """A source whose log ends in 1 000 contiguous fact_job inserts."""
        schema = Database("sat").create_schema("modw")
        ingest_jobs(schema, [make_job(0)])  # the dimension rows
        run_start = schema.binlog.head_lsn
        ingest_jobs(schema, [make_job(i) for i in range(1, 1001)])
        assert schema.binlog.head_lsn - run_start == 1000
        assert {e.table for e in schema.binlog.read_from(run_start)} == {"fact_job"}
        return schema, run_start

    @staticmethod
    def _outcome(schema, batch, plan, **knobs):
        target = Database("hub").create_schema("fed_sat")
        channel = ReplicationChannel(schema, target, **knobs)
        wrapper = inject_apply_faults(channel, plan)
        error = None
        try:
            applied = channel.catch_up(batch)
        except ReplicationError as exc:
            applied, error = None, str(exc)
        stats = vars(channel.stats).copy()
        del stats["syncs"]
        return {
            "applied": applied,
            "error": error,
            "stats": stats,
            "cursor": channel.cursor.position,
            "dead_letters": [
                (letter.event, letter.error, letter.attempts)
                for letter in channel.dead_letters
            ],
            "attempts": wrapper.attempts,
            "faults_raised": wrapper.faults_raised,
            "rows": list(target.table("fact_job").raw_rows()),
            "versions": (target.data_version, target.table("fact_job").data_version),
            "binlog": target.binlog.checksum(),
        }

    @pytest.mark.parametrize("knobs", [
        dict(quarantine=True),
        dict(quarantine=True, retry_policy=RetryPolicy(max_retries=2, seed=1)),
        dict(),
        dict(retry_policy=RetryPolicy(max_retries=2, seed=1)),
    ], ids=["quarantine", "quarantine+retry", "fail-stop", "fail-stop+retry"])
    def test_poison_mid_run_ends_as_one_event_at_a_time(self, knobs):
        schema, run_start = self._thousand_event_run()
        poison = run_start + 500

        def plan():
            return FaultPlan(
                poison_lsns={poison},
                transient_lsns={run_start + 100, run_start + 900},
                transient_burst=2,
            )

        one = self._outcome(schema, 1, plan(), **knobs)
        batched = self._outcome(schema, 5000, plan(), **knobs)  # one pump, one run
        assert batched == one
        if knobs.get("quarantine") and "retry_policy" in knobs:
            assert [event.lsn for event, _, _ in one["dead_letters"]] == [poison]
            assert one["applied"] == schema.binlog.head_lsn - 1
            assert one["attempts"][poison] == 3 and one["attempts"][run_start] == 1
        if not knobs:
            # stops at the first transient fault, the cursor on it
            assert f"LSN {run_start + 100}" in one["error"]
            assert one["cursor"] == run_start + 100

    def test_refused_batch_consumes_no_attempt(self):
        schema, run_start = self._thousand_event_run()
        hub = Database("hub").create_schema("fed_sat")
        for event in schema.binlog.read_from(0, run_start):
            hub.apply_event(event)
        faulty = FaultySchema(hub, FaultPlan(transient_lsns={run_start + 7}))
        (run,) = schema.binlog.read_records(run_start)
        with pytest.raises(TransientApplyFault):
            faulty.apply_rows(run)
        assert faulty.attempts == {} and len(hub.table("fact_job")) == 1
        # event by event the fault is met, counted, and cleared by its burst
        with pytest.raises(TransientApplyFault):
            faulty.apply_event(run.events()[7])
        faulty.apply_rows(run)
        assert len(hub.table("fact_job")) == 1001
        assert faulty.attempts[run_start + 7] == 2 and faulty.attempts[run_start] == 1


class TestStalledCursor:
    def test_stall_then_resume(self, satellite_schema):
        hub_db = Database("hub")
        channel = ReplicationChannel(
            satellite_schema, hub_db.create_schema("fed_sat")
        )
        wrapper = stall_binlog(channel, polls=2)
        assert channel.pump() == 0  # stalled: nothing delivered
        assert channel.lag > 0  # but lag is still visible
        assert channel.pump() == 0
        assert not wrapper.stalled
        assert channel.catch_up() > 0  # stall cleared: catches up fully
        assert channel.lag == 0

    def test_catch_up_does_not_spin_while_stalled(self, satellite_schema):
        channel = ReplicationChannel(
            satellite_schema, Database("hub").create_schema("fed_sat")
        )
        stall_binlog(channel, polls=10**6)
        assert channel.catch_up() == 0  # bails out instead of spinning
        assert channel.lag > 0


class TestDumpDamage:
    def test_dump_checksum_matches_schema_checksum(self, satellite_schema):
        dump = dump_schema(satellite_schema)
        assert dump_checksum(dump) == satellite_schema.checksum()
        assert dump["checksum"] == dump_checksum(dump)

    def test_payload_corruption_caught_by_checksum(
        self, satellite_schema, tmp_path
    ):
        path = tmp_path / "sat.dump.gz"
        channel = LooseChannel(satellite_schema, Database("hub"), "fed_sat")
        channel.ship_via_file(path)
        corrupt_dump_file(path, seed=3, mode="payload")
        received = read_dump_file(path)  # still parses...
        assert dump_checksum(received) != received["checksum"]  # ...but lies

    def test_raw_corruption_breaks_parse_or_framing(
        self, satellite_schema, tmp_path
    ):
        path = tmp_path / "sat.dump.gz"
        LooseChannel(satellite_schema, Database("hub"), "fed_sat").ship_via_file(
            path
        )
        corrupt_dump_file(path, seed=4, mode="raw")
        with pytest.raises(DumpError):
            read_dump_file(path)

    def test_truncated_file_rejected(self, satellite_schema, tmp_path):
        path = tmp_path / "sat.dump.gz"
        LooseChannel(satellite_schema, Database("hub"), "fed_sat").ship_via_file(
            path
        )
        truncate_dump_file(path, keep_fraction=0.5)
        with pytest.raises(DumpError):
            read_dump_file(path)

    def test_corruption_is_deterministic(self, satellite_schema, tmp_path):
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        a, b = tmp_path / "d1" / "x.gz", tmp_path / "d2" / "x.gz"
        # two fresh channels: each first ship is a full dump of the same
        # source (a second ship through one channel would send a segment)
        for path in (a, b):
            LooseChannel(satellite_schema, Database("hub"), "fed_sat").ship_via_file(path)
        corrupt_dump_file(a, seed=7, mode="payload")
        corrupt_dump_file(b, seed=7, mode="payload")
        # same seed, same source bytes => byte-identical damage
        assert read_dump_file(a) == read_dump_file(b)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"123")
        with pytest.raises(ValueError):
            corrupt_dump_file(path, mode="nope")
        with pytest.raises(ValueError):
            truncate_dump_file(path, keep_fraction=1.5)

# -- trace propagation under faults -------------------------------------------


class TestTraceUnderFaults:
    """Quarantine and replay keep the federated trace story intact."""

    def _traced_setup(self):
        from repro.obs import FakeClock, Observability

        sat_obs = Observability(clock=FakeClock(), name="sat")
        schema = Database(
            "sat", trace_provider=sat_obs.tracer.current_context
        ).create_schema("modw")
        with sat_obs.tracer.span("ingest_batch"):
            ingest_jobs(schema, [make_job(i) for i in range(5)])
        hub_obs = Observability(clock=FakeClock(), name="hub")
        target = Database("hub").create_schema("fed_sat")
        channel = ReplicationChannel(
            schema, target, quarantine=True, obs=hub_obs, name="sat"
        )
        poison = schema.binlog.head_lsn - 1  # the final fact insert
        wrapper = inject_apply_faults(channel, FaultPlan(poison_lsns={poison}))
        return sat_obs, hub_obs, channel, wrapper, poison

    def test_quarantined_event_keeps_its_trace_context(self):
        sat_obs, _, channel, _, poison = self._traced_setup()
        channel.catch_up()
        letter = channel.dead_letters.get(poison)
        assert letter.trace is not None
        assert letter.trace.instance == "sat"
        assert letter.trace.trace_id.startswith("sat:")
        # the context names the span that was live at binlog append time
        ingest = [
            s for s in sat_obs.tracer.finished if s.name == "ingest_batch"
        ]
        assert letter.trace.qualified_span == ingest[0].qualified_id

    def test_replay_relinks_into_the_original_trace(self):
        from repro.obs import FederatedTraceAssembler

        sat_obs, hub_obs, channel, wrapper, poison = self._traced_setup()
        channel.catch_up()
        letter = channel.dead_letters.get(poison)
        wrapper.plan.heal()
        assert channel.replay() == 1
        assert poison not in channel.dead_letters
        replays = [
            s for s in hub_obs.tracer.finished
            if s.name == "dead_letter_replay"
        ]
        assert len(replays) == 1
        assert replays[0].trace_id == letter.trace.trace_id
        assert replays[0].remote_parent == letter.trace.qualified_span
        # quarantine + replay assemble into the satellite's ingest trace
        assembler = FederatedTraceAssembler(hub_obs.tracer, sat_obs.tracer)
        assert any(
            s.name == "dead_letter_replay"
            for s in assembler.reparented_spans(letter.trace.trace_id)
        )
