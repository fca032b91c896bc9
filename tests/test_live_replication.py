"""Live (threaded) replication daemon.

No test here reads a clock or sleeps: ``wait_until_current`` waits on the
condition the daemon notifies after each cycle, and answers at once when
the daemon is not running.
"""

from __future__ import annotations

import pytest

from repro.core import FederationHub, LiveReplicator, XdmodInstance
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts


def make_job(job_id):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 6, 1), start_ts=ts(2017, 6, 1, 1),
        end_ts=ts(2017, 6, 1, 2), nodes=1, cores=2, req_walltime_s=3600,
        state="COMPLETED", exit_code=0, resource="r1",
    )


class TestLiveReplicator:
    def test_background_sync_drains_lag(self, federation):
        hub, satellites, _, _ = federation
        with LiveReplicator(hub, interval_s=0.01) as live:
            ingest_jobs(satellites["site0"].schema,
                        [make_job(5000 + i) for i in range(20)])
            assert live.wait_until_current(timeout=5.0)
        assert hub.lag() == {"site0": 0, "site1": 0}
        fed = hub.database.schema("fed_site0")
        assert fed.table("fact_job").checksum() == (
            satellites["site0"].schema.table("fact_job").checksum()
        )

    def test_stop_drains_by_default(self, federation):
        hub, satellites, _, _ = federation
        live = LiveReplicator(hub, interval_s=60.0).start()  # long interval
        ingest_jobs(satellites["site0"].schema, [make_job(6001)])
        live.stop()  # final drain happens here
        assert hub.lag()["site0"] == 0

    def test_double_start_rejected(self, federation):
        hub, _, _, _ = federation
        live = LiveReplicator(hub, interval_s=0.05).start()
        try:
            with pytest.raises(RuntimeError):
                live.start()
        finally:
            live.stop()
        assert not live.running

    def test_bad_interval(self, federation):
        hub, _, _, _ = federation
        with pytest.raises(ValueError):
            LiveReplicator(hub, interval_s=0)

    def test_stats_accumulate(self, federation):
        hub, satellites, _, _ = federation
        with LiveReplicator(hub, interval_s=0.01) as live:
            ingest_jobs(satellites["site1"].schema, [make_job(7001)])
            live.wait_until_current(timeout=5.0)
        assert live.stats.cycles > 0
        assert live.stats.events_applied >= 1
        assert live.stats.errors == 0

    def test_wait_until_current_answers_at_once_on_standing_lag(self, federation):
        hub, satellites, _, _ = federation
        ingest_jobs(satellites["site0"].schema, [make_job(5555)])
        live = LiveReplicator(hub, interval_s=0.01)
        # never started, so nothing of its own will drain the lag: the
        # wait answers at once (a regression waits out the whole minute)
        assert live.wait_until_current(timeout=60.0) is False

    def test_wait_until_current_succeeds_after_sync(self, federation):
        hub, _, _, _ = federation
        live = LiveReplicator(hub, interval_s=0.01)
        hub.sync()
        assert live.wait_until_current(timeout=60.0) is True

    def test_current_means_tight_members_only(self):
        """A loose member moves only when shipped, so its staleness never
        keeps the daemon from being current."""
        hub = FederationHub("hub")
        tight, loose = XdmodInstance("t"), XdmodInstance("l")
        for satellite in (tight, loose):
            ingest_jobs(satellite.schema, [make_job(1)])
        hub.join(tight, mode="tight")
        hub.join(loose, mode="loose")
        ingest_jobs(loose.schema, [make_job(2)])
        assert hub.lag() == {"l": 1, "t": 0}
        assert LiveReplicator(hub).wait_until_current(timeout=0.5)

    def test_a_member_converted_to_tight_is_waited_on(self):
        hub = FederationHub("hub")
        satellite = XdmodInstance("l")
        ingest_jobs(satellite.schema, [make_job(1)])
        hub.join(satellite, mode="loose")
        live = LiveReplicator(hub, interval_s=0.01).start()
        ingest_jobs(satellite.schema, [make_job(2)])
        assert live.wait_until_current(timeout=0.5)  # loose: not waited on
        live.stop()
        assert hub.lag() == {"l": 1}
        hub.convert("l", "tight")
        assert not live.wait_until_current(timeout=0.1)  # stopped: still lags
        live.start()
        try:
            assert live.wait_until_current(timeout=5.0)
        finally:
            live.stop()
        assert hub.lag() == {"l": 0}
        fed = hub.database.schema("fed_l")
        assert fed.table("fact_job").checksum() == (
            satellite.schema.table("fact_job").checksum()
        )
