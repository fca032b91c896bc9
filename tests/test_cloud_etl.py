"""Cloud realm ETL: sessionization of VM lifecycle events."""

from __future__ import annotations

import pytest

from repro.etl import JsonSchemaError, ingest_cloud_events
from repro.simulators import vm_sessions
from repro.timeutil import SECONDS_PER_HOUR, ts
from repro.warehouse import Database

T0 = ts(2017, 1, 1)


def event(event_id, vm_id, etype, t, *, vcpus=2, mem=2.0, disk=20.0,
          itype="c2.small", user="u1", project="p1", resource="cloud"):
    return {
        "event_id": event_id, "vm_id": vm_id, "event_type": etype,
        "ts": t, "instance_type": itype, "vcpus": vcpus, "mem_gb": mem,
        "disk_gb": disk, "user": user, "project": project,
        "resource": resource,
    }


@pytest.fixture()
def schema():
    return Database().create_schema("modw")


class TestSessionization:
    def test_simple_lifecycle(self, schema):
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0 + 100),
            event(3, 1, "terminate", T0 + 100 + 4 * SECONDS_PER_HOUR),
        ]
        vms, rejected = ingest_cloud_events(schema, events)
        assert (vms, rejected) == (1, 0)
        vm = next(schema.table("fact_vm").rows())
        assert vm["wall_s"] == 4 * SECONDS_PER_HOUR
        assert vm["core_hours"] == pytest.approx(8.0)  # 2 vcpus x 4h
        assert vm["stopped_s"] == 100  # provision -> start gap
        assert vm["terminate_ts"] == events[-1]["ts"]

    def test_vm_walltime_differs_from_usage(self, schema):
        """The paper's caveat: a VM can sit running long after its job."""
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0),
            event(3, 1, "stop", T0 + SECONDS_PER_HOUR),
            event(4, 1, "terminate", T0 + 10 * SECONDS_PER_HOUR),
        ]
        ingest_cloud_events(schema, events)
        vm = next(schema.table("fact_vm").rows())
        assert vm["wall_s"] == SECONDS_PER_HOUR
        reserved_span = vm["terminate_ts"] - vm["provision_ts"]
        assert reserved_span == 10 * SECONDS_PER_HOUR
        assert vm["reserved_core_hours"] == pytest.approx(2 * 10.0)

    def test_pause_does_not_accumulate_wall(self, schema):
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0),
            event(3, 1, "pause", T0 + SECONDS_PER_HOUR),
            event(4, 1, "unpause", T0 + 3 * SECONDS_PER_HOUR),
            event(5, 1, "terminate", T0 + 4 * SECONDS_PER_HOUR),
        ]
        ingest_cloud_events(schema, events)
        vm = next(schema.table("fact_vm").rows())
        assert vm["wall_s"] == 2 * SECONDS_PER_HOUR
        assert vm["paused_s"] == 2 * SECONDS_PER_HOUR

    def test_resize_changes_core_accounting(self, schema):
        """Configuration 'can even be changed during the life of the VM'."""
        events = [
            event(1, 1, "provision", T0, vcpus=2),
            event(2, 1, "start", T0, vcpus=2),
            event(3, 1, "resize", T0 + SECONDS_PER_HOUR, vcpus=8,
                  mem=8.0, itype="c8.large"),
            event(4, 1, "terminate", T0 + 2 * SECONDS_PER_HOUR, vcpus=8),
        ]
        ingest_cloud_events(schema, events)
        vm = next(schema.table("fact_vm").rows())
        # 1h at 2 cores + 1h at 8 cores
        assert vm["core_hours"] == pytest.approx(2.0 + 8.0)
        assert vm["n_resizes"] == 1
        assert vm["first_instance_type"] == "c2.small"
        assert vm["last_instance_type"] == "c8.large"
        intervals = list(schema.table("fact_vm_interval").rows())
        running = [i for i in intervals if i["state"] == "running"]
        assert sorted(i["vcpus"] for i in running) == [2, 8]

    def test_state_change_count(self, schema):
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0),
            event(3, 1, "stop", T0 + 3600),
            event(4, 1, "start", T0 + 7200),
            event(5, 1, "terminate", T0 + 10800),
        ]
        ingest_cloud_events(schema, events)
        vm = next(schema.table("fact_vm").rows())
        assert vm["n_state_changes"] == 3  # start, stop, start

    def test_open_vm_clamped_to_feed_horizon(self, schema):
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0),
            # no terminate; another VM's event sets the horizon
            event(3, 2, "provision", T0 + 6 * SECONDS_PER_HOUR),
        ]
        ingest_cloud_events(schema, events)
        vm = schema.table("fact_vm").get(
            (next(schema.table("dim_resource").rows())["resource_id"], 1)
        )
        assert vm["terminate_ts"] is None
        assert vm["wall_s"] == 6 * SECONDS_PER_HOUR

    def test_reingest_replaces_vm(self, schema):
        events = [
            event(1, 1, "provision", T0),
            event(2, 1, "start", T0),
            event(3, 1, "terminate", T0 + 3600),
        ]
        ingest_cloud_events(schema, events)
        ingest_cloud_events(schema, events)  # cumulative feed re-dump
        assert len(schema.table("fact_vm")) == 1
        running = [
            i for i in schema.table("fact_vm_interval").rows()
            if i["state"] == "running"
        ]
        assert len(running) == 1

    def test_reingest_of_older_vms_allocates_free_interval_ids(self, schema):
        # re-ingesting any VM but the newest shrinks the live row count
        # below ids still in use; ids must come from above the largest
        from repro.simulators import CloudConfig, CloudSimulator

        events = CloudSimulator(CloudConfig(seed=1, vms_per_day=2)).generate(
            T0, T0 + 20 * 86400
        )
        ingest_cloud_events(schema, events)
        n_intervals = len(schema.table("fact_vm_interval"))
        for vm_id in (1, 2):
            ingest_cloud_events(
                schema, [e for e in events if e["vm_id"] == vm_id]
            )
        intervals = schema.table("fact_vm_interval")
        assert len(intervals) == n_intervals
        assert len(set(intervals.column_values("interval_id"))) == n_intervals

    def test_invalid_event_strict_vs_lenient(self, schema):
        bad = event(1, 1, "explode", T0)
        with pytest.raises(JsonSchemaError):
            ingest_cloud_events(schema, [bad])
        vms, rejected = ingest_cloud_events(schema, [bad], strict=False)
        assert (vms, rejected) == (0, 1)


class TestSimulatedFeed:
    def test_simulated_lifecycles_are_well_formed(self, cloud_events):
        sessions = vm_sessions(cloud_events)
        assert len(sessions) > 20
        for events in sessions.values():
            assert events[0]["event_type"] == "provision"
            assert events[-1]["event_type"] == "terminate"
            timestamps = [e["ts"] for e in events]
            assert timestamps == sorted(timestamps)

    def test_ingest_full_feed(self, schema, cloud_events):
        vms, rejected = ingest_cloud_events(schema, cloud_events)
        assert rejected == 0
        assert vms == len(vm_sessions(cloud_events))
        for vm in schema.table("fact_vm").rows():
            span = vm["terminate_ts"] - vm["provision_ts"]
            assert 0 <= vm["wall_s"] <= span
            assert vm["running_s"] + vm["stopped_s"] + vm["paused_s"] <= span + 1
