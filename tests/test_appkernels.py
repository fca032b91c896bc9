"""App-kernel QoS module: runs, degradations, control-chart detection."""

from __future__ import annotations


from repro.appkernels import (
    AppKernelRunner,
    AppKernelSpec,
    Degradation,
    availability,
    detect_flags,
    ingest_appkernels,
    merge_incidents,
)
from repro.simulators import ResourceSpec
from repro.timeutil import SECONDS_PER_DAY, ts
from repro.warehouse import Database

T0 = ts(2017, 1, 1)
RESOURCE = ResourceSpec("qos_cluster", 8, 16, 64, 16.0)


def run_window(days=60, *, degradations=(), seed=0, failure_rate=0.0):
    runner = AppKernelRunner(
        RESOURCE,
        kernels=(AppKernelSpec("probe", (16,), 600.0, noise=0.02),),
        seed=seed,
        failure_rate=failure_rate,
    )
    for degradation in degradations:
        runner.inject(degradation)
    return runner.run(T0, T0 + days * SECONDS_PER_DAY)


class TestRunner:
    def test_cadence_and_core_counts(self):
        runner = AppKernelRunner(RESOURCE, seed=1)
        results = runner.run(T0, T0 + 3 * SECONDS_PER_DAY)
        expected_per_day = sum(len(k.core_counts) for k in runner.kernels)
        assert len(results) == 3 * expected_per_day

    def test_deterministic(self):
        assert run_window(10) == run_window(10)

    def test_scaling_with_cores(self):
        spec = AppKernelSpec("scale", (8, 64), 1000.0, noise=0.0)
        runner = AppKernelRunner(RESOURCE, kernels=(spec,), seed=0, failure_rate=0.0)
        results = runner.run(T0, T0 + SECONDS_PER_DAY)
        by_cores = {r.cores: r.runtime_s for r in results}
        assert by_cores[64] < by_cores[8]

    def test_failures_have_no_runtime(self):
        results = run_window(30, failure_rate=0.5, seed=3)
        failed = [r for r in results if not r.succeeded]
        assert failed and all(r.runtime_s == 0.0 for r in failed)

    def test_availability(self):
        results = run_window(30, failure_rate=0.2, seed=3)
        rates = availability(results)
        assert 0.5 < rates["probe"] < 0.95


class TestQosDetection:
    DEGRADATION = Degradation(
        start_ts=T0 + 30 * SECONDS_PER_DAY,
        end_ts=T0 + 40 * SECONDS_PER_DAY,
        slowdown=1.5,
    )

    def test_degradation_flagged(self):
        results = run_window(60, degradations=[self.DEGRADATION])
        flags = detect_flags(results)
        assert flags
        window = (self.DEGRADATION.start_ts, self.DEGRADATION.end_ts)
        assert all(window[0] <= f.ts < window[1] for f in flags)
        assert all(f.sigma >= 4.0 for f in flags)

    def test_clean_run_mostly_quiet(self):
        flags = detect_flags(run_window(60))
        assert len(flags) <= 2  # noise may produce the odd false positive

    def test_kernel_scoped_degradation(self):
        io_only = Degradation(
            start_ts=T0 + 20 * SECONDS_PER_DAY,
            end_ts=T0 + 25 * SECONDS_PER_DAY,
            slowdown=2.0,
            kernels=("ior",),
        )
        runner = AppKernelRunner(RESOURCE, seed=2, failure_rate=0.0)
        runner.inject(io_only)
        results = runner.run(T0, T0 + 50 * SECONDS_PER_DAY)
        flags = detect_flags(results)
        assert flags
        assert {f.kernel for f in flags} == {"ior"}

    def test_incident_merging(self):
        results = run_window(60, degradations=[self.DEGRADATION])
        flags = detect_flags(results)
        incidents = merge_incidents(flags, gap_s=2 * SECONDS_PER_DAY)
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident.n_runs == len(flags)
        assert incident.worst_sigma >= 4.0

    def test_incidents_split_on_gap(self):
        early = Degradation(T0 + 10 * SECONDS_PER_DAY, T0 + 12 * SECONDS_PER_DAY, 1.6)
        late = Degradation(T0 + 40 * SECONDS_PER_DAY, T0 + 42 * SECONDS_PER_DAY, 1.6)
        results = run_window(60, degradations=[early, late])
        incidents = merge_incidents(
            detect_flags(results), gap_s=2 * SECONDS_PER_DAY
        )
        assert len(incidents) == 2


class TestIngest:
    def test_warehouse_storage(self):
        schema = Database().create_schema("modw")
        results = run_window(10)
        n = ingest_appkernels(schema, results)
        assert n == len(results)
        assert len(schema.table("fact_appkernel")) == n
        # append-only: second batch continues ids
        ingest_appkernels(schema, results[:3])
        assert len(schema.table("fact_appkernel")) == n + 3

    def test_run_ids_follow_the_largest_stored_one(self):
        """After a deleted run, a batch still lands every record under a
        fresh id and leaves every stored run as it was (ids used to be
        ``len + 1``, which collides with a stored run)."""
        schema = Database().create_schema("modw")
        results = run_window(10)
        ingest_appkernels(schema, results[:5])
        table = schema.table("fact_appkernel")
        table.delete_key((2,))
        stored = {row["run_id"]: row for row in table.rows()}
        assert ingest_appkernels(schema, results[5:8]) == 3
        rows = {row["run_id"]: row for row in table.rows()}
        assert sorted(rows) == [1, 3, 4, 5, 6, 7, 8]
        assert all(rows[run_id] == row for run_id, row in stored.items())

    def test_one_batch_with_the_row_events(self):
        """One version bump by the batch size, one ``INSERT`` per run."""
        schema = Database().create_schema("modw")
        results = run_window(10)
        ingest_appkernels(schema, results[:1])
        version, head = schema.data_version, schema.binlog.head_lsn
        ingest_appkernels(schema, results[1:6])
        assert schema.data_version - version == 5
        events = schema.binlog.read_from(head)
        assert [e.etype.value for e in events] == ["insert"] * 5
        assert [e.data["row"]["run_id"] for e in events] == [2, 3, 4, 5, 6]
