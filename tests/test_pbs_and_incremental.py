"""PBS shredder and incremental aggregation."""

from __future__ import annotations

import pytest

from repro.aggregation import JOBS, Aggregator
from repro.etl import (
    IngestPipeline,
    PbsParseError,
    ingest_jobs,
    parse_pbs_log,
    parse_pbs_record,
    parse_sacct_log,
    to_pbs_log,
)
from repro.simulators import to_sacct_log
from repro.timeutil import ts
from repro.warehouse import Database

GOOD_PBS = (
    "03/14/2017 12:34:56;E;123.comet;user=alice group=grp account=pi001 "
    "jobname=namd queue=normal qtime=1489489000 start=1489490000 "
    "end=1489497200 Resource_List.walltime=12:00:00 "
    "Resource_List.nodect=2 Resource_List.ncpus=32 Exit_status=0 "
    "server=comet"
)


class TestPbsParser:
    def test_end_record(self):
        job = parse_pbs_record(GOOD_PBS)
        assert job is not None
        assert job.job_id == 123
        assert job.user == "alice"
        assert job.pi == "pi001"
        assert job.cores == 32 and job.nodes == 2
        assert job.submit_ts == 1489489000
        assert job.walltime_s == 7200
        assert job.req_walltime_s == 12 * 3600
        assert job.state == "COMPLETED"
        assert job.resource == "comet"

    def test_non_end_records_skipped(self):
        queue_record = GOOD_PBS.replace(";E;", ";Q;")
        assert parse_pbs_record(queue_record) is None
        jobs = list(parse_pbs_log("\n".join([queue_record, GOOD_PBS])))
        assert len(jobs) == 1

    @pytest.mark.parametrize("exit_status,state", [
        ("0", "COMPLETED"), ("1", "FAILED"), ("271", "TIMEOUT"),
        ("-1", "CANCELLED"),
    ])
    def test_exit_status_state_inference(self, exit_status, state):
        line = GOOD_PBS.replace("Exit_status=0", f"Exit_status={exit_status}")
        assert parse_pbs_record(line).state == state

    def test_array_job_id(self):
        line = GOOD_PBS.replace(";123.comet;", ";123[4].comet;")
        assert parse_pbs_record(line).job_id == 123

    def test_malformed_records(self):
        with pytest.raises(PbsParseError):
            parse_pbs_record("not a record")
        with pytest.raises(PbsParseError):
            parse_pbs_record(GOOD_PBS.replace(";E;", ";X;"))
        with pytest.raises(PbsParseError):
            parse_pbs_record(GOOD_PBS.replace("qtime=1489489000 ", ""))

    def test_lenient_mode(self):
        text = "\n".join(["garbage", GOOD_PBS, "# comment", ""])
        with pytest.raises(PbsParseError):
            list(parse_pbs_log(text))
        assert len(list(parse_pbs_log(text, strict=False))) == 1

    def test_missing_account_falls_back_to_group(self):
        line = GOOD_PBS.replace("account=pi001 ", "")
        assert parse_pbs_record(line).pi == "grp"


class TestFormatEquivalence:
    def test_sacct_and_pbs_paths_yield_identical_facts(self, job_records):
        """The resource-manager-agnostic claim: same jobs through either
        shredder produce the same warehouse contents."""
        slurm_jobs = sorted(
            parse_sacct_log(to_sacct_log(job_records),
                            default_resource="testcluster"),
            key=lambda j: j.job_id,
        )
        pbs_jobs = sorted(
            parse_pbs_log(to_pbs_log(job_records),
                          default_resource="testcluster"),
            key=lambda j: j.job_id,
        )
        assert len(slurm_jobs) == len(pbs_jobs)
        for a, b in zip(slurm_jobs, pbs_jobs):
            # PBS always records nodect >= 1, sacct records 0 for jobs
            # that never started — compare on the PBS convention
            assert (a.job_id, a.user, a.pi, a.queue, a.cores,
                    max(a.nodes, 1), a.state) == (
                b.job_id, b.user, b.pi, b.queue, b.cores, max(b.nodes, 1),
                b.state,
            )
            assert a.submit_ts == b.submit_ts
            assert a.end_ts == b.end_ts
            # sacct truncates the requested walltime to minutes
            assert abs(a.req_walltime_s - b.req_walltime_s) < 60

    def test_pipeline_ingest_pbs(self, job_records):
        pipe = IngestPipeline(Database())
        n = pipe.ingest_pbs(to_pbs_log(job_records),
                            default_resource="testcluster")
        assert n == len(job_records)


class TestIncrementalAggregation:
    def _jobs(self, start_id, n, *, base_day=2):
        from repro.etl import ParsedJob

        out = []
        for i in range(n):
            start = ts(2017, 1, base_day) + i * 7200
            out.append(ParsedJob(
                job_id=start_id + i, user=f"u{i % 5}", pi="p", queue="q",
                application="a", submit_ts=start - 600, start_ts=start,
                end_ts=start + 5400, nodes=1, cores=4,
                req_walltime_s=7200, state="COMPLETED", exit_code=0,
                resource="r1",
            ))
        return out

    def test_incremental_equals_full_rebuild(self):
        schema = Database().create_schema("modw")
        aggregator = Aggregator(schema)
        ingest_jobs(schema, self._jobs(1, 20))
        assert aggregator.fold(JOBS, "month") == 20
        ingest_jobs(schema, self._jobs(100, 15, base_day=20))
        assert aggregator.fold(JOBS, "month") == 15

        incremental_rows = sorted(
            tuple(sorted(r.items()))
            for r in schema.table("agg_job_month").rows()
        )
        # full rebuild over the same facts
        reference = Database().create_schema("modw")
        ingest_jobs(reference, self._jobs(1, 20) + self._jobs(100, 15, base_day=20))
        Aggregator(reference).aggregate_jobs("month")
        full_rows = sorted(
            tuple(sorted(r.items()))
            for r in reference.table("agg_job_month").rows()
        )
        assert len(incremental_rows) == len(full_rows)
        for inc, full in zip(incremental_rows, full_rows):
            for (k1, v1), (k2, v2) in zip(inc, full):
                assert k1 == k2
                if isinstance(v1, float):
                    assert v1 == pytest.approx(v2)
                else:
                    assert v1 == v2

    def test_incremental_is_idempotent(self):
        schema = Database().create_schema("modw")
        aggregator = Aggregator(schema)
        ingest_jobs(schema, self._jobs(1, 10))
        aggregator.fold(JOBS, "month")
        total = sum(r["cpu_hours"] for r in schema.table("agg_job_month").rows())
        assert aggregator.fold(JOBS, "month") == 0
        assert sum(
            r["cpu_hours"] for r in schema.table("agg_job_month").rows()
        ) == pytest.approx(total)

    def test_full_rebuild_resyncs_incremental_bookkeeping(self):
        schema = Database().create_schema("modw")
        aggregator = Aggregator(schema)
        ingest_jobs(schema, self._jobs(1, 10))
        aggregator.fold(JOBS, "month")
        aggregator.aggregate_jobs("month")  # full rebuild
        # nothing new -> incremental must not double count
        assert aggregator.fold(JOBS, "month") == 0
        raw = sum(r["cpu_hours"] for r in schema.table("fact_job").rows())
        agg = sum(r["cpu_hours"] for r in schema.table("agg_job_month").rows())
        assert agg == pytest.approx(raw)

    def test_incremental_spanning_period_boundary(self):
        from repro.etl import ParsedJob

        schema = Database().create_schema("modw")
        aggregator = Aggregator(schema)
        job = ParsedJob(
            job_id=1, user="u", pi="p", queue="q", application="a",
            submit_ts=ts(2017, 1, 31, 20), start_ts=ts(2017, 1, 31, 22),
            end_ts=ts(2017, 2, 1, 2), nodes=1, cores=10,
            req_walltime_s=14400, state="COMPLETED", exit_code=0,
            resource="r1",
        )
        ingest_jobs(schema, [job])
        aggregator.fold(JOBS, "month")
        rows = {r["period_label"]: r for r in schema.table("agg_job_month").rows()}
        assert rows["2017-01"]["cpu_hours"] == pytest.approx(20.0)
        assert rows["2017-02"]["cpu_hours"] == pytest.approx(20.0)

    def test_incremental_on_empty_schema(self):
        schema = Database().create_schema("modw")
        assert Aggregator(schema).fold(JOBS, "month") == 0
