"""Allocations realm: grants, charge reconciliation, burn metrics."""

from __future__ import annotations

import pytest

from repro.etl import ParsedJob, ingest_jobs
from repro.realms import (
    Allocation,
    aggregate_allocations,
    allocation_balances,
    allocations_realm,
    reconcile_charges,
    register_allocations,
)
from repro.simulators import ConversionTable
from repro.timeutil import ts
from repro.warehouse import Database

Q1_START, Q1_END = ts(2017, 1, 1), ts(2017, 4, 1)
YEAR_END = ts(2018, 1, 1)


def job(job_id, *, pi="pi_alpha", resource="r1", end=ts(2017, 2, 1), cores=10,
        hours=10):
    return ParsedJob(
        job_id=job_id, user="u1", pi=pi, queue="q", application="a",
        submit_ts=end - hours * 3600 - 60, start_ts=end - hours * 3600,
        end_ts=end, nodes=1, cores=cores, req_walltime_s=hours * 3600,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def schema():
    s = Database().create_schema("modw")
    conv = ConversionTable({"r1": 2.0})
    ingest_jobs(s, [job(1), job(2, end=ts(2017, 3, 1)),
                    job(3, pi="pi_beta"),
                    job(4, end=ts(2017, 6, 1))], conversion=conv)
    register_allocations(s, [
        Allocation(1, "pi_alpha", "r1", 1000.0, Q1_START, Q1_END),
        Allocation(2, "pi_beta", "r1", 500.0, Q1_START, YEAR_END),
    ])
    return s


class TestRegistration:
    def test_upsert_by_id(self, schema):
        register_allocations(schema, [
            Allocation(1, "pi_alpha", "r1", 2000.0, Q1_START, Q1_END),
        ])
        row = schema.table("dim_allocation").get((1,))
        assert row["su_granted"] == 2000.0
        assert len(schema.table("dim_allocation")) == 2

    def test_invalid_allocations_rejected(self, schema):
        with pytest.raises(ValueError):
            register_allocations(schema, [
                Allocation(9, "p", "r1", 10.0, Q1_END, Q1_START),
            ])
        with pytest.raises(ValueError):
            register_allocations(schema, [
                Allocation(9, "p", "r1", -1.0, Q1_START, Q1_END),
            ])


class TestReconciliation:
    def test_jobs_charge_covering_allocation(self, schema):
        charged, uncovered = reconcile_charges(schema)
        # jobs 1,2 (pi_alpha, Q1) -> alloc 1; job 3 (pi_beta) -> alloc 2;
        # job 4 ends in June, outside pi_alpha's Q1 window -> uncovered
        assert charged == 3
        assert uncovered == 1
        by_alloc = {}
        for charge in schema.table("fact_allocation_charge").rows():
            by_alloc.setdefault(charge["allocation_id"], 0)
            by_alloc[charge["allocation_id"]] += 1
        assert by_alloc == {1: 2, 2: 1}

    def test_charges_in_xdsu(self, schema):
        reconcile_charges(schema)
        charge = next(schema.table("fact_allocation_charge").rows())
        # 10 cores x 10 h x factor 2.0 = 200 XD SUs
        assert charge["xdsu_charged"] == pytest.approx(200.0)

    def test_reconcile_is_idempotent(self, schema):
        reconcile_charges(schema)
        charged, _ = reconcile_charges(schema)
        assert charged == 3
        assert len(schema.table("fact_allocation_charge")) == 3


class TestBalances:
    def test_remaining_and_overspend_flag(self, schema):
        reconcile_charges(schema)
        balances = {b["allocation_id"]: b for b in allocation_balances(schema)}
        assert balances[1]["xdsu_charged"] == pytest.approx(400.0)
        assert balances[1]["remaining"] == pytest.approx(600.0)
        assert not balances[1]["overspent"]
        # shrink the grant below usage -> overspent
        register_allocations(schema, [
            Allocation(1, "pi_alpha", "r1", 100.0, Q1_START, Q1_END),
        ])
        balances = {b["allocation_id"]: b for b in allocation_balances(schema)}
        assert balances[1]["overspent"]


class TestRealmQueries:
    def test_aggregate_and_query(self, schema):
        reconcile_charges(schema)
        aggregate_allocations(schema, "month")
        realm = allocations_realm()
        charged = realm.query(
            schema, "xdsu_charged", start=Q1_START, end=YEAR_END,
            group_by="project", view="aggregate",
        ).totals()
        assert charged["pi_alpha"] == pytest.approx(400.0)
        assert charged["pi_beta"] == pytest.approx(200.0)

    def test_grant_prorated_over_window(self, schema):
        reconcile_charges(schema)
        aggregate_allocations(schema, "month")
        realm = allocations_realm()
        granted = realm.query(
            schema, "su_granted", start=Q1_START, end=YEAR_END,
            group_by="allocation", view="aggregate",
        ).totals()
        # full grants recovered when summed over their windows
        assert granted["1"] == pytest.approx(1000.0)
        assert granted["2"] == pytest.approx(500.0)

    def test_utilization_ratio(self, schema):
        reconcile_charges(schema)
        aggregate_allocations(schema, "month")
        realm = allocations_realm()
        utilization = realm.query(
            schema, "grant_utilization", start=Q1_START, end=YEAR_END,
            view="aggregate",
        ).totals()["total"]
        assert utilization == pytest.approx(600.0 / 1500.0)

    def test_empty_schema(self):
        schema = Database().create_schema("modw")
        from repro.realms import create_allocations_realm

        create_allocations_realm(schema)
        assert aggregate_allocations(schema, "month") == 0


class TestRegistrationIsAllOrNothing:
    def test_a_bad_grant_stores_none_of_the_batch(self, schema):
        before = sorted(schema.table("dim_allocation").raw_rows())
        version = schema.data_version
        with pytest.raises(ValueError, match="allocation 11"):
            register_allocations(schema, [
                Allocation(10, "pi_gamma", "r1", 10.0, Q1_START, Q1_END),
                Allocation(11, "pi_gamma", "r1", 10.0, Q1_END, Q1_START),
                Allocation(1, "pi_alpha", "r1", 1.0, Q1_START, Q1_END),
            ])
        assert sorted(schema.table("dim_allocation").raw_rows()) == before
        assert schema.data_version == version

    def test_batch_lands_like_upserts_one_by_one(self, schema):
        twin = Database().create_schema("modw")
        grants = [
            Allocation(3, "pi_gamma", "r1", 10.0, Q1_START, Q1_END),
            Allocation(3, "pi_gamma", "r1", 20.0, Q1_START, YEAR_END),
            Allocation(4, "pi_delta", "r1", 5, Q1_START, Q1_END),
        ]
        assert register_allocations(schema, grants) == 3
        for grant in grants:
            register_allocations(twin, [grant])
        assert schema.table("dim_allocation").get((3,))["su_granted"] == 20.0
        assert schema.table("dim_allocation").get((4,))["su_granted"] == 5.0
        def row_events(s):
            return [
                (e.etype, e.data) for e in s.binlog
                if e.table == "dim_allocation" and "row" in e.data
            ]

        assert row_events(schema)[-3:] == row_events(twin)
        assert [etype.value for etype, _ in row_events(twin)] == ["insert", "update", "insert"]
