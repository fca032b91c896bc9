"""One declaration per realm aggregate: ``repro.aggregation.AggregateSpec``.

Three families of tests:

1. the spec and everything read from it agree: every spec's table is
   derived and keyed ``period_start`` + the spec's key for every period,
   repolint's catalog holds exactly those tables, and every shipped
   realm's metrics and dimensions name numeric / existing columns of its
   spec's table (a typo there used to surface only as a ``KeyError``
   mid-request);
2. the Allocations fold: ``aggregate_allocations`` against the per-row
   builder it replaced (``tests/aggregation_oracles.py``), and a fold
   equal to a rebuild;
3. what ``aggregate_all`` / ``aggregate_all_incremental`` return — keys
   and their order — and the ``Schema.data_version`` they leave, pinned.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.aggregation import (
    ALLOCATIONS,
    CLOUD,
    JOBS,
    SPECS,
    STORAGE,
    Aggregator,
)
from repro.analysis.catalog import build_default_catalog
from repro.etl import ParsedJob, ingest_jobs
from repro.etl.star import jobs_star_schemas
from repro.realms import (
    Allocation,
    aggregate_allocations,
    allocations_realm,
    cloud_realm,
    jobs_realm,
    reconcile_charges,
    register_allocations,
    storage_realm,
    supremm_realm,
)
from repro.simulators import ConversionTable
from repro.timeutil import PERIODS, SECONDS_PER_DAY
from repro.warehouse import ColumnType, Database
from tests.aggregation_oracles import aggregate_allocations_oracle
from tests.conftest import property_settings
from tests.test_columnar_aggregation import (
    T0,
    build_schema,
    insert_interval,
    insert_job,
    seeded,
)

SETTINGS = property_settings(25)
NUMERIC = (ColumnType.INT, ColumnType.FLOAT)
REALMS = [
    (jobs_realm, JOBS), (storage_realm, STORAGE), (cloud_realm, CLOUD),
    (allocations_realm, ALLOCATIONS),
]


# -- 1. the spec and what reads it ----------------------------------------------


class TestSpecs:
    @pytest.mark.parametrize("period", PERIODS)
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.realm)
    def test_table_is_derived_and_keyed_by_period_then_key(self, spec, period):
        table = spec.table_schema(period)
        assert table.name == f"{spec.prefix}_{period}"
        assert table.derived
        assert table.primary_key == ("period_start", *spec.key)
        assert table.column_names == (
            "period_start", "period_label", *(name for name, _ in spec.columns)
        )
        assert not any(column.nullable for column in table.columns)

    def test_catalog_registers_every_spec_table(self):
        catalog = build_default_catalog()
        for spec in SPECS:
            for period in PERIODS:
                assert catalog.get(f"{spec.prefix}_{period}") == spec.table_schema(period)

    def test_every_spec_is_a_realm_and_in_aggregate_order(self):
        assert [spec.realm for spec in SPECS] == ["jobs", "storage", "cloud", "allocations"]
        assert [(realm().name, realm().agg_prefix) for realm, _ in REALMS] == [
            (spec.realm, spec.prefix) for spec in SPECS
        ]

    @pytest.mark.parametrize("factory, spec", REALMS, ids=[s.realm for _, s in REALMS])
    def test_realm_metrics_and_dimensions_name_columns_of_the_spec_table(
        self, factory, spec
    ):
        table = spec.table_schema("month")
        realm = factory()
        for metric in realm.metrics.values():
            for column in filter(None, (metric.numerator, metric.denominator)):
                assert table.column(column).ctype in NUMERIC, (metric.name, column)
        for dimension in realm.dimensions.values():
            assert dimension.column in table.column_names, dimension.name

    def test_supremm_dimensions_name_fact_job_columns(self):
        fact_job = next(t for t in jobs_star_schemas() if t.name == "fact_job")
        dimensions = supremm_realm().dimensions
        assert sorted(dimensions) == ["application", "person", "resource"]
        for dimension in dimensions.values():
            assert dimension.column in fact_job.column_names


# -- 2. Allocations --------------------------------------------------------------


def job(job_id, *, pi, resource, end, hours, cores):
    return ParsedJob(
        job_id=job_id, user="u1", pi=pi, queue="q", application="a",
        submit_ts=end - hours * 3600 - 60, start_ts=end - hours * 3600,
        end_ts=end, nodes=1, cores=cores, req_walltime_s=hours * 3600,
        state="COMPLETED", exit_code=0, resource=resource,
    )


def allocations_schema(jobs, grants):
    """Jobs ingested, grants registered, charges reconciled."""
    schema = Database().create_schema("modw")
    ingest_jobs(
        schema,
        [
            job(i + 1, pi=pi, resource=resource, end=T0 + end, hours=hours, cores=cores)
            for i, (pi, resource, end, hours, cores) in enumerate(jobs)
        ],
        conversion=ConversionTable({"r1": 2.0, "r2": 0.75}),
    )
    register_allocations(schema, [
        Allocation(i + 1, project, resource, granted, T0 + start, T0 + start + length)
        for i, (project, resource, granted, start, length) in enumerate(grants)
    ])
    reconcile_charges(schema)
    return schema


def assert_rows_match(got, want):
    """Same rows in the same order; ints and strings exactly, floats to a
    relative 1e-9."""
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        for value_got, value_want in zip(row_got, row_want):
            assert type(value_got) is type(value_want)
            if isinstance(value_want, float):
                assert value_got == pytest.approx(value_want, rel=1e-9, abs=1e-12)
            else:
                assert value_got == value_want


YEAR = 365 * SECONDS_PER_DAY
jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from(["pa", "pb", "pc"]),
        st.sampled_from(["r1", "r2"]),
        st.integers(1 * SECONDS_PER_DAY, YEAR),  # end offset
        st.integers(1, 96),                      # hours
        st.integers(1, 64),                      # cores
    ),
    max_size=25,
)
grants_strategy = st.lists(
    st.tuples(
        st.sampled_from(["pa", "pb", "pc", "pz"]),   # pz: never charged
        st.sampled_from(["r1", "r2", "r9"]),         # r9: no such resource
        st.floats(0.0, 1e5),
        st.integers(0, YEAR),                        # start offset, any second
        st.integers(1, 200 * SECONDS_PER_DAY),       # window, any length
    ),
    max_size=8,
)


class TestAllocationsFold:
    @SETTINGS
    @given(jobs=jobs_strategy, grants=grants_strategy, period=st.sampled_from(PERIODS))
    def test_matches_the_per_row_oracle(self, jobs, grants, period):
        schema = allocations_schema(jobs, grants)
        name = ALLOCATIONS.table_schema(period).name
        written = aggregate_allocations(schema, period)
        got = list(schema.table(name).raw_rows())
        assert written == len(got)
        assert aggregate_allocations_oracle(schema, period) == written
        assert_rows_match(got, list(schema.table(name).raw_rows()))

    def test_grants_without_charges_cross_period_boundaries(self):
        schema = allocations_schema([], [("pz", "r1", 900.0, 0, 90 * SECONDS_PER_DAY)])
        assert aggregate_allocations(schema, "month") == 3
        rows = list(schema.table("agg_allocation_month").rows())
        assert [r["n_jobs_charged"] for r in rows] == [0, 0, 0]
        assert sum(r["su_granted"] for r in rows) == pytest.approx(900.0)
        assert {r["resource_id"] for r in rows} == {0}  # r1 never ran a job here

    def test_fold_equals_rebuild_after_appended_grants_and_resources(self):
        schema = allocations_schema(
            [("pa", "r1", 40 * SECONDS_PER_DAY, 10, 8)],
            [("pa", "r1", 1000.0, 0, YEAR)],
        )
        aggregator = Aggregator(schema)
        aggregator.rebuild(ALLOCATIONS, "month")
        register_allocations(schema, [Allocation(2, "pz", "r9", 50.0, T0, T0 + YEAR)])
        assert aggregator.fold(ALLOCATIONS, "month") == 1
        # a resource registered after the fold renames the grants naming it
        schema.table("dim_resource").insert({"resource_id": 9, "name": "r9"})
        assert aggregator.fold(ALLOCATIONS, "month") == 1
        folded = sorted(schema.table("agg_allocation_month").raw_rows())
        assert {row[4] for row in folded if row[2] == 2} == {9}
        aggregator.rebuild(ALLOCATIONS, "month")
        assert sorted(schema.table("agg_allocation_month").raw_rows()) == folded

    @SETTINGS
    @given(jobs=jobs_strategy, grants=grants_strategy, late=grants_strategy,
           period=st.sampled_from(PERIODS))
    def test_fold_equals_rebuild_after_late_grants_and_a_late_resource(
        self, jobs, grants, late, period
    ):
        schema = allocations_schema(jobs, grants)
        aggregator = Aggregator(schema)
        aggregator.fold(ALLOCATIONS, period)
        register_allocations(schema, [
            Allocation(len(grants) + i + 1, project, resource, granted,
                       T0 + start, T0 + start + length)
            for i, (project, resource, granted, start, length) in enumerate(late)
        ])
        aggregator.fold(ALLOCATIONS, period)
        # r9 is named by grants but ran no job: its row arrives last
        schema.table("dim_resource").insert({"resource_id": 9, "name": "r9"})
        aggregator.fold(ALLOCATIONS, period)
        name = ALLOCATIONS.table_schema(period).name
        folded = sorted(schema.table(name).raw_rows())
        aggregator.rebuild(ALLOCATIONS, period)
        assert sorted(schema.table(name).raw_rows()) == folded

    def test_aggregate_all_leaves_allocations_alone(self):
        schema = allocations_schema([], [("pz", "r1", 900.0, 0, YEAR)])
        Aggregator(schema).aggregate_all()
        assert not any(n.startswith("agg_allocation") for n in schema.table_names())


# -- 3. aggregate_all* pinned -----------------------------------------------------


class TestAggregateAllPinned:
    KEYS = [f"agg_{realm}_{period}" for period in PERIODS for realm in ("job", "storage", "cloud")]

    def test_keys_order_counts_and_version_delta(self):
        s = build_schema()
        iv_n = seeded(s)
        agg = Aggregator(s)
        before = s.data_version
        rebuilt = agg.aggregate_all()
        assert list(rebuilt) == self.KEYS
        assert list(rebuilt.values()) == [42, 2, 6, 4, 1, 2, 2, 1, 2, 2, 1, 2]
        assert s.data_version - before == 96
        insert_job(s, 10, start=T0 + SECONDS_PER_DAY, wall=1800)
        insert_interval(s, iv_n + 1, vm_id=9, start=T0 + SECONDS_PER_DAY, dur=3600)
        before = s.data_version
        folded = agg.aggregate_all_incremental()
        assert list(folded) == self.KEYS
        assert list(folded.values()) == [1, 0, 1] * 4
        assert s.data_version - before == 20
        before = s.data_version
        assert set(agg.aggregate_all_incremental().values()) == {0}
        assert s.data_version == before

    def test_verbs_by_name_are_rebuilds(self):
        s = build_schema()
        seeded(s)
        agg = Aggregator(s)
        assert [
            agg.aggregate_jobs("month"), agg.aggregate_storage("month"),
            agg.aggregate_cloud("month"),
        ] == [agg.rebuild(spec, "month") for spec in (JOBS, STORAGE, CLOUD)]

