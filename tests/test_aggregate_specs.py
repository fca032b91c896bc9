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
   equal to a rebuild; the SUPReMM fold equal to a rebuild, and
   ``Realm.query`` over it equal to the per-job query it replaced;
3. what ``aggregate_all`` / ``aggregate_all_incremental`` return — keys
   and their order — and the ``Schema.data_version`` they leave, pinned;
4. every spec's declarations name real columns, config fields and table
   columns; 5. a realm declared only as a spec folds like a Python loop;
6. the distinct-count over-counts, as strict xfails.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.aggregation import (
    ALLOCATIONS,
    CLOUD,
    JOBS,
    SPECS,
    STORAGE,
    SUPREMM,
    AggregateSpec,
    AggregationConfig,
    Aggregator,
    Source,
    at,
    over,
)
from repro.aggregation import columnar
from repro.analysis.catalog import build_default_catalog
from repro.etl import ParsedJob, create_supremm_realm, ingest_jobs
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
from repro.simulators import PERF_METRICS, ConversionTable
from repro.timeutil import (
    PERIODS, SECONDS_PER_DAY, SECONDS_PER_HOUR, overlap_seconds, period_range,
    period_start, ts,
)
from repro.warehouse import ColumnType, Database
from tests.aggregation_oracles import aggregate_allocations_oracle, supremm_query_oracle
from tests.conftest import property_settings
from tests.test_columnar_aggregation import (
    T0,
    build_schema,
    insert_interval,
    insert_job,
    insert_snapshot,
    seeded,
    write_row,
)

SETTINGS = property_settings(25)
NUMERIC = (ColumnType.INT, ColumnType.FLOAT)
REALMS = [
    (jobs_realm, JOBS), (storage_realm, STORAGE), (cloud_realm, CLOUD),
    (supremm_realm, SUPREMM), (allocations_realm, ALLOCATIONS),
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
        assert [spec.realm for spec in SPECS] == [
            "jobs", "storage", "cloud", "supremm", "allocations",
        ]
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
        schema.table("dim_resource").upsert_columns({"resource_id": [9], "name": ["r9"]})
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
        schema.table("dim_resource").upsert_columns({"resource_id": [9], "name": ["r9"]})
        aggregator.fold(ALLOCATIONS, period)
        name = ALLOCATIONS.table_schema(period).name
        folded = sorted(schema.table(name).raw_rows())
        aggregator.rebuild(ALLOCATIONS, period)
        assert sorted(schema.table(name).raw_rows()) == folded

    def test_aggregate_all_leaves_allocations_alone(self):
        schema = allocations_schema([], [("pz", "r1", 900.0, 0, YEAR)])
        Aggregator(schema).aggregate_all()
        assert not any(n.startswith("agg_allocation") for n in schema.table_names())


def perf_schema(jobs, rounds):
    """A jobs-and-performance schema and its inserts, batch by batch.

    ``jobs``: ``(resource, job_id, person, app, end offset, cpu_hours,
    order, round, delay, value)``; ``order`` puts the ``fact_job`` row before
    (``"job first"``) or after (``"perf first"``) the ``fact_job_perf`` row,
    ``delay`` batches apart, or leaves out the perf row (``"no perf"``) or
    the job row (``"orphan"``).  Returns the schema and one callable per
    batch of the ``rounds`` batches.
    """
    schema = build_schema()
    create_supremm_realm(schema)
    batches = [[] for _ in range(rounds)]
    for resource, job_id, person, app, end, cpu, order, first, delay, value in jobs:
        second = min(first + delay, rounds - 1)
        job_at, perf_at = (second, first) if order == "perf first" else (first, second)
        if order != "orphan":
            batches[job_at].append(partial(
                insert_job, schema, job_id, start=T0 + end - 3600, wall=3600, cpu_hours=cpu,
                resource_id=resource, person_id=person, app_id=app,
            ))
        if order != "no perf":
            batches[perf_at].append(partial(write_row, schema.table("fact_job_perf"), {
                "job_id": job_id, "resource_id": resource,
                **{f"{m}_avg": value * (i + 1) for i, m in enumerate(PERF_METRICS)},
                **{f"{m}_max": value * (i + 2) for i, m in enumerate(PERF_METRICS)},
            }))
    return schema, [lambda batch=batch: [insert() for insert in batch] for batch in batches]


perf_jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from([1, 2]),                             # resource
        st.integers(1, 6),                                   # job id, per resource
        st.sampled_from([1, 2, 3]),                          # person
        st.sampled_from([1, 2]),                             # application
        st.integers(3600, YEAR - 1),                         # end offset
        st.sampled_from([0.0, 2.5]) | st.floats(1e-3, 1e4),  # cpu hours
        st.sampled_from(["job first", "perf first", "no perf", "orphan"]),
        st.integers(0, 2),                                   # first batch
        st.integers(0, 2),                                   # batches later
        st.floats(0.0, 100.0).map(lambda v: round(v, 6)),   # per-job averages
    ),
    unique_by=lambda t: (t[0], t[1]),
    max_size=12,
)


def aligned_windows(period):
    """Period-aligned ``[start, end)`` windows over 2017."""
    bounds = [p for p, _ in period_range(period, T0, T0 + YEAR)] + [T0 + YEAR]
    inner = [(bounds[1], bounds[2]), (bounds[1], bounds[-2])] if len(bounds) > 3 else []
    return [(T0, T0 + YEAR), *inner]


class TestSupremmFold:
    """SUPReMM is a spec: performance summaries joined to their jobs on the
    composite ``(resource_id, job_id)`` key, folded where the job ended."""

    @SETTINGS
    @given(jobs=perf_jobs_strategy, period=st.sampled_from(PERIODS),
           reingest=st.booleans())
    def test_fold_equals_rebuild(self, jobs, period, reingest):
        schema, batches = perf_schema(jobs, 3)
        aggregator = Aggregator(schema)
        for insert in batches:
            insert()
            aggregator.fold(SUPREMM, period)
        job_rows = list(schema.table("fact_job").rows())
        if reingest and job_rows:  # an update: the fold rebuilds
            write_row(schema.table("fact_job"), {**job_rows[0], "cpu_hours": 7.0})
            aggregator.fold(SUPREMM, period)
        name = SUPREMM.table_schema(period).name
        folded = sorted(schema.table(name).raw_rows())
        aggregator.rebuild(SUPREMM, period)
        assert sorted(schema.table(name).raw_rows()) == folded

    @SETTINGS
    @given(a=perf_jobs_strategy, b=perf_jobs_strategy, period=st.sampled_from(PERIODS),
           group_by=st.sampled_from([None, "resource", "application", "person"]))
    def test_query_equals_the_per_job_query_on_aligned_windows(self, a, b, period, group_by):
        members = {}
        for name, jobs in (("a", a), ("b", b)):
            members[name], batches = perf_schema(jobs, 3)
            for insert in batches:
                insert()
                Aggregator(members[name]).aggregate_all_incremental([period])
        realm = supremm_realm()
        # on a hub, people are member-qualified: compare them per member
        sources = [members["a"]] if group_by == "person" else [members["a"], members]
        for source in sources:
            for start, end in aligned_windows(period):
                for metric in ("avg_cpu_user", "avg_block_write_mbs"):
                    kwargs = dict(start=start, end=end, period=period, group_by=group_by)
                    got = realm.query(source, metric, **kwargs).rows
                    want = supremm_query_oracle(realm, source, metric, **kwargs).rows
                    assert [(r.group, r.period_start, r.period_label) for r in got] == [
                        (r.group, r.period_start, r.period_label) for r in want
                    ]
                    assert [r.value for r in got] == pytest.approx(
                        [r.value for r in want], rel=1e-12)

    def test_orphans_and_idle_jobs_add_nothing(self, monkeypatch):
        bounds, real = [], columnar._period_bounds
        monkeypatch.setattr(
            columnar, "_period_bounds", lambda *args: bounds.append(real(*args)) or bounds[-1])
        schema, batches = perf_schema([
            (1, 1, 1, 1, 40 * SECONDS_PER_DAY, 0.0, "job first", 0, 0, 5.0),
            (1, 2, 1, 1, 50 * SECONDS_PER_DAY, 2.0, "orphan", 0, 0, 5.0),
            (2, 1, 2, 1, 60 * SECONDS_PER_DAY, 4.0, "job first", 0, 0, 3.0),
        ], 1)
        batches[0]()
        assert Aggregator(schema).rebuild(SUPREMM, "day") == 1
        (row,) = schema.table("agg_supremm_day").rows()
        assert (row["resource_id"], row["person_id"], row["cpu_hours"]) == (2, 2, 4.0)
        assert row["cpu_user_weighted"] == 12.0
        assert bounds[0][0] >= T0  # a join miss's end_ts of 0 widens no window

    def test_a_perf_row_before_its_job_folds_when_the_job_lands(self):
        schema, batches = perf_schema(
            [(1, 1, 1, 1, 40 * SECONDS_PER_DAY, 2.0, "perf first", 0, 1, 5.0)], 2)
        aggregator = Aggregator(schema)
        batches[0]()
        assert aggregator.fold(SUPREMM, "month") == 1
        assert len(schema.table("agg_supremm_month")) == 0
        batches[1]()
        assert aggregator.fold(SUPREMM, "month") == 1
        (row,) = schema.table("agg_supremm_month").rows()
        assert row["cpu_user_weighted"] == 10.0

    def test_a_schema_without_performance_data_gains_nothing(self):
        s = build_schema()
        seeded(s)
        agg = Aggregator(s)
        assert not any("supremm" in key for key in agg.aggregate_all())
        assert not any("supremm" in key for key in agg.aggregate_all_incremental())
        assert not any("supremm" in name for name in s.table_names())
        assert not any(
            "supremm" in mark["agg_table"] for mark in s.table("agg_watermark").rows()
        )
        create_supremm_realm(s)
        assert [key for key in agg.aggregate_all(["month"]) if "supremm" in key] == [
            "agg_supremm_month"
        ]

    def test_hub_people_are_member_qualified(self):
        """An intended change: the per-job query labelled a hub's people
        bare, merging two members' person 1; every realm qualifies them."""
        members = {}
        for name in ("a", "b"):
            members[name], batches = perf_schema(
                [(1, 1, 1, 1, 40 * SECONDS_PER_DAY, 2.0, "job first", 0, 0, 5.0)], 1)
            batches[0]()
            Aggregator(members[name]).aggregate_all(["month"])
        kwargs = dict(start=T0, end=T0 + YEAR, group_by="person")
        realm = supremm_realm()
        assert realm.query(members, "avg_cpu_user", **kwargs).groups() == ["1@a", "1@b"]
        assert supremm_query_oracle(realm, members, "avg_cpu_user", **kwargs).groups() == ["1"]

    def test_windows_select_whole_periods(self):
        """An intended change: a window that is not period-aligned selects
        the periods that start in it, as every realm does; the per-job
        query selected the jobs that ended in it."""
        schema, batches = perf_schema(
            [(1, 1, 1, 1, 10 * SECONDS_PER_DAY, 2.0, "job first", 0, 0, 5.0),
             (1, 2, 1, 1, 40 * SECONDS_PER_DAY, 2.0, "job first", 0, 0, 7.0)], 1)
        batches[0]()
        Aggregator(schema).aggregate_all(["month"])
        realm, window = supremm_realm(), dict(start=T0 + 5 * SECONDS_PER_DAY, end=ts(2017, 3, 1))
        assert [r.value for r in realm.query(schema, "avg_cpu_user", **window).rows] == [7.0]
        assert [r.value for r in supremm_query_oracle(
            realm, schema, "avg_cpu_user", **window).rows] == [5.0, 7.0]


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



# -- 4. the declarations, checked statically ---------------------------------------


def source_columns(source):
    """``(table, column)`` of everything a source reads, renames or joins."""
    yield from ((source.table, c) for c in (*source.read, *source.rename.values()))
    if source.join:
        columns, table, keys, values = source.join
        yield from ((source.table, c) for c in columns)
        yield from ((table, c) for c in (*keys, *values))


class TestDeclarations:
    """A typo in a spec's declarations fails here, not in the first fold."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.realm)
    def test_sources_name_columns_of_their_tables(self, spec):
        catalog = build_default_catalog()
        for source in spec.sources:
            for table, column in source_columns(source):
                assert column in catalog.get(table).column_names, (table, column)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.realm)
    def test_levels_name_config_level_sets(self, spec):
        fields = {f.name for f in dataclasses.fields(AggregationConfig)}
        assert set(spec.levels.values()) <= fields
        assert set(spec.levels) <= set(spec.key)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.realm)
    def test_measures_picks_and_finishes_name_columns_of_the_spec_table(self, spec):
        columns = dict(spec.columns)
        for name in (*spec.plan.measures, *spec.pick, *spec.finish, *spec.finish.values()):
            assert name in columns, name

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.realm)
    def test_every_other_column_is_produced_exactly_once(self, spec):
        produced = [*spec.plan.measures, *spec.pick]
        assert sorted(produced) == sorted(n for n, _ in spec.columns if n not in spec.key)


# -- 5. a realm that is only a spec ------------------------------------------------

QUEUE_HOURS = AggregateSpec(
    "queue_hours", "agg_queue_hours",
    (("queue_id", ColumnType.INT), ("size_level", ColumnType.STR),
     ("n_ended", ColumnType.INT), ("hours", ColumnType.FLOAT)),
    ("queue_id", "size_level"),
    (Source(
        "fact_job", ("queue_id", "cores", "start_ts", "end_ts"),
        (at("end_ts", n_ended=1),
         over("start_ts", "end_ts", hours=lambda c: c["overlap"] / SECONDS_PER_HOUR)),
        rename={"size_level": "cores"},
    ),),
    levels={"size_level": "jobsize_levels"},
)


def queue_hours_loop(schema, config, period):
    """``agg_queue_hours_<period>`` as a Python loop over the job rows."""
    groups = {}
    for job in schema.table("fact_job").rows():
        dims = (job["queue_id"], config.jobsize_levels.level_of(job["cores"]))
        groups.setdefault((period_start(period, job["end_ts"]), *dims), [0, 0.0])[0] += 1
        for p_start, p_end in period_range(period, job["start_ts"], job["end_ts"]):
            seconds = overlap_seconds(job["start_ts"], job["end_ts"], p_start, p_end)
            if seconds > 0:
                groups.setdefault((p_start, *dims), [0, 0.0])[1] += seconds / SECONDS_PER_HOUR
    return groups


def queue_hours_rows(schema, period):
    return {
        (r["period_start"], r["queue_id"], r["size_level"]): [r["n_ended"], r["hours"]]
        for r in schema.table(f"agg_queue_hours_{period}").rows()
    }


class TestSpecOnlyRealm:
    """One ``at`` measure, one ``over`` measure, one level dimension and one
    plain key: a spec, and no builder."""

    @SETTINGS
    @given(
        jobs=st.lists(st.tuples(st.integers(0, 200 * SECONDS_PER_DAY),
                                st.integers(0, 90 * SECONDS_PER_DAY),
                                st.integers(1, 300), st.integers(1, 3)), max_size=20),
        cut=st.floats(0.0, 1.0), period=st.sampled_from(PERIODS),
    )
    def test_rebuild_and_fold_equal_a_python_loop(self, jobs, cut, period):
        schema = build_schema()
        aggregator = Aggregator(schema)
        head = int(len(jobs) * cut)

        def check():
            got, want = queue_hours_rows(schema, period), queue_hours_loop(
                schema, aggregator.config, period)
            assert got.keys() == want.keys()
            for key, (n, hours) in want.items():
                assert got[key][0] == n
                assert got[key][1] == pytest.approx(hours, rel=1e-9, abs=1e-9)

        for i, (start, wall, cores, queue) in enumerate(jobs[:head]):
            insert_job(schema, i + 1, start=T0 + start, wall=wall, cores=cores, queue_id=queue)
        aggregator.rebuild(QUEUE_HOURS, period)
        check()
        for i, (start, wall, cores, queue) in enumerate(jobs[head:], head):
            insert_job(schema, i + 1, start=T0 + start, wall=wall, cores=cores, queue_id=queue)
        assert aggregator.fold(QUEUE_HOURS, period) == len(jobs) - head
        check()

    def test_a_snapshot_spec_with_an_interval_attribution_is_rejected(self):
        # gauge readings are regrouped by their one timestamp: an over() row
        # spanning several periods would land in its first one
        with pytest.raises(ValueError, match="snapshot"):
            dataclasses.replace(QUEUE_HOURS, snapshot=True).plan


# -- 6. distinct counts summed on read ---------------------------------------------


class TestDistinctOverCounts:
    """A distinct count is stored per aggregate group and summed when a query
    groups rows, so an entity in several groups counts once per group.  Each
    test asserts the right answer; they pass once distinct measures merge."""

    MONTH = 31 * SECONDS_PER_DAY

    @pytest.mark.xfail(strict=True, reason="user_count is summed over filesystems")
    def test_storage_user_on_two_filesystems_counts_once(self):
        s = build_schema()
        insert_snapshot(s, 1, ts_=T0, person_id=1, soft=50.0, filesystem="home")
        insert_snapshot(s, 2, ts_=T0, person_id=1, soft=50.0, filesystem="scratch")
        Aggregator(s).aggregate_storage("month")
        result = storage_realm().query(
            s, "user_count", start=T0, end=T0 + self.MONTH, group_by="resource")
        assert list(result.totals().values()) == [1.0]

    @pytest.mark.xfail(strict=True, reason="n_vms_active is summed over months")
    def test_vm_active_three_months_counts_once_in_the_aggregate_view(self):
        s = build_schema()
        insert_interval(s, 1, vm_id=1, start=T0, dur=ts(2017, 4, 1) - T0)
        Aggregator(s).aggregate_cloud("month")
        result = cloud_realm().query(
            s, "n_vms_running", start=T0, end=ts(2017, 4, 1), view="aggregate")
        assert list(result.totals().values()) == [1.0]

    @pytest.mark.xfail(strict=True, reason="user_count is summed over hub members")
    def test_person_on_two_members_counts_once(self):
        members = {}
        for name in ("a", "b"):
            members[name] = s = build_schema()
            insert_snapshot(s, 1, ts_=T0, person_id=1, soft=50.0)
            Aggregator(s).aggregate_storage("month")
        result = storage_realm().query(members, "user_count", start=T0, end=T0 + self.MONTH)
        assert list(result.totals().values()) == [1.0]
