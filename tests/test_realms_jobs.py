"""HPC Jobs realm: metric math, drill-down, fan-in equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import IdentityMap
from repro.realms import DimensionSpec, Metric, Realm, RealmQueryError, jobs_realm
from repro.timeutil import PERIODS, period_bounds, period_label, ts
from repro.warehouse import ColumnType as C, Schema, TableSchema, make_columns
from tests.conftest import T0, property_settings
from tests.realm_query_oracle import oracle_query

END = ts(2017, 6, 1)


@pytest.fixture()
def realm():
    return jobs_realm()


class TestSingleInstanceQueries:
    def test_total_cpu_hours_matches_fact_table(self, aggregated_instance, realm):
        schema = aggregated_instance.schema
        result = realm.query(
            schema, "cpu_hours", start=T0, end=END, view="aggregate"
        )
        expected = sum(r["cpu_hours"] for r in schema.table("fact_job").rows())
        assert result.totals()["total"] == pytest.approx(expected)

    def test_timeseries_vs_aggregate_views_agree(self, aggregated_instance, realm):
        schema = aggregated_instance.schema
        series = realm.query(schema, "cpu_hours", start=T0, end=END)
        agg = realm.query(
            schema, "cpu_hours", start=T0, end=END, view="aggregate"
        )
        assert sum(series.totals().values()) == pytest.approx(
            sum(agg.totals().values())
        )

    def test_group_by_resource_labels(self, aggregated_instance, realm):
        result = realm.query(
            aggregated_instance.schema, "n_jobs_ended",
            start=T0, end=END, group_by="resource",
        )
        assert result.groups() == ["testcluster"]

    def test_group_by_queue_partitions_total(self, aggregated_instance, realm):
        schema = aggregated_instance.schema
        total = realm.query(
            schema, "cpu_hours", start=T0, end=END, view="aggregate"
        ).totals()["total"]
        by_queue = realm.query(
            schema, "cpu_hours", start=T0, end=END,
            group_by="queue", view="aggregate",
        ).totals()
        assert sum(by_queue.values()) == pytest.approx(total)

    def test_filter_restricts_to_group(self, aggregated_instance, realm):
        schema = aggregated_instance.schema
        by_queue = realm.query(
            schema, "n_jobs_ended", start=T0, end=END,
            group_by="queue", view="aggregate",
        ).totals()
        queue = next(iter(by_queue))
        filtered = realm.query(
            schema, "n_jobs_ended", start=T0, end=END,
            filters={"queue": [queue]}, view="aggregate",
        ).totals()
        assert filtered["total"] == by_queue[queue]

    def test_ratio_metric_is_quotient_of_sums(self, aggregated_instance, realm):
        schema = aggregated_instance.schema
        cpu = realm.query(schema, "cpu_hours", start=T0, end=END,
                          view="aggregate").totals()["total"]
        jobs = realm.query(schema, "n_jobs_ended", start=T0, end=END,
                           view="aggregate").totals()["total"]
        avg = realm.query(schema, "avg_cpu_hours", start=T0, end=END,
                          view="aggregate").totals()["total"]
        assert avg == pytest.approx(cpu / jobs)

    def test_walltime_level_dimension(self, aggregated_instance, realm):
        result = realm.query(
            aggregated_instance.schema, "n_jobs_ended",
            start=T0, end=END, group_by="walltime_level", view="aggregate",
        )
        from repro.aggregation import DEFAULT_WALLTIME_LEVELS

        assert set(result.groups()) <= set(DEFAULT_WALLTIME_LEVELS.labels) | {"outside"}

    def test_unknown_metric_and_dimension_rejected(self, aggregated_instance, realm):
        with pytest.raises(RealmQueryError):
            realm.query(aggregated_instance.schema, "nope", start=T0, end=END)
        with pytest.raises(RealmQueryError):
            realm.query(
                aggregated_instance.schema, "cpu_hours",
                start=T0, end=END, group_by="nope",
            )

    def test_empty_range_rejected(self, aggregated_instance, realm):
        with pytest.raises(RealmQueryError):
            realm.query(aggregated_instance.schema, "cpu_hours", start=END, end=T0)

    def test_missing_agg_table_returns_empty(self, instance, realm):
        # no aggregation ran yet
        result = realm.query(instance.schema, "cpu_hours", start=T0, end=END)
        assert result.rows == []


class TestFederatedQueries:
    def test_fan_in_equivalence(self, federation, realm):
        """Invariant 3: federated totals == sum over satellites."""
        hub, satellites, _, _ = federation
        hub.aggregate_federation(["month"])
        fed_total = realm.query(
            hub.federated_schemas(), "cpu_hours",
            start=T0, end=END, view="aggregate",
        ).totals()["total"]
        sat_total = 0.0
        for satellite in satellites.values():
            satellite.aggregate(["month"])
            sat_total += realm.query(
                satellite.schema, "cpu_hours",
                start=T0, end=END, view="aggregate",
            ).totals()["total"]
        assert fed_total == pytest.approx(sat_total)

    def test_person_dimension_qualified_on_hub(self, federation, realm):
        """Section II-D4: same username appears once per instance."""
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        result = realm.query(
            hub.federated_schemas(), "n_jobs_ended",
            start=T0, end=END, group_by="person", view="aggregate",
        )
        assert all("@" in g for g in result.groups())
        instances = {g.split("@")[1] for g in result.groups()}
        assert instances == {"site0", "site1"}

    def test_identity_map_merges_hub_person_groups(self, federation, realm):
        from repro.core import IdentityMap

        hub, satellites, _, _ = federation
        hub.aggregate_federation(["month"])
        users = {
            name: [r["username"] for r in s.schema.table("dim_person").rows()]
            for name, s in satellites.items()
        }
        idmap = IdentityMap.from_username_match(users)
        unmapped = realm.query(
            hub.federated_schemas(), "n_jobs_ended",
            start=T0, end=END, group_by="person", view="aggregate",
        )
        mapped = realm.query(
            hub.federated_schemas(), "n_jobs_ended",
            start=T0, end=END, group_by="person", view="aggregate",
            idmap=idmap,
        )
        assert len(mapped.groups()) < len(unmapped.groups())
        assert sum(mapped.totals().values()) == sum(unmapped.totals().values())

    def test_resource_dimension_not_qualified(self, federation, realm):
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        result = realm.query(
            hub.federated_schemas(), "xdsu",
            start=T0, end=END, group_by="resource", view="aggregate",
        )
        assert set(result.groups()) == {"alpha_cluster", "beta_cluster"}

    def test_top_ranking(self, federation, realm):
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        result = realm.query(
            hub.federated_schemas(), "cpu_hours",
            start=T0, end=END, group_by="resource",
        )
        top = result.top(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]


# -- the columnar read path against the row-at-a-time oracle -----------------


def assert_same_result(got, want, *, exact: bool) -> None:
    """Same groups in the same order, same periods and labels, same
    ``None``-ness; values within rel 1e-9 (the sums accumulate in another
    order), integer-valued metrics exactly equal."""
    assert [(r.group, r.period_start, r.period_label) for r in got.rows] == [
        (r.group, r.period_start, r.period_label) for r in want.rows
    ]
    for g, w in zip(got.rows, want.rows):
        assert (g.value is None) == (w.value is None)
        if w.value is not None:
            assert type(g.value) is float
            if exact:
                assert g.value == w.value
            else:
                assert g.value == pytest.approx(w.value, rel=1e-9, abs=0.0)


class TestKernelMatchesOracleOnJobsStar:
    @pytest.mark.parametrize("view", ["timeseries", "aggregate"])
    def test_every_dimension_and_metric_kind(self, federation, realm, view):
        hub, _, _, _ = federation
        hub.aggregate_federation(["day", "month"])
        sources = hub.federated_schemas()
        for period in ("day", "month"):
            for group_by in [None, *realm.dimensions]:
                for metric in ("n_jobs_ended", "cpu_hours", "avg_wait_hours"):
                    kw = dict(start=T0, end=END, period=period,
                              group_by=group_by, view=view)
                    assert_same_result(
                        realm.query(sources, metric, **kw),
                        oracle_query(realm, sources, metric, **kw),
                        exact=metric == "n_jobs_ended",
                    )

    def test_filters_single_source_and_identity_map(self, federation, realm):
        hub, _, _, _ = federation
        hub.aggregate_federation(["month"])
        sources = hub.federated_schemas()
        idmap = IdentityMap.from_username_match({
            name: [r["username"] for r in s.table("dim_person").rows()]
            for name, s in sources.items()
        })
        queues = realm.query(
            sources, "cpu_hours", start=T0, end=END, group_by="queue"
        ).groups()
        cases = [
            (sources, dict(group_by="person", idmap=idmap)),
            (sources, dict(group_by="person",
                           filters={"resource": ["alpha_cluster"],
                                    "queue": queues[:1]})),
            (sources["site0"], dict(group_by="person")),
            (sources, dict(filters={"resource": ["no_such_resource"]})),
        ]
        for src, extra in cases:
            kw = dict(start=T0, end=END, **extra)
            assert_same_result(
                realm.query(src, "cpu_hours", **kw),
                oracle_query(realm, src, "cpu_hours", **kw),
                exact=False,
            )


PROPERTY_REALM = Realm(
    "prop", "agg_prop",
    metrics=[
        Metric("n", "Count", "rows", "n"),
        Metric("x", "Amount", "units", "x"),
        Metric("x_k", "Amount (thousands)", "kunits", "x", scale=1e-3),
        Metric("x_per_n", "Amount per row", "units", "x", denominator="n"),
    ],
    dimensions=[
        DimensionSpec("res", "Resource", "res_id",
                      dim_table="dim_res", dim_key="res_id", dim_label="name"),
        DimensionSpec("person", "User", "person_id", dim_table="dim_person",
                      dim_key="person_id", dim_label="username", qualify=True),
        DimensionSpec("level", "Level", "level"),
        DimensionSpec("code", "Code", "code"),
    ],
)

#: two ids share the label "alpha", id 3 has a NULL label, ids >= 4 are
#: unmapped (absent from the dimension table)
DIM_RES = {0: "alpha", 1: "alpha", 2: "beta", 3: None}
DIM_PERSON = {0: "ann", 1: "bob", 2: "cy"}
SOURCE_NAMES = ("s0", "s1", "s2")
ANCHOR = ts(2017, 11, 20)

small_id = st.one_of(st.none(), st.integers(min_value=0, max_value=5))
agg_row = st.fixed_dictionaries({
    "slot": st.integers(min_value=0, max_value=5),
    "res_id": small_id,
    "person_id": small_id,
    "level": st.sampled_from([None, "1-2h", "2-4h", "None", "outside"]),
    "code": small_id,
    "n": st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    "x": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e9)),
})
label_pool = st.sampled_from([
    "alpha", "beta", "None", "4", "5", "1-2h", "outside", "0", "3",
    "ann", "bob@s0", "ann@s1", "cy@s2", "ann_everywhere", "4@s0", "None@s1",
])


def build_property_source(name: str, period: str, rows, bounds) -> Schema:
    schema = Schema(name)
    dim_res = schema.create_table(TableSchema(
        "dim_res", make_columns([("res_id", C.INT, False), ("name", C.STR)]),
        primary_key=("res_id",),
    ))
    dim_res.upsert_columns({"res_id": list(DIM_RES), "name": list(DIM_RES.values())})
    dim_person = schema.create_table(TableSchema(
        "dim_person",
        make_columns([("person_id", C.INT, False), ("username", C.STR, False)]),
        primary_key=("person_id",),
    ))
    dim_person.upsert_columns({
        "person_id": list(DIM_PERSON), "username": list(DIM_PERSON.values()),
    })
    if rows is None:  # a member that has not aggregated this period yet
        return schema
    agg = schema.create_table(TableSchema(
        f"agg_prop_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False), ("period_label", C.STR, False),
            ("res_id", C.INT), ("person_id", C.INT), ("level", C.STR),
            ("code", C.INT), ("n", C.INT), ("x", C.FLOAT),
        ]),
    ))
    for row in rows:
        row = dict(row)
        p_start = bounds[row.pop("slot")]
        row = {"period_start": p_start, "period_label": period_label(period, p_start), **row}
        agg.upsert_columns({name: [value] for name, value in row.items()})
    return schema


def sorted_series(rows) -> dict:
    """``RealmResult.series()`` built by sorting the rows by period."""
    out: dict = {}
    for row in sorted(rows, key=lambda r: (r.period_start or 0, r.group)):
        out.setdefault(row.group, []).append((row.period_label or "", row.value))
    return out


class TestKernelMatchesOracleProperty:
    @property_settings(150)
    @given(data=st.data())
    def test_random_tables_and_queries(self, data):
        period = data.draw(st.sampled_from(PERIODS), label="period")
        bounds = period_bounds(period, ANCHOR, ANCHOR)
        while len(bounds) < 7:
            bounds = period_bounds(period, ANCHOR, bounds[-1])
        n_sources = data.draw(st.integers(min_value=1, max_value=3), label="sources")
        sources = {
            name: build_property_source(
                name, period,
                data.draw(st.one_of(st.none(), st.lists(agg_row, max_size=25)),
                          label=f"rows of {name}"),
                bounds,
            )
            for name in SOURCE_NAMES[:n_sources]
        }
        if n_sources == 1 and data.draw(st.booleans(), label="bare schema"):
            sources = sources["s0"]
        lo = data.draw(st.integers(min_value=0, max_value=6), label="first slot")
        hi = data.draw(st.integers(min_value=lo, max_value=6), label="last slot")
        idmap = None
        if data.draw(st.booleans(), label="idmap"):
            idmap = IdentityMap().link("ann_everywhere", "ann@s0", "ann@s1", "ann@s2")
        metric = data.draw(st.sampled_from(sorted(PROPERTY_REALM.metrics)))
        kw = dict(
            start=bounds[lo], end=bounds[hi] + 1, period=period,
            group_by=data.draw(
                st.sampled_from([None, *PROPERTY_REALM.dimensions]), label="group_by"),
            filters=data.draw(st.dictionaries(
                st.sampled_from(sorted(PROPERTY_REALM.dimensions)),
                st.lists(label_pool, max_size=6), max_size=3), label="filters"),
            view=data.draw(st.sampled_from(["timeseries", "aggregate"])),
            idmap=idmap,
        )
        result = PROPERTY_REALM.query(sources, metric, **kw)
        assert_same_result(
            result,
            oracle_query(PROPERTY_REALM, sources, metric, **kw),
            exact=metric == "n",
        )
        # rows come in (group, period) order, so series() need not sort
        keys = [(row.group, row.period_start or 0) for row in result.rows]
        assert keys == sorted(set(keys))
        assert result.series() == sorted_series(result.rows)

    def test_null_and_unmapped_labels_spelled_as_before(self):
        bounds = period_bounds("month", ANCHOR, ANCHOR)
        rows = [
            {"slot": 0, "res_id": r, "person_id": r, "level": None, "code": None,
             "n": 1, "x": None}
            for r in (0, 1, 3, 4, None)
        ]
        sources = {
            name: build_property_source(name, "month", rows, bounds)
            for name in ("s0", "s1")
        }
        kw = dict(start=bounds[0], end=bounds[1], view="aggregate")

        def by(dim):
            return PROPERTY_REALM.query(sources, "n", group_by=dim, **kw).totals()

        assert by("res") == {"alpha": 4.0, "None": 4.0, "4": 2.0}
        assert by("level") == {"None": 10.0}
        assert by("code") == {"None": 10.0}
        assert by("person")["ann@s0"] == 1.0
        assert by("person")["4@s1"] == 1.0 and by("person")["None@s0"] == 1.0
        # every x is NULL: the groups exist, the sums are 0, the ratio too
        assert PROPERTY_REALM.query(sources, "x", **kw).totals() == {"total": 0.0}
        assert PROPERTY_REALM.query(sources, "x_per_n", **kw).totals() == {"total": 0.0}


def build_null_id_source(name: str) -> Schema:
    """A month of ``agg_prop_month`` rows whose ``res_id`` holds NULL, over
    a keyless ``dim_res`` that labels NULL ("unassigned"), holds id 0
    twice (the later row's label wins) and lacks id 4."""
    schema = Schema(name)
    dim = schema.create_table(TableSchema(
        "dim_res", make_columns([("res_id", C.INT), ("name", C.STR)]),
    ))
    dim.upsert_columns({
        "res_id": [None, 0, 2, 0], "name": ["unassigned", "old", "beta", "alpha"],
    })
    dim_person = schema.create_table(TableSchema(
        "dim_person", make_columns([("person_id", C.INT), ("username", C.STR)]),
    ))
    dim_person.upsert_columns({"person_id": [0, None], "username": ["ann", None]})
    agg = schema.create_table(TableSchema(
        "agg_prop_month",
        make_columns([
            ("period_start", C.TIMESTAMP, False), ("period_label", C.STR, False),
            ("res_id", C.INT), ("person_id", C.INT), ("level", C.STR),
            ("code", C.INT), ("n", C.INT), ("x", C.FLOAT),
        ]),
    ))
    bounds = period_bounds("month", ANCHOR, ts(2018, 2, 1))
    ids = [None, 0, 2, 4, None, 0, 3]
    levels = [None, "None", "1-2h", None, "2-4h", "1-2h", ""]
    agg.upsert_columns({
        "period_start": [bounds[i % 3] for i in range(len(ids))],
        "period_label": [period_label("month", bounds[i % 3]) for i in range(len(ids))],
        "res_id": ids, "person_id": ids, "level": levels, "code": [1] * len(ids),
        "n": list(range(1, len(ids) + 1)), "x": [0.5] * len(ids),
    })
    return schema


class TestNullIdsAndNoneLabels:
    """The read path factorizes a NULL-holding id column (a float64 array,
    NaN for NULL) and an object column holding ``None`` with array
    operations; both must group and filter as the oracle does."""

    KW = dict(start=ts(2017, 11, 1), end=ts(2018, 2, 1), period="month")

    @pytest.fixture()
    def sources(self):
        return {name: build_null_id_source(name) for name in ("s0", "s1")}

    def check(self, sources, metric, **kw):
        got = PROPERTY_REALM.query(sources, metric, **self.KW, **kw)
        assert_same_result(
            got, oracle_query(PROPERTY_REALM, sources, metric, **self.KW, **kw),
            exact=metric == "n",
        )
        return got

    def test_null_id_column_groups_and_filters_as_the_oracle(self, sources):
        agg = sources["s0"].table("agg_prop_month")
        assert agg.column_array("res_id").dtype == np.float64
        for view in ("timeseries", "aggregate"):
            for source in (sources, sources["s0"]):
                self.check(source, "n", group_by="res", view=view)
                self.check(source, "x_per_n", group_by="person", view=view)
                self.check(source, "n", group_by="person",
                           filters={"res": ["unassigned", "4", "3"]}, view=view)
        totals = self.check(sources["s0"], "n", group_by="res", view="aggregate").totals()
        assert totals == {"unassigned": 6.0, "alpha": 8.0, "beta": 3.0, "4": 4.0, "3": 7.0}
        people = self.check(sources, "n", group_by="person", view="aggregate").totals()
        assert people["None@s0"] == 6.0 and people["4@s1"] == 4.0

    def test_none_in_an_object_column_groups_and_filters_as_the_oracle(self, sources):
        assert sources["s0"].table("agg_prop_month").column_array("level").dtype == object
        for view in ("timeseries", "aggregate"):
            for source in (sources, sources["s0"]):
                self.check(source, "n", group_by="level", view=view)
                self.check(source, "x", group_by="res", filters={"level": ["None"]}, view=view)
                self.check(source, "n", filters={"level": ["", "1-2h"]}, view=view)
        # NULL and the string "None" share one label, so one group
        totals = self.check(sources["s0"], "n", group_by="level", view="aggregate").totals()
        assert totals == {"None": 1.0 + 2.0 + 4.0, "1-2h": 9.0, "2-4h": 5.0, "": 7.0}
