"""The exposition round trip over random registries.

One walk (``_Family.samples``) expands a registry into exposition
samples; ``render_prometheus``, ``MetricsHistory.record``,
``MetricsHistory.scrape`` and the fleet's ``render_prometheus`` all read
it.  Over registries of counters, gauges and custom-bucket histograms,
with label values holding ``"``, ``\\``, newlines and carriage returns
and values holding NaN and ±Inf: the text parses back to the walk,
``record()`` stores the walk minus the buckets, and one scrape's
``/fleet/metrics`` text parses back to the walk under the member's label.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.obs import FakeClock, MetricsHistory, MetricsRegistry, parse_prometheus_text
from repro.obs.history import SEQ_SERIES
from tests.conftest import property_settings

MEMBER = "m1"

values = st.floats(allow_nan=True, allow_infinity=True)
label_values = st.text(alphabet='ab m1"\\\n\r=,{}', max_size=5)
helps = st.text(alphabet='ab _"\\', max_size=8).map(str.rstrip)
bucket_bounds = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4, unique=True
)


@st.composite
def family_specs(draw, name: str):
    kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
    labelnames = tuple(draw(st.lists(
        st.sampled_from(["kind", "member", "site"]), max_size=2, unique=True,
    )))
    children = draw(st.lists(
        st.tuples(*[label_values] * len(labelnames)), max_size=3, unique=True,
    ))
    updates = [draw(st.lists(values, min_size=1, max_size=3)) for _ in children]
    buckets = draw(bucket_bounds) if kind == "histogram" else None
    return name, kind, draw(helps), labelnames, buckets, list(zip(children, updates))


@st.composite
def registries(draw) -> MetricsRegistry:
    names = draw(st.lists(
        st.sampled_from(["a_total", "b_seconds", "c_bytes", "d_rows", "e_ratio"]),
        max_size=4, unique=True,
    ))
    registry = MetricsRegistry()
    for name in names:
        name, kind, help_text, labelnames, buckets, children = draw(family_specs(name))
        if kind == "histogram":
            family = registry.histogram(name, help_text, labelnames, buckets=buckets)
        else:
            family = getattr(registry, kind)(name, help_text, labelnames)
        for labelvalues, updates in children:
            child = family.labels(**dict(zip(labelnames, labelvalues)))
            for value in updates:
                if kind == "histogram":
                    child.observe(value)
                elif kind == "gauge":
                    child.set(value)
                else:
                    child.inc(abs(value))
    return registry


def walk(registry: MetricsRegistry) -> list[tuple[str, str, tuple, float]]:
    """``(family type, sample name, sorted labels, value)`` per sample."""
    return [
        (family.type_name, name, tuple(sorted(labels)), value)
        for family in registry._sorted_families()
        for name, labels, value in family.samples()
    ]


def same(a: dict, b: dict) -> bool:
    """Dict equality with NaN equal to NaN."""
    def key(d):
        return {k: ("NaN" if v != v else v) for k, v in d.items()}
    return key(a) == key(b)


def relabel(labels: tuple) -> tuple:
    """A scraped sample's labels in the fleet: a ``member`` naming another
    member kept as ``exported_member``, then the scraped member's own."""
    items = [
        ("exported_member", v) if k == "member" else (k, v)
        for k, v in labels if (k, v) != ("member", MEMBER)
    ]
    return tuple(sorted(items + [("member", MEMBER)]))


@property_settings(150)
@given(registries())
def test_text_parses_back_to_the_walk(registry):
    parsed = parse_prometheus_text(registry.render_prometheus())
    assert same(parsed.samples, {(n, labels): v for _, n, labels, v in walk(registry)})
    families = registry._sorted_families()
    assert parsed.types == {f.name: f.type_name for f in families}
    assert parsed.helps == {f.name: f.help for f in families}


@property_settings(150)
@given(registries())
def test_record_stores_the_walk_but_the_buckets(registry):
    history = MetricsHistory(registry, FakeClock())
    history.record()
    stored = {key: history.last_sample(key)[1] for key in history.series_keys()}
    assert same(stored, {
        (n, labels): v
        for kind, n, labels, v in walk(registry)
        if not (kind == "histogram" and n.endswith("_bucket"))
    })


@property_settings(150)
@given(registries())
def test_fleet_text_parses_back_to_the_scraped_walk(registry):
    fleet = MetricsHistory(MetricsRegistry(enabled=False), FakeClock())
    assert fleet.scrape(MEMBER, registry) == len(walk(registry)) + 1
    parsed = parse_prometheus_text(fleet.render_prometheus())
    expected = {(n, relabel(labels)): v for _, n, labels, v in walk(registry)}
    expected[(SEQ_SERIES, (("member", MEMBER),))] = 1.0
    assert same(parsed.samples, expected)
    assert parsed.types == {SEQ_SERIES: "gauge"} | {
        f.name: f.type_name for f in registry._sorted_families() if list(f.samples())
    }
    assert parsed.helps == {}
