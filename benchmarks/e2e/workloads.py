"""The four workloads of the end-to-end benchmark.

Each drives the public APIs of ``etl``, ``warehouse``, ``core``,
``aggregation``, ``realms``, ``ui`` and ``obs`` exactly as shipped
(``Observability.default()``, the default aggregation periods with the
hub's Table I wall-time levels, cache on, no auth) from one client
thread, in a closed loop: the next operation starts when the previous
one has been answered.  See README.md for why each exists.
"""

from __future__ import annotations

import gc
import http.client
import json
import statistics
from time import perf_counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.aggregation import (
    TABLE1_FEDERATION_HUB,
    TABLE1_INSTANCE_A,
    AggregationConfig,
)
from repro.core import (
    FederationHub,
    FederationMonitor,
    ReplicationFilter,
    XdmodInstance,
    check_member,
)
from repro.etl import (
    CLOUD_EVENT_SCHEMA,
    STORAGE_SNAPSHOT_SCHEMA,
    parse_sacct_log,
    validate,
)
from repro.realms import cloud_realm, jobs_realm, storage_realm
from repro.ui import ApiServer, ViewSpec, XdmodApi
from repro.warehouse import Schema

import inputs
from harness import EXTRA_BOUND, Recorder
from inputs import Sizes, url_of

#: Fact tables whose rows are the "records" a workload moves.
FACT_TABLES = ("fact_job", "fact_storage", "fact_vm_interval")
ALL_REALMS = ReplicationFilter(tables=None)


# -- shared steps, each wrapped in the span of the layer it calls --------------

def new_hub(conversion=None) -> FederationHub:
    return FederationHub(
        "hub",
        aggregation=AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB),
        conversion=conversion,
    )


def join_jobs_satellites(
    hub: FederationHub, conversion, texts: Mapping[str, str], rec: Recorder
) -> dict[str, XdmodInstance]:
    """One fresh satellite per site: parse, star-load, join tight."""
    satellites = {}
    for site, text in sorted(texts.items()):
        instance = XdmodInstance(f"site_{site}", conversion=conversion)
        with rec.span("etl.parse") as span:
            jobs = list(parse_sacct_log(text, default_resource=site))
            span.count = len(jobs)
        with rec.span("etl.star_load") as span:
            span.count = instance.pipeline.ingest_parsed_jobs(jobs)
        with rec.span("core.replicate") as span:
            member = hub.join(instance, mode="tight")
            span.count = member.channel.stats.events_applied
        satellites[site] = instance
    return satellites


def serve(
    hub: FederationHub, realms: Mapping[str, Any], views: Sequence[ViewSpec],
    rec: Recorder,
) -> XdmodApi:
    """The hub's API, with ``views`` kept warm by the post-aggregation
    hook.  The hook is wrapped so ``materialize`` nests under the
    aggregation span that triggers it."""
    api = XdmodApi(
        realms, hub.federated_schemas(), obs=hub.obs,
        monitor=FederationMonitor(hub),
    )
    api.serving.register_views(views)

    def refresh_views() -> None:
        with rec.span("ui.serving.materialize") as span:
            span.count = api.serving.materialize()

    hub.add_post_aggregation_hook(refresh_views)
    return api


def fact_rows(schemas: Mapping[str, Schema]) -> int:
    return sum(
        len(schema.table(name))
        for schema in schemas.values()
        for name in FACT_TABLES
        if schema.has_table(name)
    )


def aggregate(hub: FederationHub, rec: Recorder, *, incremental: bool = False) -> int:
    """Full rebuild or incremental fold; returns fact rows processed."""
    with rec.span("aggregation.incr" if incremental else "aggregation.full") as span:
        out = hub.aggregate_federation(incremental=incremental)
        if incremental:
            # the incremental builders return facts folded, per period
            rows = sum(
                counts[f"agg_{realm}_day"]
                for counts in out.values()
                for realm in ("job", "storage", "cloud")
            )
        else:
            rows = fact_rows(hub.federated_schemas())
        span.count = rows
    return rows


def read(api: XdmodApi, spec: ViewSpec, rec: Recorder) -> tuple[int, bytes]:
    with rec.span("ui.rest.handle_http") as span:
        status, _, body, _ = api.handle_http(url_of(spec), {})
        span.count = len(body)
    return status, body


def http_get(host: str, port: int, url: str) -> tuple[int, bytes]:
    """One GET over a new connection, connect to last byte."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", url)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# -- correctness checks (public APIs only) --------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_fidelity(hub: FederationHub) -> list[tuple[str, bool]]:
    """Replication fidelity: every member's hub copy equals its source."""
    return [
        (f"fidelity:{m.name}", check_member(hub, m.name).ok) for m in hub.members
    ]


def check_conservation(hub: FederationHub) -> list[tuple[str, bool]]:
    """Aggregation conservation: monthly aggregates sum to the raw facts."""
    pairs = (
        ("fact_job", "cpu_hours", "agg_job_month", "cpu_hours"),
        ("fact_vm", "core_hours", "agg_cloud_month", "core_hours"),
        ("fact_storage", None, "agg_storage_month", None),
    )
    out = []
    for name, schema in hub.federated_schemas().items():
        for fact, fact_col, agg, agg_col in pairs:
            if not (schema.has_table(fact) and len(schema.table(fact))):
                continue
            if fact_col is None:
                # storage metrics are gauges, not additive: the invariant
                # is that facts produced aggregates at all
                ok = len(schema.table(agg)) > 0
            else:
                raw = sum(r[fact_col] for r in schema.table(fact).rows())
                ok = _close(raw, sum(r[agg_col] for r in schema.table(agg).rows()))
            out.append((f"conservation:{name}:{agg}", ok))
    return out


def check_ranking(hub: FederationHub, sizes: Sizes) -> list[tuple[str, bool]]:
    """Figure 1: total 2017 XD SUs rank comet > stampede2 > stampede.
    A property of the whole year (Stampede2 ramps up through it), so a
    shortened smoke year is not held to it."""
    if sizes.sim_end != inputs.YEAR_END:
        return []
    top = jobs_realm().query(
        hub.federated_schemas(), "xdsu",
        start=inputs.YEAR_START, end=inputs.YEAR_END, group_by="resource",
    ).top(3)
    return [("figure1_ranking", [g for g, _ in top] == ["comet", "stampede2", "stampede"])]


def agg_snapshot(schema: Schema) -> dict[str, dict[tuple, tuple]]:
    """Every served aggregate table (not the incremental bookkeeping
    beside them) as ``{non-float key: float values}``."""
    out: dict[str, dict[tuple, tuple]] = {}
    for name in schema.table_names():
        if not name.startswith(("agg_job_", "agg_storage_", "agg_cloud_")):
            continue
        rows: dict[tuple, tuple] = {}
        for row in schema.table(name).raw_rows():
            key = tuple(v for v in row if not isinstance(v, float))
            rows[key] = tuple(v for v in row if isinstance(v, float))
        out[name] = rows
    return out


def snapshots_match(a: dict[str, dict[tuple, tuple]], b: dict[str, dict[tuple, tuple]]) -> bool:
    """Same tables, same keys, floats equal to summation-order tolerance."""
    if a.keys() != b.keys():
        return False
    for name in a:
        if a[name].keys() != b[name].keys():
            return False
        for key, values in a[name].items():
            if not all(_close(x, y) for x, y in zip(values, b[name][key])):
                return False
    return True


# -- the workloads --------------------------------------------------------------

@dataclass
class ProbeInputs:
    """What the per-layer probes need from a finished workload: how to
    re-run its ETL on a fresh instance, and what its readers ask for."""

    parse: Callable[[], Any]                 # raw input -> validated records
    load: Callable[[XdmodInstance, Any], tuple[int, int]]   # -> (loaded, rejected)
    filter: ReplicationFilter | None         # how the satellite replicates
    source: XdmodInstance                    # the satellite the probes replay
    input_bytes: int
    hot: list[ViewSpec]
    tail: list[ViewSpec]


class Workload:
    """Common accounting.  ``op`` reports one sample through ``done``: the
    latency of what the user waits for (``None`` for an operation that is
    not of the measured kind), the wall time of the whole closed-loop
    step, and the records it carried through to a served result; and it
    adds to ``offered`` (records + requests attempted) and ``failed``."""

    name = ""
    unit = ""
    record_unit = ""
    #: tail percentile worth reporting, given how many operations fit a run
    tail_percentile: int | None = None

    def __init__(self, seed: int, sizes: Sizes, rec: Recorder) -> None:
        self.seed = seed
        self.sizes = sizes
        self.rec = rec
        self.ops: list[tuple[float | None, float, int]] = []
        self.offered = 0
        self.failed = 0
        self.sha256: dict[str, str] = {}
        self.extras: dict[str, dict[str, Any]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` started (threads, sockets)."""

    def has_next(self, i: int) -> bool:
        return True

    def op(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Measurements after the timed region, before the checks."""

    def checks(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def extra(
        self, name: str, value: float, unit: str, n: int, what: str, *, gated: bool = False
    ) -> None:
        """A workload-specific number for the report; ``gated`` ones are
        lower-is-better timings ``compare.py`` holds to ``EXTRA_BOUND``."""
        self.extras[name] = {"value": value, "unit": unit, "n": n, "what": what}
        if gated:
            self.extras[name].update(better="lower", bound=EXTRA_BOUND)

    def done(self, latency: float | None, wall: float, records: int) -> None:
        self.ops.append((latency, wall, records))

    @property
    def latencies(self) -> list[float]:
        return [latency for latency, _, _ in self.ops if latency is not None]

    @property
    def walls(self) -> list[float]:
        return [wall for _, wall, _ in self.ops]

    @property
    def records(self) -> int:
        return sum(records for _, _, records in self.ops)

    def _count_reads(self, results: Sequence[tuple[int, bytes]]) -> None:
        self.offered += len(results)
        self.failed += sum(1 for status, _ in results if status != 200)

    def probe_inputs(self) -> ProbeInputs:
        """The jobs workloads: the largest satellite and its sacct text."""
        site = "comet"
        text = self.inputs.texts[site]

        def parse() -> list:
            return list(parse_sacct_log(text, default_resource=site))

        def load(instance: XdmodInstance, jobs: list) -> tuple[int, int]:
            return len(jobs), len(jobs) - instance.pipeline.ingest_parsed_jobs(jobs)

        return ProbeInputs(
            parse, load, None, self.satellites[site], len(text.encode()),
            list(inputs.JOBS_HOT), inputs.jobs_tail(),
        )


class Backfill(Workload):
    """Three satellites join with a year of history, on fresh instances."""

    name = "backfill"
    unit = "rep: parse -> star load -> tight join -> full aggregation -> first read of 6 charts"
    record_unit = "jobs"
    realms = {"jobs": jobs_realm()}

    def setup(self) -> None:
        self.inputs = inputs.jobs_inputs(self.seed, self.sizes)
        self.sha256 = self.inputs.sha256

    def op(self, i: int) -> None:
        gc.collect()
        start = perf_counter()
        with self.rec.span("bench.op"):
            hub = new_hub(self.inputs.conversion)
            satellites = join_jobs_satellites(
                hub, self.inputs.conversion, self.inputs.texts, self.rec
            )
            api = serve(hub, self.realms, inputs.JOBS_HOT[:inputs.N_VIEWS], self.rec)
            aggregate(hub, self.rec)
            results = [read(api, spec, self.rec) for spec in inputs.JOBS_READS]
        elapsed = perf_counter() - start
        offered = self.inputs.n_jobs
        visible = fact_rows(hub.federated_schemas())
        self.done(elapsed, elapsed, visible)
        self.offered += offered
        self.failed += offered - visible
        self._count_reads(results)
        if i == 0:
            self.first_checksums = self._checksums(hub)
        self.hub, self.satellites, self.api = hub, satellites, api

    @staticmethod
    def _checksums(hub: FederationHub) -> dict[str, str]:
        return {n: s.checksum() for n, s in hub.federated_schemas().items()}

    def _levels_view(self) -> tuple[float, set[str]]:
        totals = jobs_realm().query(
            self.hub.federated_schemas(), "cpu_hours",
            start=inputs.YEAR_START, end=inputs.YEAR_END,
            group_by="walltime_level", view="aggregate",
        ).totals()
        return sum(totals.values()), set(totals)

    def finish(self) -> None:
        """Table I: the hub's levels change, everything re-aggregates,
        and the standing charts are read again under the new levels."""
        self.last_checksums = self._checksums(self.hub)
        total_before, labels_before = self._levels_view()
        times = []
        for levels in (TABLE1_INSTANCE_A, TABLE1_FEDERATION_HUB, TABLE1_INSTANCE_A):
            gc.collect()
            start = perf_counter()
            self.hub.reaggregate_federation(AggregationConfig(walltime_levels=levels))
            results = [read(self.api, spec, self.rec) for spec in inputs.JOBS_READS]
            times.append(perf_counter() - start)
            self._count_reads(results)
        total_after, labels_after = self._levels_view()
        self.reaggregate_ok = (
            _close(total_before, total_after) and labels_before != labels_after
        )
        self.extra(
            "reaggregate_ms", statistics.median(times) * 1e3, "ms", len(times),
            "hub level change -> all 6 charts served under the new levels",
            gated=True,
        )

    def checks(self) -> list[tuple[str, bool]]:
        return [
            *check_fidelity(self.hub),
            *check_conservation(self.hub),
            *check_ranking(self.hub, self.sizes),
            ("determinism:first_rep==last_rep", self.first_checksums == self.last_checksums),
            ("reaggregate:totals_kept_labels_changed", self.reaggregate_ok),
        ]


class Nightly(Workload):
    """Steady state: one small delta per cycle, written beside reads."""

    name = "nightly"
    unit = (
        "cycle: the sacct text of a few hours' finished jobs handed to the satellites -> "
        "sync -> incremental aggregation -> /query n_jobs_ended response that includes them"
    )
    record_unit = "deltas"
    tail_percentile = 90
    realms = {"jobs": jobs_realm()}

    def setup(self) -> None:
        self.inputs = inputs.jobs_inputs(self.seed, self.sizes)
        history, self.deltas = inputs.split_history(self.inputs, self.sizes)
        self.sha256 = dict(self.inputs.sha256)
        self.sha256["deltas"] = inputs.sha256_of([texts for _, texts in self.deltas])
        self.hub = new_hub(self.inputs.conversion)
        self.satellites = join_jobs_satellites(
            self.hub, self.inputs.conversion, history, self.rec
        )
        self.api = serve(self.hub, self.realms, inputs.JOBS_HOT[:inputs.N_VIEWS], self.rec)
        # The history is folded incrementally too.  A full rebuild on a
        # schema that has never been folded leaves no seen-table behind,
        # and the first incremental pass after it counts every fact again
        # (README.md, findings) - the checks below would fail.
        self.hub.aggregate_federation(incremental=True)
        self.on_hub = fact_rows(self.hub.federated_schemas())
        self.stale_before = self.hub.obs.registry.value(
            "serving_cache_lookups_total", result="stale"
        )

    def has_next(self, i: int) -> bool:
        return i < len(self.deltas)

    def op(self, i: int) -> None:
        n_new, texts = self.deltas[i]
        rec = self.rec
        start = perf_counter()
        with rec.span("bench.op"):
            for site, text in texts.items():
                with rec.span("etl.ingest_sacct") as span:
                    span.count = self.satellites[site].pipeline.ingest_sacct(
                        text, default_resource=site
                    )
            with rec.span("core.sync") as span:
                outcomes = self.hub.sync()
                span.count = sum(o.applied for o in outcomes.values())
            aggregate(self.hub, rec, incremental=True)
            first = read(self.api, inputs.JOBS_READS[0], rec)
            fresh = perf_counter()
            rest = [read(self.api, spec, rec) for spec in inputs.JOBS_READS[1:]]
        done = perf_counter()
        # freshness is asserted: the served total includes this delta's jobs
        self.on_hub += n_new
        served = sum(row["value"] for row in json.loads(first[1])["rows"])
        is_fresh = served == self.on_hub
        self.done(fresh - start, done - start, int(is_fresh))
        self.offered += n_new
        self.failed += 0 if is_fresh else n_new
        self.failed += sum(
            1 for o in outcomes.values() if o.status in ("failed", "quarantined")
        )
        self._count_reads([first, *rest])

    def finish(self) -> None:
        incremental = {
            n: agg_snapshot(s) for n, s in self.hub.federated_schemas().items()
        }
        self.hub.aggregate_federation()
        full = {n: agg_snapshot(s) for n, s in self.hub.federated_schemas().items()}
        self.incremental_ok = all(
            snapshots_match(incremental[n], full[n]) for n in full
        )
        stale = self.hub.obs.registry.value(
            "serving_cache_lookups_total", result="stale"
        ) - self.stale_before
        self.extra(
            "stale_recomputes", stale, "count", len(self.ops),
            "cached payloads invalidated by a data_version bump and recomputed",
        )

    def checks(self) -> list[tuple[str, bool]]:
        return [
            *check_fidelity(self.hub),
            *check_conservation(self.hub),
            ("incremental==full_rebuild", self.incremental_ok),
        ]


class Portal(Workload):
    """The people the hub exists for: reads over loopback HTTP, no writes."""

    name = "portal"
    unit = "request: /query or /chart GET over loopback HTTP, new connection, connect -> last byte"
    record_unit = "requests"
    tail_percentile = 99
    realms = {"jobs": jobs_realm()}
    #: enough for any plausible speed-up; the sequence repeats beyond it
    SEQUENCE = 60000

    def setup(self) -> None:
        self.inputs = inputs.jobs_inputs(self.seed, self.sizes)
        self.hot = [url_of(spec) for spec in inputs.JOBS_HOT]
        self.tail = [url_of(spec) for spec in inputs.jobs_tail()]
        self.sequence = inputs.request_sequence(
            self.seed, self.SEQUENCE, len(self.hot), len(self.tail)
        )
        self.sha256 = dict(self.inputs.sha256)
        self.sha256["request_sequence"] = inputs.sha256_of(self.sequence)
        self.hub = new_hub(self.inputs.conversion)
        self.satellites = join_jobs_satellites(
            self.hub, self.inputs.conversion, self.inputs.texts, self.rec
        )
        self.api = serve(self.hub, self.realms, inputs.JOBS_HOT[:inputs.N_VIEWS], self.rec)
        self.hub.aggregate_federation()
        self.server = ApiServer(self.api).start()
        self.host, self.port = self.server.address
        self.status_latencies: list[float] = []
        # first body of each distinct URL, up to the sample size, kept for
        # the byte-for-byte comparison after the run
        self.sampled: dict[str, bytes] = {}

    def teardown(self) -> None:
        self.server.stop()

    def url_at(self, i: int) -> tuple[str, str]:
        kind, index = self.sequence[i % len(self.sequence)]
        if kind == "hot":
            return kind, self.hot[index]
        if kind == "tail":
            return kind, self.tail[index]
        return kind, inputs.METRICS_URL if kind == "metrics" else inputs.STATUS_URL

    def op(self, i: int) -> None:
        kind, url = self.url_at(i)
        start = perf_counter()
        with self.rec.span("bench.op"):
            with self.rec.span("ui.rest.http_get") as span:
                status, body = http_get(self.host, self.port, url)
                span.count = len(body)
        elapsed = perf_counter() - start
        self.done(elapsed if kind in ("hot", "tail") else None, elapsed, int(status == 200))
        if kind in ("hot", "tail"):
            if len(self.sampled) < self.sizes.body_sample and url not in self.sampled:
                self.sampled[url] = body
        elif kind == "status":
            self.status_latencies.append(elapsed)
        self.offered += 1
        self.failed += int(status != 200)

    def finish(self) -> None:
        reference = XdmodApi(self.realms, self.hub.federated_schemas(), cache=False)
        self.mismatched = sum(
            1 for url, body in self.sampled.items()
            if reference.handle_raw(url, {})[2] != body
        )
        self.offered += len(self.sampled)
        self.failed += self.mismatched
        registry = self.hub.obs.registry
        lookups = {
            result: registry.value("serving_cache_lookups_total", result=result)
            for result in ("hit", "miss", "stale")
        }
        total = int(sum(lookups.values()))
        self.extra(
            "cache_hit_ratio", lookups["hit"] / max(1, total), "ratio", total,
            "QueryCache hits / lookups over the run",
        )
        self.extra(
            "cache_evictions", registry.value("serving_cache_evictions_total"), "count",
            total, "LRU evictions (the tail is 4.5x the cache)",
        )
        if self.status_latencies:
            self.extra(
                "status_p50_ms", statistics.median(self.status_latencies) * 1e3, "ms",
                len(self.status_latencies),
                "/status requests (re-checksums every member per call)", gated=True,
            )

    def checks(self) -> list[tuple[str, bool]]:
        return [
            *check_fidelity(self.hub),
            *check_ranking(self.hub, self.sizes),
            (f"bodies_byte_identical_to_uncached:{len(self.sampled)}", self.mismatched == 0),
        ]


class Heterogeneous(Workload):
    """Same layers, other code paths: JSON-validated ETL, loose shipping,
    the storage and cloud aggregation kernels."""

    name = "heterogeneous"
    unit = (
        "rep: cloud + storage ingest -> loose join (dump, checksum, load) -> full "
        "aggregation -> a week's delta -> re-ship -> aggregation -> read 4 charts"
    )
    record_unit = "events+docs"
    realms = {"storage": storage_realm(), "cloud": cloud_realm()}

    def setup(self) -> None:
        self.inputs = inputs.heterogeneous_inputs(self.seed, self.sizes)
        self.sha256 = self.inputs.sha256

    def _ingest(self, instance: XdmodInstance, events, docs) -> int:
        with self.rec.span("etl.cloud_ingest") as span:
            _, cloud_rejected = instance.pipeline.ingest_cloud(events)
            span.count = len(events)
        with self.rec.span("etl.storage_ingest") as span:
            _, storage_rejected = instance.pipeline.ingest_storage(docs)
            span.count = len(docs)
        return cloud_rejected + storage_rejected

    def op(self, i: int) -> None:
        gc.collect()
        data = self.inputs
        rec = self.rec
        start = perf_counter()
        with rec.span("bench.op"):
            hub = new_hub()
            instance = XdmodInstance("xdmod_ccr")
            rejected = self._ingest(instance, data.cloud_main, data.storage_main)
            with rec.span("core.loose_ship") as span:
                hub.join(instance, mode="loose", filter=ALL_REALMS)
                shipped_first = fact_rows(hub.federated_schemas())
                span.count = shipped_first
            aggregate(hub, rec)
            rejected += self._ingest(instance, data.cloud_delta, data.storage_delta)
            with rec.span("core.loose_ship") as span:
                outcomes = hub.ship_loose()
                shipped_again = fact_rows(hub.federated_schemas())
                span.count = shipped_again
            aggregate(hub, rec)
            # a re-ship replaces the hub-side Schema object, so the API
            # is built over the schemas that exist now
            api = XdmodApi(
                self.realms, hub.federated_schemas(), obs=hub.obs,
                monitor=FederationMonitor(hub),
            )
            results = [read(api, spec, rec) for spec in inputs.HETEROGENEOUS_READS]
        elapsed = perf_counter() - start
        self.done(elapsed, elapsed, data.n_records - rejected)
        self.offered += data.n_records
        self.failed += rejected + sum(
            1 for o in outcomes.values() if o.status != "applied"
        )
        self._count_reads(results)
        self.extra(
            "loose_rows_moved_per_new_row",
            shipped_again / max(1, shipped_again - shipped_first), "ratio", 1,
            "fact rows the re-ship moved / fact rows new since the last ship",
        )
        self.hub, self.satellites, self.api = hub, {"ccr": instance}, api

    def checks(self) -> list[tuple[str, bool]]:
        satellite = self.satellites["ccr"].schema
        shipped = self.hub.federated_schemas()["xdmod_ccr"]
        return [
            *check_fidelity(self.hub),
            *check_conservation(self.hub),
            ("all_facts_visible_on_hub",
             fact_rows({"s": satellite}) == fact_rows({"h": shipped})),
        ]

    def probe_inputs(self) -> ProbeInputs:
        """Validation stands in for parsing, the two ``ingest_*`` calls
        for the star load."""
        data = self.inputs
        events = data.cloud_main + data.cloud_delta
        docs = data.storage_main + data.storage_delta

        def parse() -> int:
            for event in events:
                validate(event, CLOUD_EVENT_SCHEMA)
            for doc in docs:
                validate(doc, STORAGE_SNAPSHOT_SCHEMA)
            return len(events) + len(docs)

        def load(instance: XdmodInstance, _parsed: Any) -> tuple[int, int]:
            _, rejected_c = instance.pipeline.ingest_cloud(events)
            _, rejected_s = instance.pipeline.ingest_storage(docs)
            return len(events) + len(docs), rejected_c + rejected_s

        return ProbeInputs(
            parse, load, ALL_REALMS, self.satellites["ccr"],
            len(json.dumps(events)) + len(json.dumps(docs)),
            list(inputs.HETEROGENEOUS_READS), inputs.heterogeneous_tail(),
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Backfill, Nightly, Portal, Heterogeneous)
}
