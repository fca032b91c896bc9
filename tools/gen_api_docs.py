#!/usr/bin/env python
"""Generate docs/API.md from the package's public exports.

Run from the repository root:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys
from typing import Sequence

PACKAGES = [
    "repro", "repro.warehouse", "repro.simulators", "repro.etl",
    "repro.aggregation", "repro.realms", "repro.core", "repro.auth",
    "repro.ui", "repro.appkernels", "repro.analysis", "repro.analytics",
    "repro.obs", "repro.config", "repro.timeutil",
]

FOOTER = """\
## Aggregation fast path

### Columnar table views

`warehouse.Table` keeps a cached columnar view of its rows:

- `Table.column_array(name)` returns a NumPy array for one column
  (`INT`/`TIMESTAMP` -> `int64`, promoted to `float64` with `NaN` when the
  column holds NULLs; `FLOAT` -> `float64` with NULL as `NaN`; everything
  else -> `object`).  `Table.column_arrays(names)` batches several columns.
- Arrays are cached per `(column, data_version)` and shared between
  callers and threads (the aggregator and every REST worker); **do not
  mutate them in place**.  `column_arrays` returns arrays of one table
  version, gathering them again if a writer got in between.
- `Table.data_version` increments once on every row mutation (`insert`,
  `update_where`, `delete_where`, `truncate`, replication replace), which
  invalidates the cache.  Repeated reads between mutations are free.

### One batch write

`Table.upsert_columns(columns)` is the way back in: equal-length columns
(NumPy arrays or lists, keyed by column name) written with upsert
semantics, to the same end state — rows, `data_version`s, binlog — as one
`upsert` per row in batch order (`insert` on a keyless table; a key
repeated inside the batch updates).  The whole batch is validated first
(`TableSchema.normalize_columns`: every check `upsert` makes and the same
errors, plus equal lengths), so a bad value anywhere raises before anything
is written; what is stored is a plain `int` / `float` / `str`, never a
NumPy scalar.  Versions move once, by the row count, the column cache is
cleared once, and the events — one `INSERT` / `UPDATE` per row, as ever —
are appended through `Binlog.extend(etype, table, payloads)`: one lock
acquisition (so a batch's LSNs are contiguous), one telemetry call with the
count, one trace context shared by the batch.  An empty batch writes and
bumps nothing.

Every bulk writer reaches its table this way, and only this way:

- the aggregator (the fold below, and its `agg_watermark` rows);
- the ETL loaders — `ingest_jobs`, `ingest_storage_snapshots`,
  `ingest_cloud_events`, `ingest_performance`, `ingest_summaries` — which
  stage a parsed batch as rows, let `DimensionCache.stage(...)` hand out
  surrogate ids and check every staged table's batch, and then `land` it
  dimensions first, one `upsert_columns` per table.  An ingest batch is
  all or nothing: a `strict` validation failure or a value a table refuses
  raises before anything of the batch is written (row by row, a prefix
  used to land); cloud re-ingest deletes the re-ingested VMs' rows after
  that check and before the batches land;
- `load_schema`, one batch per dumped table (a ragged row or a repeated
  primary key is still a `DumpError` that leaves no partial schema);
- the hub side of tight replication: `Schema.apply_events(run)` applies a
  contiguous run of `INSERT` events on one table as one batch, to the same
  rows, versions, hub binlog and trace sidecar as `Schema.apply_event` per
  event.  `ReplicationChannel` cuts runs at every table change, trace
  context change, other event type and filtered event; a run whose batch
  raises has applied nothing and is re-applied event by event, which is
  where retries, quarantine and the `ReplicationError` naming the LSN are
  accounted.  `apply_event` remains for `UPDATE` / `DELETE` / `TRUNCATE` /
  DDL, single events and that fallback; a replicated keyed `DELETE` (and
  the old key of a key-changing `UPDATE`) goes through
  `Table.delete_key(key)`, the primary-key index, not a scan.

The row-at-a-time loaders these replaced are the oracles in
`tests/row_loader_oracles.py`; `repolint`'s `per-row-bulk-write` rule keeps
a per-row loop from coming back.

### Derived tables

`TableSchema(..., derived=True)` declares that a table's rows are
recomputed from other tables of its schema: every `agg_*` table and
`agg_watermark`.  Row mutations on a derived table bump
`Table.data_version` / `Schema.data_version` and clear the column cache
exactly like any other table's — the serving cache still goes stale after
a fold — but build no row image and append no binlog event.  Its
`CREATE_TABLE` and `DROP_TABLE` are logged and say `"derived": true`
(the key is written only when true, so every other table's description,
dump and checksum is what it was), and `ReplicationFilter` refuses a table
because a description of it going by says so — for any whitelist,
including `tables=None` — not because its name starts with `agg_`.
Replaying a binlog reproduces every logged table; re-aggregating the
replayed facts reproduces the derived ones.  A dump or binlog written
before the key existed loads as `derived=False`.

### One group-by kernel

`repro.aggregation.group_reduce(keys, measures)` (one `np.lexsort` + one
`np.add.reduceat` per measure) is the only group-by in the package.  The
builders below fold facts into `agg_*` tables with it, and
`Realm.query` — behind every `/query` and `/chart` — answers from those
tables with it: the time range and the filters select rows of each
source's `agg_<realm>_<period>` column arrays, labels are resolved once
per distinct stored value and share one code space across sources, and
numerator and denominator are summed over `(group, period_start)`.  The
warehouse has no row-level query API and no secondary indexes; the
row-at-a-time reference `Realm.query` is tested against lives in
`tests/realm_query_oracle.py`.

### Aggregation: one spec per realm, two verbs over one fold

Each aggregated realm is declared once, as a frozen
`repro.aggregation.AggregateSpec(realm, prefix, fact_tables, columns, key,
build)` — `JOBS`, `STORAGE`, `CLOUD`, `ALLOCATIONS`, all four in `SPECS`.
`spec.table_schema(period)` is the `<prefix>_<period>` table
(`period_start`, `period_label`, then `columns`; primary key
`("period_start", *key)`; `derived=True`); the fold, `aggregate_all`, the
realm factories (`Realm.agg_prefix` is `spec.prefix`) and repolint's schema
catalog all read the spec, so a new realm costs one spec and one builder.
`spec.build` is the realm's one builder (`repro.aggregation.columnar`): a
fold that recomputes, from all their facts, the groups that fact rows not
yet folded contribute to.  `build_job_rows` / `build_storage_rows` /
`build_cloud_rows` / `build_allocation_rows(schema, config, period, since)`
return those groups as a column batch (`dict[str, np.ndarray]`, one array
per aggregate column, rows in the reference's order) and the fold hands it
to `<prefix>_<period>.upsert_columns(...)` — the aggregate never exists as
a list of row dicts.  The two verbs differ only in where the fold starts:

| verb | entry point | starts at | returns |
|---|---|---|---|
| rebuild | `Aggregator.rebuild(spec, period)` | row 0, after dropping the table and its watermark | rows written |
| fold | `Aggregator.fold(spec, period)` | the watermark | fact rows folded |

Each call is one `aggregate_<realm>` span, one
`aggregation_build_seconds{realm,mode}` observation and one
`aggregation_rows_total` bump; `aggregate_all` / `aggregate_all_incremental`
run them over `JOBS`, `STORAGE`, `CLOUD` for every period, and
`aggregate_jobs` / `aggregate_storage` / `aggregate_cloud` name the three
rebuilds.  Allocations is rebuilt on demand,
`repro.realms.aggregate_allocations(schema, period)`.

The watermark is one table per schema, `agg_watermark`
(`agg_table, fact_table -> n_rows, version`), written by every fold.  A
fold trusts it only while the fact table has seen nothing but appends
since, which it observes rather than assumes:
`fact.data_version - mark.version == len(fact) - mark.n_rows >= 0`
(every mutation bumps `data_version` once; only an insert adds a row).
Anything else — an update, delete or truncate, a cumulative cloud
re-ingest, a fact table that appeared or vanished, a missing aggregate
table — makes the fold rebuild by itself, so a fold always equals a
rebuild over the same facts, bit for bit.  A level change goes through
`Aggregator.reaggregate` / `FederationHub.reaggregate_federation`, which
rebuild.  `FederationHub.aggregate_federation(periods, incremental=True)`
folds only the deltas replicated since the previous fold on every
federated schema.  The pure-Python per-row reference the builders are
tested against lives in `tests/aggregation_oracles.py`.

Edge-case semantics: zero-walltime jobs attribute their recorded usage to
the period containing `end_ts`; zero-length `running` VM intervals count
toward `n_vms_active` in the period containing `start_ts`; a storage
`soft_quota_gb` of `0.0` is a real quota sample (only NULL means "no quota
configured").

## Serving layer (cache-first REST reads)

`GET /query` and `GET /chart` on `repro.ui.rest.XdmodApi` are served by
`repro.ui.serving.QueryService`, a query-result cache in front of the
realm/aggregation engine:

- **Cache key**: the canonical request tuple `(chart?, realm, metric,
  start, end, period, group_by, sorted filters, view, top_n, title)`.
  `offset`/`limit` are *excluded* — pagination slices the cached full
  payload, so every page of a result is served by one cached compute
  (per-window slices and their ETags are memoized inside the entry).
- **Invalidation**: every cache entry is stamped with the
  `Schema.data_version` counters of all source schemas at build time.
  `data_version` is a monotonic per-schema counter bumped by *any*
  mutation (insert/update/delete/truncate, replication replace,
  create/drop table), so the freshness check is one integer comparison
  per source schema, never a row scan.  A hit returns the stored payload
  without touching the aggregation engine; a version mismatch counts as
  `stale`, recomputes, and re-stamps the entry in place; capacity is
  bounded by LRU eviction (`cache_entries`, default 512).  Cached and
  uncached responses are byte-identical — the cache changes latency,
  never answers (`XdmodApi(cache=False)` / `xdmod-repro serve
  --no-cache` is the pass-through baseline).
- **ETag semantics**: each 200 response carries a strong `ETag` (SHA-256
  of the canonical JSON of the exact paginated payload) plus an
  `X-Cache: hit|miss|stale|bypass` header.  A request whose
  `If-None-Match` matches (comma lists, `W/` prefixes and `*` per
  RFC 9110) gets an empty `304 Not Modified`.  ETags change whenever the
  data or the pagination window changes.
- **Materialized views**: `QueryService.register_view(ViewSpec(...))`
  declares a standing query; `QueryService.materialize()` recomputes all
  of them through the normal cache path.  Wire it to the hub with
  `hub.add_post_aggregation_hook(service.materialize)` and the portal's
  standing charts are warm before the first request after every
  `aggregate_federation()`.
- **Telemetry** (with an `Observability` bundle attached):
  `serving_cache_lookups_total{result}`, `serving_cache_evictions_total`,
  `serving_cache_entries_rows`, `serving_view_refreshes_total`,
  `serving_requests_total{route,class}` and the
  `serving_request_seconds{route}` latency histogram; the shipped
  `api_error_ratio_high` SLO rule pages when >=5% of recent requests are
  5xx.  All JSON bodies are strict JSON — non-finite samples serialize
  as the strings `"NaN"` / `"+Inf"` / `"-Inf"`.

`benchmarks/bench_a13_serving.py` prices the layer: warm-cache `/query`
p99 must be at least 5x faster than the uncached baseline at equal
correctness.

## Static analysis

`tools/repolint.py` (or `xdmod-repro lint`) runs the schema-aware lint
engine in `repro.analysis` over the tree; see `docs/static-analysis.md`
for the rule catalog, suppression syntax, and baseline workflow.

## Observability

Every `XdmodInstance` / `FederationHub` carries a `repro.obs.Observability`
bundle (metrics registry + tracer + injectable clock); `GET /metrics` on
`repro.ui.rest` serves the registry in Prometheus text format and
`xdmod-repro obs` dumps the same data from the CLI.  See
`docs/observability.md` for the metric catalog, span semantics, and the
overhead budget.
"""


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return "constant"


def generate(packages: Sequence[str] | None = None) -> str:
    """Render the API reference markdown for ``packages``
    (default: the module-level PACKAGES list).

    Raises ImportError if any package does not import — callers decide
    whether that is fatal (:func:`main` turns it into exit code 1).
    """
    if packages is None:
        packages = PACKAGES
    lines = [
        "# API reference", "",
        "Generated from the packages' `__all__` exports "
        "(`python tools/gen_api_docs.py` regenerates this file).", "",
    ]
    for name in packages:
        mod = importlib.import_module(name)
        doc = (mod.__doc__ or "").strip().splitlines()
        lines.append(f"## `{name}`")
        lines.append("")
        if doc:
            lines.append(doc[0])
            lines.append("")
        exports = getattr(mod, "__all__", None)
        if exports is None:
            exports = [
                n for n in dir(mod)
                if not n.startswith("_")
                and getattr(getattr(mod, n), "__module__", "").startswith("repro")
            ]
        rows = []
        for export in sorted(exports, key=str.lower):
            obj = getattr(mod, export, None)
            odoc = (inspect.getdoc(obj) or "").splitlines()
            first = odoc[0] if odoc else ""
            if len(first) > 90:
                first = first[:87] + "..."
            rows.append(f"| `{export}` | {kind_of(obj)} | {first} |")
        if rows:
            lines.append("| name | kind | summary |")
            lines.append("|---|---|---|")
            lines.extend(rows)
        lines.append("")
    lines.append(FOOTER)
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", "-o", default="docs/API.md",
        help="output file (default: docs/API.md); '-' for stdout",
    )
    args = parser.parse_args(argv)
    try:
        text = generate()
    except ImportError as exc:
        print(f"gen_api_docs: cannot import package: {exc}", file=sys.stderr)
        return 1
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    out = pathlib.Path(args.output)
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
