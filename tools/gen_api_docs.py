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
- `Table.data_version` increments once on every row mutation
  (`upsert_columns`, `update_where`, `delete_where`, `delete_key`,
  `truncate`), which invalidates the cache.  Repeated reads between
  mutations are free.

### One batch write

`Table.write(batch)` is the one way a row enters a table, and it takes
only a batch the one validator checked: `TableSchema.check_rows(names,
rows)`, rows of values under named columns.  The batch comes in the
shape it arrives in — `Table.upsert_rows(names, rows)` for row tuples
(replicated batch records, dump entries, staged ETL rows, a replicated
single row), `Table.upsert_columns(columns)` for equal-length columns
(NumPy arrays or lists keyed by column name: the aggregator and the ETL
markers), whose entry `TableSchema.check_columns` adds only the equal
length check and hands the rows to `check_rows` — and each row is
checked once.  A bad value anywhere raises before anything is written,
with the same error from either shape; what is stored is a plain `int` /
`float` / `str`, never a NumPy scalar, and a row that already holds each
column's stored type, as a tuple in schema order, is stored as the very
tuple given.  Rows are written in batch order with upsert semantics — on
a keyed table a key already stored, or repeated earlier in the batch,
replaces its row and logs an `UPDATE`; every other row is appended and
logs an `INSERT`; a keyless table only appends.  A single row is a batch
of one.  Versions move once,
by the row count, the column cache is kept (a batch of new keys only,
which is one list extend and one index update) or cleared once, and
each run of like events is one record,
`Binlog.extend(etype, table, names, rows, keys=None)`, holding the stored
row tuples (and, for `UPDATE`s, their keys): one lock acquisition (so a
batch's LSNs are contiguous), one telemetry call with the count, one trace
context shared by the batch, and no object per row.  Events are built
when read: `read_from` turns each row into its own `INSERT` / `UPDATE`
event — one LSN per row, a fresh payload dict on every read — so
readers, checksums and dumps see one event per row.  An empty batch
writes and bumps nothing.

Every bulk writer reaches its table this way, and only this way:

- the aggregator (the fold below, and its `agg_watermark` rows);
- the ETL loaders — `ingest_jobs`, `ingest_storage_snapshots`,
  `ingest_cloud_events`, `ingest_performance`, `ingest_summaries` — which
  stage a parsed batch as rows, let `DimensionCache.stage(...)` hand out
  surrogate ids and check every staged table's batch, and then `land` the
  checked batches dimensions first, one `write` per table and no second
  check.  An ingest batch is
  all or nothing: a `strict` validation failure or a value a table refuses
  raises before anything of the batch is written (row by row, a prefix
  used to land); cloud re-ingest deletes the re-ingested VMs' rows after
  that check and before the batches land;
- `load_schema`, one `upsert_rows` per dumped table (a ragged row or a repeated
  primary key is still a `DumpError` that leaves no partial schema);
- the hub side of tight replication: `Schema.apply_rows(batch)` applies a
  `RowBatch` — `INSERT`s, or keyed `UPDATE`s, on one table — as one
  batch, to the same rows, versions, hub binlog and trace sidecar as
  `Schema.apply_event` per event.  A channel polls the source log as
  records (`Binlog.read_records(lsn, limit)`: single events, and batch
  records sliced to the window with no object per row), so a batch
  record's rows reach the hub without an event or a dict per row.
  `ReplicationFilter.split(batch)` cuts a batch record into admitted and
  filtered slices by the routing rule, and `ReplicationFilter.cut(records)`
  applies `admit` or `split` to each record of a stretch, in log order:
  a pump's apply and a loose export cut the same way, and a loose segment
  ships the admitted parts as the log's own records.  Every admitted batch record,
  one-row records included, goes to `apply_rows` first.  A batch that
  raises has applied nothing and is re-applied event by event
  (`RowBatch.events()`), which is where retries, quarantine and the
  `ReplicationError` naming the LSN are accounted.  `apply_event` remains
  for `UPDATE`s with a before-image, `DELETE` / `TRUNCATE` / DDL, single
  events and that fallback; it lands an `INSERT` or `UPDATE` row through
  `upsert_rows` as a batch of one, and a replicated keyed `DELETE`
  (and the old key of a key-changing `UPDATE`) goes through
  `Table.delete_key(key)`, the primary-key index, not a scan.

The row-at-a-time loaders these replaced are the oracles in
`tests/row_loader_oracles.py`.

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
`repro.aggregation.AggregateSpec(realm, prefix, columns, key, sources,
levels, pick, finish)` — `JOBS`, `STORAGE`, `CLOUD`, `SUPREMM`,
`ALLOCATIONS`, all five in `SPECS`.  `spec.table_schema(period)` is the `<prefix>_<period>`
table (`period_start`, `period_label`, then `columns`; primary key
`("period_start", *key)`; `derived=True`); the fold, `aggregate_all`, the
realm factories (`Realm.agg_prefix` is `spec.prefix`) and repolint's schema
catalog all read the spec, and `spec.fact_tables` (every source's table,
then every joined one) are what the fold watches.  One builder,
`repro.aggregation.columnar.build(spec, schema, config, period, since)`,
reads everything realm-specific from the declarations, so a new realm is a
spec and no code:

- `Source(table, read, attributions, rename={}, join=None)`: one table, its
  columns read in one `column_arrays` call (one data version), second names
  (`rename={name: column}`) and a lookup `join=(columns, table, keys,
  values)` (0 when nothing matches; a new row of the joined table refreshes
  the rows it matches; a row no attribution's `where` holds on is dropped);
- `at(ts, where=None, **values)`: a row's values land in
  the period containing `ts` (a NULL `ts` adds nothing);
  `over(start, end, where=None, **values)`: they land in every period
  `[start, end)` overlaps, and a function reads the seconds of the overlap
  as the column `overlap`.  A value is a column name, a constant, a
  function of the contribution rows' columns `c` (in which `c[f]` is
  function `f`'s column, computed once), or `Distinct(entity,
  where=None)`: the different `entity` values among a group's rows, over
  every attribution declaring the measure;
- on the spec, `levels={key: AggregationConfig field}` bins a key by a
  level set, a `STR` key is coded over every source, `pick={column: None |
  by}` takes a column from the group's first contribution row or from its
  row with the largest `by`, `finish={average: count}` divides a sum and
  `snapshot=True` makes the rows gauge readings (`at` only), summed per
  timestamp first, then per period; an `INT` measure's sum is rounded.

`build` returns, computed from all their rows, the groups that rows not
yet folded (`since`) contribute to, as a column batch (`dict[str,
np.ndarray]`, one array per aggregate column, rows in the reference's
order), and the fold hands it to `<prefix>_<period>.upsert_columns(...)` —
the aggregate never exists as a list of row dicts.  A fold first cuts each
source to the rows whose period span (earliest to latest timestamp its
attributions read) meets the fresh rows' period hull and whose key values a
fresh row has.  The two verbs differ only in where the fold starts:

| verb | entry point | starts at | returns |
|---|---|---|---|
| rebuild | `Aggregator.rebuild(spec, period)` | row 0, after dropping the table and its watermark | rows written |
| fold | `Aggregator.fold(spec, period)` | the watermark | fact rows folded |

Each call is one `aggregate_<realm>` span, one
`aggregation_build_seconds{realm,mode}` observation and one
`aggregation_rows_total` bump; `aggregate_all` / `aggregate_all_incremental`
run them over `JOBS`, `STORAGE`, `CLOUD` and, on a schema with
`fact_job_perf`, `SUPREMM` for every period, and
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
  of the response body bytes of the exact paginated payload) plus an
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
