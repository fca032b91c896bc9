"""Cache-first query serving: the read path behind the REST surface.

The federated hub exists to be *looked at* — the paper's unified view is
a web portal — and a portal workload (ColdFront's, for instance) is
overwhelmingly repeated reads of a small set of charts.  Recomputing a
``/query`` answer from the aggregate tables on every request caps the
read path at the aggregation engine's speed; this module makes the read
path cache-first instead:

- :class:`QueryCache` — a bounded LRU of fully built response payloads,
  keyed on the canonical request ``(chart?, realm, metric, start, end,
  period, group_by, filters, view, top_n, title)`` and stamped with the
  warehouse ``data_version`` counters and serials of every source schema
  at build time.  A hit never touches the aggregation engine; an entry
  whose stamp no longer matches is *stale* and is recomputed and
  re-stamped in place; the key space is bounded by LRU eviction.
- :class:`QueryService` — parses and canonicalizes request parameters
  (rejecting bad ones with a 400 instead of an exception), consults the
  cache, paginates (``offset``/``limit`` slice the cached full payload,
  so every page is served from one cached compute), and derives the
  strong ETag that lets :mod:`repro.ui.rest` answer ``If-None-Match``
  revalidations with an empty 304.
- :class:`ViewSpec` — a pre-materialized view: a registered query
  (top-N chart, dashboard timeseries) recomputed by
  :meth:`QueryService.materialize`, which the federation hub invokes
  through its post-aggregation hook so the portal's standing charts are
  warm before the first request arrives.

Telemetry (when an :class:`~repro.obs.Observability` bundle is wired):
``serving_cache_lookups_total{result=hit|miss|stale|bypass}``,
``serving_cache_evictions_total``, ``serving_cache_entries_rows`` and
``serving_view_refreshes_total``; the request counter and latency
histogram live in :mod:`repro.ui.rest`, and the shipped
``api_error_ratio_high`` SLO rule watches the error ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..analysis.sanitizer import create_lock
from ..obs import Observability
from ..realms.base import Realm, RealmQueryError
from ..warehouse import Schema
from .charts import chart_from_result

__all__ = [
    "QueryCache",
    "QueryService",
    "ServingParamError",
    "ServingResult",
    "ViewSpec",
    "json_sanitize",
]


class ServingParamError(ValueError):
    """A request parameter failed validation (maps to HTTP 400)."""


def json_sanitize(obj: Any) -> Any:
    """Recursively replace non-finite floats with their Prometheus
    spellings (``"NaN"``, ``"+Inf"``, ``"-Inf"``) so the result is
    strictly valid JSON.

    ``json.dumps`` alone emits bare ``NaN``/``Infinity`` tokens — legal
    Python, invalid JSON — which the metrics registry's ±Inf/NaN samples
    would otherwise smuggle into ``/status`` and the JSON ``/metrics``
    payloads.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "NaN"
        return "+Inf" if obj > 0 else "-Inf"
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    return obj


def _int_param(
    params: Mapping[str, str], name: str, *, default: int | None = None,
    minimum: int | None = None,
) -> int | None:
    """Parse one integer query parameter; ServingParamError on garbage."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ServingParamError(
            f"bad parameters: {name}={raw!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise ServingParamError(
            f"bad parameters: {name}={value} must be >= {minimum}"
        )
    return value


@dataclass(frozen=True)
class QueryRequest:
    """One canonicalized ``/query`` or ``/chart`` request."""

    chart: bool
    realm: str
    metric: str
    start: int
    end: int
    period: str
    group_by: str | None
    filters: tuple[tuple[str, tuple[str, ...]], ...]
    view: str
    top_n: int | None
    title: str | None
    offset: int
    limit: int | None

    @property
    def key(self) -> tuple:
        """Cache key: everything that shapes the *full* payload.

        ``offset``/``limit`` are deliberately excluded — pagination
        slices the cached full payload, so every page of a result is
        served by one cached compute.
        """
        return (
            self.chart, self.realm, self.metric, self.start, self.end,
            self.period, self.group_by, self.filters, self.view,
            self.top_n, self.title,
        )

    @classmethod
    def parse(cls, params: Mapping[str, str], *, chart: bool) -> "QueryRequest":
        missing = [k for k in ("realm", "metric", "start", "end") if k not in params]
        if missing:
            raise ServingParamError(
                f"bad parameters: missing {', '.join(missing)}"
            )
        filters: list[tuple[str, tuple[str, ...]]] = []
        for key, value in params.items():
            if key.startswith("filter."):
                filters.append(
                    (key[len("filter."):], tuple(sorted(set(value.split(",")))))
                )
        filters.sort()
        return cls(
            chart=chart,
            realm=params["realm"],
            metric=params["metric"],
            start=_int_param(params, "start"),  # type: ignore[arg-type]
            end=_int_param(params, "end"),  # type: ignore[arg-type]
            period=params.get("period", "month"),
            group_by=params.get("group_by") or None,
            filters=tuple(filters),
            view=params.get("view", "timeseries"),
            top_n=_int_param(params, "top_n", minimum=1) if chart else None,
            title=params.get("title") if chart else None,
            offset=_int_param(params, "offset", default=0, minimum=0),  # type: ignore[arg-type]
            limit=_int_param(params, "limit", minimum=0),
        )


@dataclass
class ServingResult:
    """What the REST layer needs to answer one read request."""

    status: int
    payload: dict[str, Any]
    etag: str | None = None
    cache: str = "none"  # hit | miss | stale | bypass | none


#: Distinct (offset, limit) windows memoized per cache entry; beyond
#: this, extra windows are still served (re-sliced from the cached full
#: payload) — they just are not memoized.
MAX_PAGES_PER_ENTRY = 16


class _CacheEntry:
    __slots__ = ("payload", "versions", "hits", "pages", "_plock")

    def __init__(self, payload: dict[str, Any], versions: tuple) -> None:
        self.payload = payload
        self.versions = versions
        self.hits = 0
        # (offset, limit) -> (paginated payload, etag): a hit on a seen
        # window returns a fully built response without re-slicing or
        # re-hashing.  Guarded by its own per-entry lock: concurrent
        # /query clients paginate the same resident entry, and an
        # unlocked check-then-insert both races the MAX_PAGES_PER_ENTRY
        # bound and mutates the dict mid-``get`` on other threads.
        self.pages: dict[tuple, tuple[dict[str, Any], str]] = {}
        self._plock = create_lock("QueryCache.entry")  # guards: pages

    def get_page(self, page_key: tuple) -> tuple[dict[str, Any], str] | None:
        with self._plock:
            return self.pages.get(page_key)

    def memo_page(self, page_key: tuple, page: dict[str, Any], etag: str) -> None:
        """Memoize one window; the bound check and the insert are one
        critical section, so the entry can never exceed the page cap."""
        with self._plock:
            if len(self.pages) < MAX_PAGES_PER_ENTRY:
                self.pages[page_key] = (page, etag)


class QueryCache:
    """Bounded LRU of query payloads stamped with source data versions.

    Thread-safe: ``lookup``/``store`` take a lock; the (potentially
    expensive) payload compute happens outside it, so concurrent misses
    on the same key each compute once and the last store wins — wasted
    work under a thundering herd, never a wrong answer.
    """

    def __init__(self, *, max_entries: int = 512, registry=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._lock = create_lock("QueryCache")  # guards: _entries
        if registry is not None:
            lookups = registry.counter(
                "serving_cache_lookups_total",
                "Query-cache lookups by result",
                ("result",),
            )
            self._c_hit = lookups.labels(result="hit")
            self._c_miss = lookups.labels(result="miss")
            self._c_stale = lookups.labels(result="stale")
            self._c_evict = registry.counter(
                "serving_cache_evictions_total",
                "Query-cache entries evicted by the LRU bound",
            )
            self._g_entries = registry.gauge(
                "serving_cache_entries_rows",
                "Query-cache entries currently resident",
            )
        else:
            self._c_hit = self._c_miss = self._c_stale = None
            self._c_evict = self._g_entries = None

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, versions: tuple) -> tuple[_CacheEntry | None, str]:
        """``(entry, "hit")`` on a fresh entry, else ``(None, reason)``.

        A stale entry (version stamp mismatch) stays resident until
        :meth:`store` re-stamps it — the reason tells the caller (and the
        lookup counters) whether the recompute was a cold miss or an
        invalidation.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if self._c_miss is not None:
                    self._c_miss.inc()
                return None, "miss"
            if entry.versions != versions:
                if self._c_stale is not None:
                    self._c_stale.inc()
                return None, "stale"
            entry.hits += 1
            self._entries.move_to_end(key)
            if self._c_hit is not None:
                self._c_hit.inc()
            return entry, "hit"

    def store(
        self, key: tuple, versions: tuple, payload: dict[str, Any]
    ) -> _CacheEntry:
        entry = _CacheEntry(payload, versions)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                if self._c_evict is not None:
                    self._c_evict.inc()
            if self._g_entries is not None:
                self._g_entries.set(len(self._entries))
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._g_entries is not None:
                self._g_entries.set(0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": sum(e.hits for e in self._entries.values()),
            }


@dataclass(frozen=True)
class ViewSpec:
    """A pre-materialized view: one standing query kept warm.

    ``chart=True`` materializes the ``/chart`` payload shape (with
    ``top_n``/``title``); otherwise the ``/query`` rows shape.  The spec
    is converted to the same canonical :class:`QueryRequest` a live
    request would produce, so a request matching the view is a cache hit
    byte-for-byte.
    """

    realm: str
    metric: str
    start: int
    end: int
    period: str = "month"
    group_by: str | None = None
    view: str = "timeseries"
    chart: bool = False
    top_n: int | None = None
    title: str | None = None

    def params(self) -> dict[str, str]:
        out = {
            "realm": self.realm,
            "metric": self.metric,
            "start": str(self.start),
            "end": str(self.end),
            "period": self.period,
            "view": self.view,
        }
        if self.group_by:
            out["group_by"] = self.group_by
        if self.chart and self.top_n is not None:
            out["top_n"] = str(self.top_n)
        if self.chart and self.title is not None:
            out["title"] = self.title
        return out


class QueryService:
    """Cache-first execution of realm queries for one source set.

    ``enabled=False`` turns the layer into a pass-through (every request
    recomputes, counted as ``bypass``) — the uncached baseline arm of
    ``bench_a13_serving`` and the ``serve --no-cache`` escape hatch.
    Payloads are built by the same code on both paths, so cached and
    uncached responses are byte-identical.
    """

    def __init__(
        self,
        realms: Mapping[str, Realm],
        sources: Schema | Mapping[str, Schema],
        *,
        obs: Observability | None = None,
        max_entries: int = 512,
        enabled: bool = True,
    ) -> None:
        self.realms = dict(realms)
        self.sources = sources
        self.enabled = enabled
        registry = obs.registry if obs is not None else None
        self.cache = QueryCache(max_entries=max_entries, registry=registry)
        self._views: list[ViewSpec] = []
        self._c_bypass = None
        self._c_view_refresh = None
        if registry is not None:
            self._c_bypass = registry.counter(
                "serving_cache_lookups_total",
                "Query-cache lookups by result",
                ("result",),
            ).labels(result="bypass")
            self._c_view_refresh = registry.counter(
                "serving_view_refreshes_total",
                "Materialized-view recomputes (post-aggregation refresh)",
            )

    # -- versions ------------------------------------------------------------

    def source_versions(self) -> tuple:
        """Current ``(name, serial, data_version)`` stamp of every source
        schema.

        The serial tells a schema from the one it replaced under the same
        name, whose ``data_version`` a fresh load can land on again.  Two
        integer reads per schema — the whole invalidation check is
        O(#sources), never O(rows).
        """
        sources = self.sources
        if isinstance(sources, Schema):
            sources = {sources.name: sources}
        return tuple(sorted((name, s.serial, s.data_version) for name, s in sources.items()))

    # -- the read path -------------------------------------------------------

    def respond(self, params: Mapping[str, str], *, chart: bool) -> ServingResult:
        """Answer one ``/query`` (rows) or ``/chart`` request."""
        try:
            request = QueryRequest.parse(params, chart=chart)
        except ServingParamError as exc:
            return ServingResult(400, {"error": str(exc)})
        if request.realm not in self.realms:
            return ServingResult(
                400, {"error": f"unknown realm {request.realm!r}"}
            )
        return self.respond_cached(
            request.key,
            lambda: self._compute(request),
            offset=request.offset,
            limit=request.limit,
            field="series" if chart else "rows",
        )

    def respond_cached(
        self,
        key: tuple,
        compute: Callable[[], dict[str, Any]],
        *,
        offset: int = 0,
        limit: int | None = None,
        field: str = "rows",
    ) -> ServingResult:
        """The cache-first flow behind every cached route: version-stamped
        cache entry, per-window page memoization, strong ETag.

        :meth:`respond` passes the realm query as ``compute``; routes
        whose payload is not a realm query (e.g. ``/jobs/efficiency``)
        pass their own.  ``compute`` runs only on a miss or stale entry
        and must return the full payload dict whose ``field`` key holds
        the list to paginate; the cached dict is never mutated.
        """
        cache_state = "bypass"
        versions = self.source_versions()
        entry: _CacheEntry | None = None
        if self.enabled:
            entry, cache_state = self.cache.lookup(key, versions)
        elif self._c_bypass is not None:
            self._c_bypass.inc()
        page_key = (offset, limit)
        if entry is None:
            try:
                full = compute()
            except RealmQueryError as exc:
                return ServingResult(400, {"error": str(exc)})
            if self.enabled:
                entry = self.cache.store(key, versions, full)
        else:
            memo = entry.get_page(page_key)
            if memo is not None:
                return ServingResult(200, memo[0], etag=memo[1], cache="hit")
            full = entry.payload
        items = full[field]
        stop = len(items) if limit is None else offset + limit
        page = dict(full)
        page[field] = items[offset:stop]
        page[f"total_{field}"] = len(items)
        page["offset"] = offset
        page["limit"] = limit
        etag = self._etag(page)
        if entry is not None:
            entry.memo_page(page_key, page, etag)
        return ServingResult(200, page, etag=etag, cache=cache_state)

    def _compute(self, request: QueryRequest) -> dict[str, Any]:
        """Build the full (unpaginated) payload from the realm engine."""
        realm = self.realms[request.realm]
        result = realm.query(
            self.sources,
            request.metric,
            start=request.start,
            end=request.end,
            period=request.period,
            group_by=request.group_by,
            filters={name: set(vals) for name, vals in request.filters} or None,
            view=request.view,
        )
        if request.chart:
            data = chart_from_result(
                result,
                title=(
                    request.title
                    if request.title is not None
                    else f"{request.realm}:{request.metric}"
                ),
                top_n=request.top_n,
            )
            return data.to_dict()
        return {
            "metric": request.metric,
            "rows": [
                {
                    "group": r.group,
                    "period": r.period_label,
                    "period_start": r.period_start,
                    "value": r.value,
                }
                for r in result.rows
            ],
        }

    @staticmethod
    def _etag(payload: dict[str, Any]) -> str:
        """Strong validator over the canonical payload serialization."""
        canonical = json.dumps(
            json_sanitize(payload), sort_keys=True, separators=(",", ":")
        )
        return '"' + hashlib.sha256(canonical.encode()).hexdigest()[:32] + '"'

    # -- materialized views ---------------------------------------------------

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return tuple(self._views)

    def register_view(self, spec: ViewSpec) -> ViewSpec:
        """Register a standing query for :meth:`materialize` to keep warm."""
        if spec not in self._views:
            self._views.append(spec)
        return spec

    def register_views(self, specs: Any) -> int:
        for spec in specs:
            self.register_view(spec)
        return len(self._views)

    def materialize(self) -> int:
        """(Re)compute every registered view; returns views refreshed.

        Wired as a federation post-aggregation hook
        (``hub.add_post_aggregation_hook(service.materialize)``) so the
        portal's standing charts are recomputed right after fresh
        aggregates land, ahead of any request.  Uses the normal cache
        path: a view whose sources did not change is already fresh and
        costs one version check.
        """
        refreshed = 0
        for spec in self._views:
            result = self.respond(spec.params(), chart=spec.chart)
            if result.status == 200:
                refreshed += 1
                if self._c_view_refresh is not None:
                    self._c_view_refresh.inc()
        return refreshed

    def stats(self) -> dict[str, int]:
        out = self.cache.stats()
        out["views"] = len(self._views)
        return out
