"""Ablation A13: the cache-first serving layer on the REST read path.

The federated hub exists to be looked at, and a portal workload is
overwhelmingly repeated reads of the same handful of charts.  This
ablation prices the query-result cache that PR 6 put in front of the
aggregation engine:

- **Speedup** — the same ``/query`` mix served in-process by a cached
  API (warm) and an uncached baseline (``cache=False``, every request
  recomputes).  Budget on the large parametrization: warm-cache p99 at
  least 5x faster than the uncached p99, with every cached body
  byte-identical to its uncached twin (the cache must change latency,
  never answers).
- **Concurrency** — N simulated clients hammering a live
  :class:`~repro.ui.ApiServer` (ThreadingHTTPServer) over loopback HTTP
  with a mixed ``/query`` / ``/chart`` / ``/status`` / ``/metrics``
  workload; reports per-route p50/p99 and the cache hit ratio, and
  saves the report under ``out/`` — CI uploads it as a workflow
  artifact.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.cli import _demo_federation, _demo_instance
from repro.obs import Observability
from repro.realms import jobs_realm
from repro.timeutil import ts
from repro.ui import ApiServer, XdmodApi

from conftest import emit, emit_metrics

T0 = ts(2017, 1, 1)

SPEEDUP_BUDGET = 5.0  # warm p99 at least this many times faster than uncached
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 40


def _query_mix(months: int) -> list[str]:
    """A portal-shaped request mix: a few standing charts, re-read often."""
    end = ts(2017, months + 1, 1) if months < 12 else ts(2018, 1, 1)
    mix = []
    for metric, group_by in (
        ("cpu_hours", "queue"),
        ("cpu_hours", "resource"),
        ("xdsu", "application"),
        ("n_jobs_ended", "person"),
        ("avg_wait_hours", None),
        ("node_hours", "queue"),
    ):
        path = f"/query?realm=jobs&metric={metric}&start={T0}&end={end}"
        if group_by:
            path += f"&group_by={group_by}"
        mix.append(path)
    return mix


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def _hammer(api: XdmodApi, paths: list[str], rounds: int) -> list[float]:
    latencies = []
    for _ in range(rounds):
        for path in paths:
            t0 = time.perf_counter()
            status = api.handle_http(path, {})[0]
            latencies.append(time.perf_counter() - t0)
            assert status == 200
    return latencies


@pytest.mark.parametrize(
    "scale,months,rounds,enforce",
    [(0.05, 3, 5, False), (0.3, 12, 50, True)],
    ids=["small", "large"],
)
def test_a13_cache_speedup(scale, months, rounds, enforce):
    instance, _, _ = _demo_instance(scale, months=months)
    realms = {"jobs": jobs_realm()}
    cached = XdmodApi(
        realms, instance.schema, obs=Observability.default(), cache=True
    )
    uncached = XdmodApi(realms, instance.schema, cache=False)
    paths = _query_mix(months)

    # equal correctness first: warm the cache, then every cached body must
    # be byte-identical to the uncached recompute of the same request
    for path in paths:
        warm = cached.handle_raw(path, {})
        base = uncached.handle_raw(path, {})
        hit = cached.handle_raw(path, {})
        assert warm == base == hit

    t_uncached = _hammer(uncached, paths, rounds)
    t_warm = _hammer(cached, paths, rounds)

    u50, u99 = _percentiles(t_uncached)
    w50, w99 = _percentiles(t_warm)
    speedup = u99 / w99 if w99 > 0 else float("inf")
    registry = cached.obs.registry
    hits = registry.value("serving_cache_lookups_total", result="hit")
    misses = registry.value("serving_cache_lookups_total", result="miss")
    emit(f"a13_serving_speedup_{months}mo", "\n".join([
        f"A13 cache-first /query, scale {scale}, {months} months, "
        f"{len(paths)} distinct queries x {rounds} rounds:",
        f"  uncached baseline: p50 {u50 * 1e3:.3f} ms  p99 {u99 * 1e3:.3f} ms",
        f"  warm cache:        p50 {w50 * 1e3:.3f} ms  p99 {w99 * 1e3:.3f} ms",
        f"  p99 speedup: {speedup:.1f}x (budget >= {SPEEDUP_BUDGET:.0f}x)",
        f"  cache lookups: {hits:.0f} hits / {misses:.0f} misses",
    ]))
    emit_metrics(f"a13_serving_speedup_{months}mo", {
        "uncached_p99": (u99, "s"),
        "warm_cache_p99": (w99, "s"),
        "p99_speedup": (speedup, "x"),
    })
    assert hits > 0 and misses == len(paths)
    if enforce:
        assert speedup >= SPEEDUP_BUDGET, (
            f"warm p99 {w99 * 1e6:.0f} us vs uncached p99 {u99 * 1e6:.0f} us: "
            f"{speedup:.1f}x is under the {SPEEDUP_BUDGET:.0f}x budget"
        )


def test_a13_concurrent_clients():
    """N clients over live HTTP; reports p50/p99 per route + hit ratio."""
    hub, _, monitor = _demo_federation()
    api = XdmodApi(
        {"jobs": jobs_realm()},
        hub.federated_schemas(),
        obs=hub.obs,
        monitor=monitor,
    )
    end = ts(2017, 1, 4)
    mix = [
        f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={end}"
        "&group_by=resource&view=aggregate",
        f"/query?realm=jobs&metric=n_jobs_ended&start={T0}&end={end}",
        f"/chart?realm=jobs&metric=xdsu&start={T0}&end={end}"
        "&group_by=person&view=aggregate&top_n=5",
        "/status",
        "/metrics",
    ]
    by_route: dict[str, list[float]] = {}
    failures: list[str] = []
    lock = threading.Lock()

    def client(seq: int) -> None:
        for i in range(REQUESTS_PER_CLIENT):
            path = mix[(seq + i) % len(mix)]
            route = path.split("?")[0]
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(server.url + path, timeout=30) as r:
                    status = r.status
                    body = r.read()
            except Exception as exc:
                with lock:
                    failures.append(f"{path}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            with lock:
                by_route.setdefault(route, []).append(elapsed)
            if status != 200 or not body:
                with lock:
                    failures.append(f"{path}: HTTP {status}")
            elif route != "/metrics":
                json.loads(body)  # strict JSON all the way down

    with ApiServer(api) as server:
        threads = [
            threading.Thread(target=client, args=(seq,))
            for seq in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert not failures, failures[:5]
    registry = api.obs.registry
    hits = registry.value("serving_cache_lookups_total", result="hit")
    misses = registry.value("serving_cache_lookups_total", result="miss")
    stale = registry.value("serving_cache_lookups_total", result="stale")
    lookups = hits + misses + stale
    hit_ratio = hits / lookups if lookups else 0.0
    count, total = registry.histogram_stats(
        "serving_request_seconds", route="/query"
    )
    lines = [
        f"A13 serving under {N_CLIENTS} concurrent clients x "
        f"{REQUESTS_PER_CLIENT} requests (loopback HTTP):",
    ]
    for route in sorted(by_route):
        p50, p99 = _percentiles(by_route[route])
        lines.append(
            f"  {route:<9} n={len(by_route[route]):<4} "
            f"p50 {p50 * 1e3:.3f} ms  p99 {p99 * 1e3:.3f} ms"
        )
    lines.append(
        f"  cache: {hits:.0f} hits / {misses:.0f} misses / {stale:.0f} stale "
        f"(hit ratio {hit_ratio:.1%})"
    )
    lines.append(
        f"  server-side /query: {count} requests, "
        f"{total * 1e3:.2f} ms total handler time"
    )
    emit("a13_serving_report", "\n".join(lines))
    query_p50, query_p99 = _percentiles(by_route["/query"])
    emit_metrics("a13_serving_report", {
        "query_p50": (query_p50, "s"),
        "query_p99": (query_p99, "s"),
        "cache_hit_ratio": (hit_ratio, "ratio"),
    })
    # 3 distinct read queries, hammered 8x40 times: nearly all lookups hit
    assert misses >= 3 and hit_ratio > 0.9
