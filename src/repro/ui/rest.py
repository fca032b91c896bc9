"""HTTP JSON API: the machine face of the XDMoD web interface.

A thin stdlib ``http.server`` wrapper exposing realm catalogs and queries
for one instance (or a federation hub's combined sources).  Every GET,
in-process through :meth:`XdmodApi.handle_http` or over a socket through
:class:`ApiServer`, takes one path: the route table, the auth check on
protected routes, the route's handler, one encoding of the body
(:func:`~repro.ui.serving.encode_json`: strict JSON, non-finite floats
spelled ``"NaN"``/``"+Inf"``), the ``If-None-Match`` rule, a 500 for a
handler exception, and one count on the request metrics.  A JSON body
is the same bytes in-process and over HTTP.

Routes (``*``: needs ``Authorization: Bearer <token>`` when
``require_auth`` is on):

- ``GET /`` and ``GET /health`` — liveness; with a federation monitor
  attached it becomes a readiness payload (``degraded_members``,
  ``max_lag``, and the SLO engine's currently firing alerts)
- ``GET /status`` — full :class:`~repro.core.monitor.FederationStatus`
  plus a metrics-registry snapshot, as JSON (needs a monitor)
- ``GET /alerts`` — evaluate and dump the monitor's SLO alert states
- ``GET /metrics`` — the telemetry registry in Prometheus text format
  (needs an :class:`~repro.obs.Observability` bundle); each scrape also
  snapshots the registry into the metrics history
- ``GET /fleet/metrics`` — the merged fleet exposition: every member's
  scraped telemetry under its ``member`` label, from the hub's fleet
  :class:`~repro.obs.MetricsHistory` (needs a monitor)
- ``GET /realms`` — realm catalog with metrics and dimensions
- ``GET /query?realm=jobs&metric=xdsu&start=...&end=...&period=month``
  ``&group_by=resource&view=timeseries&filter.resource=comet,stampede`` *
- ``GET /chart?...`` — same parameters, chart-shaped payload *
- ``GET /jobs/efficiency?start=...&end=...&application=...&member=...``
  — the federation-wide per-job efficiency ranking (least efficient
  first) from the analytics fact table *

The three protected routes are cache-first: a
:class:`~repro.ui.serving.QueryService` caches each result under the
canonical request, invalidates it by the warehouse ``data_version``
counters, pages it with ``offset``/``limit``, and keeps each page's
encoded bytes.  The strong ``ETag`` is a hash of those bytes, so a
client re-sending it via ``If-None-Match`` gets an empty ``304 Not
Modified``.  ``X-Cache`` says whether the answer was a ``hit``,
``miss``, ``stale`` recompute, or cache ``bypass``.

Bearer tokens name sessions opened through :mod:`repro.auth`; the
public catalog stays open, as XDMoD's public charts do.  Expired
sessions are evicted from the token table on registration and on any
authorized request, so the table tracks live sessions rather than
everything ever issued.
"""

from __future__ import annotations

import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..analysis.sanitizer import create_lock
from ..analytics import job_scores
from ..auth.accounts import Session
from ..obs import PROMETHEUS_CONTENT_TYPE, Observability
from ..realms.base import Realm
from ..warehouse import Schema
from .serving import QueryService, ServingParamError, ServingResult, _int_param

if TYPE_CHECKING:
    from ..core.monitor import FederationMonitor


def _etag_matches(if_none_match: str | None, etag: str) -> bool:
    """RFC 9110 ``If-None-Match``: comma list, weak prefixes, ``*``."""
    if not if_none_match:
        return False
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _error(status: int, message: str) -> ServingResult:
    return ServingResult.of(status, {"error": message})


def _prometheus(text: str) -> ServingResult:
    return ServingResult(200, text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE)


class XdmodApi:
    """The request-independent application object.

    ``obs`` enables ``GET /metrics`` and the request/cache telemetry;
    ``monitor`` (a :class:`~repro.core.monitor.FederationMonitor`)
    enables ``GET /status``, ``/alerts`` and ``/fleet/metrics`` and
    upgrades ``GET /health`` to readiness.  ``cache=False`` turns the
    serving layer into a pass-through (every read recomputes) — the
    benchmark baseline and the ``serve --no-cache`` escape hatch.
    """

    def __init__(
        self,
        realms: Mapping[str, Realm],
        sources: Schema | Mapping[str, Schema],
        *,
        require_auth: bool = False,
        obs: Observability | None = None,
        monitor: FederationMonitor | None = None,
        cache: bool = True,
        cache_entries: int = 512,
    ) -> None:
        self.realms = dict(realms)
        self.sources = sources
        self.require_auth = require_auth
        self.obs = obs
        self.monitor = monitor
        self.serving = QueryService(
            realms, sources, obs=obs, enabled=cache, max_entries=cache_entries
        )
        # ThreadingHTTPServer dispatches each request on its own thread,
        # so registration, eviction, and auth checks race without a lock:
        # two requests presenting the same expired token both pass the
        # ``in`` check and the second ``del`` raises KeyError (a 500 to
        # the client).
        self._session_lock = create_lock("XdmodApi.sessions")  # guards: _sessions
        self._sessions: dict[str, Session] = {}
        self._c_requests = None
        self._h_latency = None
        if obs is not None:
            self._c_requests = obs.registry.counter(
                "serving_requests_total",
                "API requests by route and status class",
                ("route", "class"),
            )
            self._h_latency = obs.registry.histogram(
                "serving_request_seconds",
                "API request latency by route",
                ("route",),
            )

    # -- sessions -------------------------------------------------------------

    def register_session(self, session: Session) -> None:
        with self._session_lock:
            self._evict_expired_sessions()
            self._sessions[session.token] = session

    def _evict_expired_sessions(self) -> None:
        """Drop expired tokens so the table is bounded by live sessions.

        Caller must hold ``_session_lock``.
        """
        for token in [t for t, s in self._sessions.items() if s.expired]:
            # repolint: ignore[unguarded-shared-mutation] -- lock held by caller (see docstring)
            del self._sessions[token]

    def _authorized(self, headers: Mapping[str, str]) -> bool:
        if not self.require_auth:
            return True
        auth = headers.get("Authorization", "")
        if not auth.startswith("Bearer "):
            return False
        token = auth[len("Bearer "):]
        with self._session_lock:
            session = self._sessions.get(token)
            if session is None:
                return False
            if session.expired:
                # pop, not del: a concurrent request with the same token
                # may already have evicted it
                self._sessions.pop(token, None)
                return False
        return True

    # -- the request pipeline -------------------------------------------------

    def handle_http(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, str, bytes, dict[str, str]]:
        """Answer one GET: (status, content type, body, extra headers).

        Route, auth, handler, then the ``If-None-Match`` rule on the
        encoded answer; the extra headers carry a cached route's
        ``ETag`` and ``X-Cache``.  Any handler exception is answered as
        a 500 JSON body: a bug in one handler must cost one error
        response, not a hung client on a dead handler thread.  Every
        call, whatever its outcome, counts once on
        ``serving_requests_total`` under the route's own label
        (``other`` for an unknown path).
        """
        url = urllib.parse.urlparse(path)
        route = url.path.rstrip("/") or "/"
        handler, protected = _ROUTES.get(route, (None, False))
        started = self.obs.clock.now() if self.obs is not None else 0.0
        try:
            if handler is None:
                result = _error(404, f"no route {route!r}")
            elif protected and not self._authorized(headers):
                result = _error(401, "authentication required")
            else:
                params = {
                    k: v[0] for k, v in urllib.parse.parse_qs(url.query).items()
                }
                result = handler(self, params)
        except Exception as exc:  # the 500 guard: no exception escapes
            result = _error(500, f"internal error: {type(exc).__name__}: {exc}")
        status, body, extra = result.status, result.body, {}
        if result.etag is not None:
            extra = {"ETag": result.etag, "X-Cache": result.cache}
            if _etag_matches(headers.get("If-None-Match"), result.etag):
                status, body = 304, b""
        if self.obs is not None:
            label = route if handler is not None else "other"
            self._c_requests.labels(
                route=label, **{"class": f"{status // 100}xx"}
            ).inc()
            self._h_latency.labels(route=label).observe(
                self.obs.clock.now() - started
            )
        return status, result.content_type, body, extra

    def handle_raw(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, str, bytes]:
        """:meth:`handle_http` without its extra headers."""
        return self.handle_http(path, headers)[:3]

    # -- route handlers -------------------------------------------------------

    def _health(self, params: Mapping[str, str]) -> ServingResult:
        """Liveness, upgraded to readiness when a monitor is attached."""
        payload: dict[str, Any] = {
            "status": "ok", "realms": sorted(self.realms),
        }
        if self.monitor is not None and self.monitor.hub.fleet.enabled:
            stale = self.monitor.stale_members()
            payload["fleet_stale_members"] = stale
            if stale:
                payload["status"] = "degraded"
        if self.monitor is not None:
            snapshot = self.monitor.status()
            payload["max_lag"] = snapshot.max_lag
            payload["degraded_members"] = list(snapshot.degraded_members)
            payload["all_consistent"] = snapshot.all_consistent
            if snapshot.degraded_members:
                payload["status"] = "degraded"
            firing = [
                s.to_dict() for s in self.monitor.evaluate_alerts()
                if s.status == "firing"
            ]
            payload["alerts_firing"] = firing
            if firing:
                payload["status"] = "degraded"
            if self.monitor.analytics is not None:
                payload["anomalies_open"] = self.monitor.analytics.anomalies_open
        if "anomalies_open" not in payload and self.obs is not None:
            last = self.obs.history.last("analytics_anomalies_open_rows")
            if last is not None:
                payload["anomalies_open"] = int(last)
        return ServingResult.of(200, payload)

    def _status(self, params: Mapping[str, str]) -> ServingResult:
        if self.monitor is None:
            return _error(404, "no federation monitor attached")
        snapshot = self.monitor.status()
        members = []
        for member in snapshot.members:
            entry = dict(vars(member))  # scalar fields: no deep copy
            entry["health"] = member.health
            entry["avg_sync_seconds"] = member.avg_sync_seconds
            members.append(entry)
        return ServingResult.of(200, {
            "hub": snapshot.hub,
            "all_consistent": snapshot.all_consistent,
            "max_lag": snapshot.max_lag,
            "degraded_members": list(snapshot.degraded_members),
            "totals": dict(snapshot.totals),
            "members": members,
            "metrics": (
                self.obs.registry.snapshot() if self.obs is not None else {}
            ),
        })

    def _alerts(self, params: Mapping[str, str]) -> ServingResult:
        if self.monitor is None:
            return _error(404, "no federation monitor attached")
        self.monitor.evaluate_alerts()
        return ServingResult.of(200, self.monitor.alerts.to_dict())

    def _metrics(self, params: Mapping[str, str]) -> ServingResult:
        if self.obs is None:
            return _error(404, "no telemetry registry attached")
        # a scrape is a sampling point: snapshot into the history too
        self.obs.history.record()
        return _prometheus(self.obs.registry.render_prometheus())

    def _fleet_metrics(self, params: Mapping[str, str]) -> ServingResult:
        if self.monitor is None:
            return _error(404, "no fleet TSDB attached")
        return _prometheus(self.monitor.hub.fleet.render_prometheus())

    def _realms(self, params: Mapping[str, str]) -> ServingResult:
        return ServingResult.of(200, {
            name: {
                "metrics": sorted(realm.metrics),
                "dimensions": sorted(realm.dimensions),
            }
            for name, realm in self.realms.items()
        })

    def _query(self, params: Mapping[str, str]) -> ServingResult:
        return self.serving.respond(params, chart=False)

    def _chart(self, params: Mapping[str, str]) -> ServingResult:
        return self.serving.respond(params, chart=True)

    def _jobs_efficiency(self, params: Mapping[str, str]) -> ServingResult:
        """The per-job efficiency ranking, least efficient first.

        Served cache-first through the query service's generic path: the
        full ranking is cached under one key per (window, application,
        member) and invalidated by the source schemas' ``data_version``
        stamps — a replication sync that lands new analytics rows makes
        the next read a ``stale`` recompute, not a wrong answer.
        """
        if "supremm" not in self.realms:
            return _error(404, "supremm realm not attached")
        try:
            start = _int_param(params, "start")
            end = _int_param(params, "end")
            offset = _int_param(params, "offset", default=0, minimum=0)
            limit = _int_param(params, "limit", minimum=0)
        except ServingParamError as exc:
            return _error(400, str(exc))
        if start is not None and end is not None and end <= start:
            return _error(400, f"empty time range [{start}, {end})")
        application = params.get("application") or None
        member = params.get("member") or None
        key = ("jobs_efficiency", start, end, application, member)

        def compute() -> dict[str, Any]:
            return {
                "jobs": job_scores(
                    self.sources,
                    start=start, end=end,
                    application=application, member=member,
                )
            }

        return self.serving.respond_cached(
            key, compute,
            offset=offset or 0, limit=limit, field="jobs",
        )


#: The one list of routes: path -> (handler, protected).  A protected
#: route needs a live bearer token when ``require_auth`` is on.  Each
#: path is its own ``route`` label on the request metrics; any other
#: path answers 404 and is counted as ``other``.
_ROUTES: dict[str, tuple[Callable[[XdmodApi, Mapping[str, str]], ServingResult], bool]] = {
    "/": (XdmodApi._health, False),
    "/health": (XdmodApi._health, False),
    "/status": (XdmodApi._status, False),
    "/alerts": (XdmodApi._alerts, False),
    "/metrics": (XdmodApi._metrics, False),
    "/fleet/metrics": (XdmodApi._fleet_metrics, False),
    "/realms": (XdmodApi._realms, False),
    "/query": (XdmodApi._query, True),
    "/chart": (XdmodApi._chart, True),
    "/jobs/efficiency": (XdmodApi._jobs_efficiency, True),
}


class _Handler(BaseHTTPRequestHandler):
    api: XdmodApi  # set by server factory

    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        status, content_type, body, extra = self.api.handle_http(
            self.path, dict(self.headers)
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # silence test noise
        pass


class ApiServer:
    """Threaded HTTP server wrapper with context-manager lifetime."""

    def __init__(self, api: XdmodApi, *, host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type("BoundHandler", (_Handler,), {"api": api})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ApiServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
