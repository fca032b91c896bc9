"""HTTP JSON API: the machine face of the XDMoD web interface.

A thin stdlib ``http.server`` wrapper exposing realm catalogs and queries
for one instance (or a federation hub's combined sources):

- ``GET /health`` — liveness; with a federation monitor attached it
  becomes a readiness payload (``degraded_members``, ``max_lag``, and
  the SLO engine's currently firing alerts)
- ``GET /status`` — full :class:`~repro.core.monitor.FederationStatus`
  plus a metrics-registry snapshot, as JSON (needs a monitor)
- ``GET /metrics`` — the telemetry registry in Prometheus text format
  (needs an :class:`~repro.obs.Observability` bundle); each scrape also
  snapshots the registry into the metrics history
- ``GET /fleet/metrics`` — the merged fleet exposition: every member's
  shipped telemetry under its ``member`` label, from the hub's
  :class:`~repro.obs.fleet.FleetTSDB` (needs a monitor over a hub)
- ``GET /alerts`` — evaluate and dump the monitor's SLO alert states
- ``GET /realms`` — realm catalog with metrics and dimensions
- ``GET /query?realm=jobs&metric=xdsu&start=...&end=...&period=month``
  ``&group_by=resource&view=timeseries&filter.resource=comet,stampede``
- ``GET /chart?...`` — same parameters, chart-shaped payload
- ``GET /jobs/efficiency?start=...&end=...&application=...&member=...``
  — the federation-wide per-job efficiency ranking (least efficient
  first) from the analytics fact table; same cache/ETag/pagination
  contract as ``/query``

``/query`` and ``/chart`` are cache-first: they delegate to a
:class:`~repro.ui.serving.QueryService` whose result cache is keyed on
the canonical request and invalidated by the warehouse ``data_version``
counters, support ``offset``/``limit`` pagination, and carry a strong
``ETag`` so a client re-sending it via ``If-None-Match`` gets an empty
``304 Not Modified`` instead of a re-serialized body.  ``X-Cache`` on
each response says whether the answer was a ``hit``, ``miss``, ``stale``
recompute, or cache ``bypass``.

Authentication: optional bearer tokens; when enabled, ``/query`` and
``/chart`` require ``Authorization: Bearer <token>`` naming a session
token opened through :mod:`repro.auth` (the public catalog stays open, as
XDMoD's public charts do).  Expired sessions are evicted from the token
table on registration and on any authorized request, so the table tracks
live sessions rather than everything ever issued.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from ..analysis.sanitizer import create_lock
from ..analytics import job_scores
from ..auth.accounts import Session
from ..obs import PROMETHEUS_CONTENT_TYPE, Observability, alert_rule
from ..realms.base import Realm
from ..warehouse import Schema
from .serving import (
    QueryService,
    ServingParamError,
    ServingResult,
    _int_param,
    json_sanitize,
)

#: Routes that get their own label on the request counter/histogram;
#: anything else is folded into "other" to bound label cardinality.
_KNOWN_ROUTES = (
    "/", "/health", "/status", "/alerts", "/metrics", "/fleet/metrics",
    "/realms", "/query", "/chart", "/jobs/efficiency",
)


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


class XdmodApi:
    """The request-independent application object.

    ``obs`` enables ``GET /metrics`` and the request/cache telemetry;
    ``monitor`` (a :class:`~repro.core.monitor.FederationMonitor`)
    enables ``GET /status`` and upgrades ``GET /health`` to readiness.
    ``cache=False`` turns the serving layer into a pass-through (every
    read recomputes) — the benchmark baseline and the ``serve
    --no-cache`` escape hatch.
    """

    def __init__(
        self,
        realms: Mapping[str, Realm],
        sources: Schema | Mapping[str, Schema],
        *,
        require_auth: bool = False,
        obs: Observability | None = None,
        monitor: Any = None,
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

    # -- endpoint handlers ----------------------------------------------------

    def handle(self, path: str, headers: Mapping[str, str]) -> tuple[int, dict[str, Any]]:
        """Dispatch one GET; returns (status, json payload)."""
        status, payload, _ = self.handle_full(path, headers)
        return status, payload

    def handle_full(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Dispatch one GET; returns (status, payload, extra headers).

        The extra headers carry the serving layer's ``ETag`` and
        ``X-Cache``; a matching ``If-None-Match`` collapses the response
        to an empty ``304``.
        """
        parsed = urllib.parse.urlparse(path)
        params = {
            k: v[0] for k, v in urllib.parse.parse_qs(parsed.query).items()
        }
        route = parsed.path.rstrip("/") or "/"
        if route in ("/", "/health"):
            return (*self._health(), {})
        if route == "/status":
            return (*self._status(), {})
        if route == "/alerts":
            return (*self._alerts(), {})
        if route == "/metrics":
            if self.obs is None:
                return 404, {"error": "no telemetry registry attached"}, {}
            return 200, self.obs.registry.snapshot(), {}
        if route == "/realms":
            return 200, {
                name: {
                    "metrics": sorted(realm.metrics),
                    "dimensions": sorted(realm.dimensions),
                }
                for name, realm in self.realms.items()
            }, {}
        if route in ("/query", "/chart", "/jobs/efficiency"):
            if not self._authorized(headers):
                return 401, {"error": "authentication required"}, {}
            if route == "/jobs/efficiency":
                result = self._jobs_efficiency(params)
            else:
                result = self.serving.respond(params, chart=(route == "/chart"))
            extra: dict[str, str] = {}
            if result.etag is not None:
                extra["ETag"] = result.etag
                extra["X-Cache"] = result.cache
                if _etag_matches(headers.get("If-None-Match"), result.etag):
                    return 304, {}, extra
            return result.status, result.payload, extra
        return 404, {"error": f"no route {route!r}"}, {}

    def _jobs_efficiency(self, params: Mapping[str, str]) -> ServingResult:
        """The per-job efficiency ranking, least efficient first.

        Served cache-first through the query service's generic path: the
        full ranking is cached under one key per (window, application,
        member) and invalidated by the source schemas' ``data_version``
        stamps — a replication sync that lands new analytics rows makes
        the next read a ``stale`` recompute, not a wrong answer.
        """
        if "supremm" not in self.realms:
            return ServingResult(404, {"error": "supremm realm not attached"})
        try:
            start = _int_param(params, "start")
            end = _int_param(params, "end")
            offset = _int_param(params, "offset", default=0, minimum=0)
            limit = _int_param(params, "limit", minimum=0)
        except ServingParamError as exc:
            return ServingResult(400, {"error": str(exc)})
        if start is not None and end is not None and end <= start:
            return ServingResult(400, {"error": f"empty time range [{start}, {end})"})
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

    def handle_raw(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, str, bytes]:
        """Dispatch one GET; returns (status, content type, body bytes)."""
        status, content_type, body, _ = self.handle_http(path, headers)
        return status, content_type, body

    def handle_http(
        self, path: str, headers: Mapping[str, str]
    ) -> tuple[int, str, bytes, dict[str, str]]:
        """The full HTTP dispatch: (status, content type, body, headers).

        ``/metrics`` renders Prometheus text exposition; every other
        route goes through :meth:`handle_full` and serializes as strict
        JSON (non-finite floats become their ``"NaN"``/``"+Inf"``
        string spellings — ``json.dumps`` would otherwise emit tokens no
        JSON parser accepts).  Any handler exception is caught here and
        answered as a 500 JSON body: a bug in one handler must cost one
        error response, not a hung client on a dead handler thread.
        """
        route = urllib.parse.urlparse(path).path.rstrip("/") or "/"
        metric_route = route if route in _KNOWN_ROUTES else "other"
        started = self.obs.clock.now() if self.obs is not None else 0.0
        try:
            if route == "/metrics" and self.obs is not None:
                # a scrape is a sampling point: snapshot into the history too
                self.obs.history.record()
                body = self.obs.registry.render_prometheus().encode("utf-8")
                response = 200, PROMETHEUS_CONTENT_TYPE, body, {}
            elif route == "/fleet/metrics":
                fleet = self._fleet()
                if fleet is None:
                    body = json.dumps(
                        {"error": "no fleet TSDB attached"}
                    ).encode()
                    response = 404, "application/json", body, {}
                else:
                    body = fleet.render_prometheus().encode("utf-8")
                    response = 200, PROMETHEUS_CONTENT_TYPE, body, {}
            else:
                status, payload, extra = self.handle_full(path, headers)
                if status == 304:
                    body = b""
                else:
                    body = json.dumps(
                        json_sanitize(payload), allow_nan=False
                    ).encode()
                response = status, "application/json", body, extra
        except Exception as exc:  # the 500 guard: no exception escapes
            body = json.dumps(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}
            ).encode()
            response = 500, "application/json", body, {}
        if self.obs is not None:
            self._c_requests.labels(
                route=metric_route, **{"class": f"{response[0] // 100}xx"}
            ).inc()
            self._h_latency.labels(route=metric_route).observe(
                self.obs.clock.now() - started
            )
        return response

    def _fleet(self):
        """The hub's fleet TSDB when a monitor over a hub is attached."""
        return getattr(getattr(self.monitor, "hub", None), "fleet", None)

    def _health(self) -> tuple[int, dict[str, Any]]:
        """Liveness, upgraded to readiness when a monitor is attached."""
        payload: dict[str, Any] = {
            "status": "ok", "realms": sorted(self.realms),
        }
        fleet = self._fleet()
        if fleet is not None and fleet.enabled:
            stale = fleet.stale_members(
                alert_rule("fleet_telemetry_stale").max_age_s
            )
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
            if getattr(self.monitor, "alerts", None) is not None:
                firing = [
                    s.to_dict() for s in self.monitor.evaluate_alerts()
                    if s.status == "firing"
                ]
                payload["alerts_firing"] = firing
                if firing:
                    payload["status"] = "degraded"
            plane = getattr(self.monitor, "analytics", None)
            if plane is not None:
                payload["anomalies_open"] = plane.anomalies_open
        if "anomalies_open" not in payload and self.obs is not None:
            last = self.obs.history.last("analytics_anomalies_open_rows")
            if last is not None:
                payload["anomalies_open"] = int(last)
        return 200, payload

    def _alerts(self) -> tuple[int, dict[str, Any]]:
        if self.monitor is None or getattr(self.monitor, "alerts", None) is None:
            return 404, {"error": "no federation monitor attached"}
        self.monitor.evaluate_alerts()
        return 200, self.monitor.alerts.to_dict()

    def _status(self) -> tuple[int, dict[str, Any]]:
        if self.monitor is None:
            return 404, {"error": "no federation monitor attached"}
        snapshot = self.monitor.status()
        members = []
        for member in snapshot.members:
            entry = dataclasses.asdict(member)
            entry["health"] = member.health
            entry["avg_sync_seconds"] = member.avg_sync_seconds
            members.append(entry)
        return 200, {
            "hub": snapshot.hub,
            "all_consistent": snapshot.all_consistent,
            "max_lag": snapshot.max_lag,
            "degraded_members": list(snapshot.degraded_members),
            "totals": dict(snapshot.totals),
            "members": members,
            "metrics": (
                self.obs.registry.snapshot() if self.obs is not None else {}
            ),
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
