"""Stdlib HTTP server exposing one :class:`ServiceRuntime`.

``http.server`` is deliberately boring: a ``ThreadingHTTPServer`` whose
request threads only ever touch the runtime's *read* surface (copies)
and the admin dispatcher (which queues controller mutations to the loop
thread).  No framework, no new dependencies -- the whole operator
surface is a routing table over ``BaseHTTPRequestHandler``.

Endpoints::

    GET  /metrics                 Prometheus text exposition (0.0.4)
    GET  /healthz                 liveness    (200/503 + JSON)
    GET  /readyz                  readiness   (200/503 + JSON)
    GET  /api/v1/snapshot         versioned world snapshot (JSON)
    GET  /api/v1/spans            span query (JSONL; name/job/stage/since/until/limit)
    GET  /api/v1/events           event query (JSONL; kind/job/since/until/limit)
    GET  /api/v1/audit            admin audit trail (JSON; limit)
    POST /api/v1/admin/<verb>     admin actions (JSON body)

Admin verb paths map onto :data:`~repro.service.runtime.ADMIN_ACTIONS`
dotted names: ``/api/v1/admin/policy.set`` etc.  Invalid input is a 400
(and still audited, ``ok=false``); unknown verbs/paths are 404s.

When the service config carries an ``admin_token``, every admin POST
must present it (``Authorization: Bearer <token>`` or
``X-Padll-Admin-Token``); the comparison is constant-time and a refusal
is a 401 that still lands in the audit trail.  The server also observes
its own latencies -- ``padll_operator_scrape_seconds`` around the
``/metrics`` render and ``padll_operator_admin_seconds{action=...}``
around each admin verb -- into the same registry it serves.
"""

from __future__ import annotations

import hmac
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError, PolicyError, ReproError, StageNotRegistered
from repro.service.runtime import ADMIN_ACTIONS, ServiceRuntime

__all__ = ["OperatorServer"]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSONL_CONTENT_TYPE = "application/x-ndjson"
_MAX_BODY = 1 << 20
#: Bucket edges for the server's self-observed latencies, seconds.
_LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def _float_param(query: Dict[str, list], key: str) -> Optional[float]:
    values = query.get(key)
    if not values:
        return None
    try:
        return float(values[0])
    except ValueError:
        raise ConfigError(f"query parameter {key!r} must be a number")


def _int_param(query: Dict[str, list], key: str) -> Optional[int]:
    values = query.get(key)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        raise ConfigError(f"query parameter {key!r} must be an integer")


def _str_param(query: Dict[str, list], key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.runtime``; never writes state."""

    server_version = "padll-operator/1.0"
    protocol_version = "HTTP/1.1"

    # Quiet by default: per-request stderr logging would swamp the
    # operator console under a scrape-heavy workload.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def runtime(self) -> ServiceRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    # -- response helpers --------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, body, "application/json")

    def _send_jsonl(self, rows) -> None:
        body = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()
        self._send(200, body, _JSONL_CONTENT_TYPE)

    # -- GET ----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        try:
            self._route_get(parts.path, query)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except BrokenPipeError:  # client went away mid-write
            pass

    def _route_get(self, path: str, query: Dict[str, list]) -> None:
        runtime = self.runtime
        if path == "/metrics":
            start = runtime.clock()
            body = runtime.metrics_text().encode()
            # Observed after the render: this scrape's cost shows up in
            # the next exposition, which is how Prometheus servers do it.
            self.server.scrape_latency.observe(runtime.clock() - start)
            self._send(200, body, _PROM_CONTENT_TYPE)
        elif path == "/healthz":
            health = runtime.health()
            self._send_json(200 if health["healthy"] else 503, health)
        elif path == "/readyz":
            ready = runtime.ready()
            self._send_json(200 if ready["ready"] else 503, ready)
        elif path == "/api/v1/snapshot":
            tail = _int_param(query, "tail")
            self._send_json(200, runtime.snapshot(32 if tail is None else tail))
        elif path == "/api/v1/spans":
            self._send_jsonl(
                runtime.spans(
                    name=_str_param(query, "name"),
                    job=_str_param(query, "job"),
                    stage=_str_param(query, "stage"),
                    since=_float_param(query, "since"),
                    until=_float_param(query, "until"),
                    limit=_int_param(query, "limit"),
                )
            )
        elif path == "/api/v1/events":
            self._send_jsonl(
                runtime.events(
                    kind=_str_param(query, "kind"),
                    job=_str_param(query, "job"),
                    since=_float_param(query, "since"),
                    until=_float_param(query, "until"),
                    limit=_int_param(query, "limit"),
                )
            )
        elif path == "/api/v1/audit":
            self._send_json(200, runtime.audit.snapshot(_int_param(query, "limit")))
        elif path == "/api/v1/admin":
            self._send_json(200, dict(ADMIN_ACTIONS))
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    # -- POST ---------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parts = urlsplit(self.path)
        prefix = "/api/v1/admin/"
        if not parts.path.startswith(prefix):
            self._send_json(404, {"error": f"no route {parts.path!r}"})
            return
        action = parts.path[len(prefix):]
        if action not in ADMIN_ACTIONS:
            self._send_json(
                404,
                {"error": f"unknown admin action {action!r}",
                 "actions": sorted(ADMIN_ACTIONS)},
            )
            return
        if not self._authorized():
            # Audited like any refused verb, but without echoing whatever
            # credential (if any) the caller presented.
            self.runtime.audit.append(
                action,
                {"remote": self.client_address[0]},
                ok=False,
                error="unauthorized",
            )
            self.server.unauthorized_total.inc()
            self._send_json(
                401, {"error": "admin token required", "action": action}
            )
            return
        try:
            params = self._read_body()
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        start = self.runtime.clock()
        try:
            status, payload = 200, self.runtime.admin(action, params)
        except (ConfigError, PolicyError, StageNotRegistered) as exc:
            status, payload = 400, {"error": str(exc), "action": action}
        except ReproError as exc:
            status, payload = 500, {"error": str(exc), "action": action}
        # Observed before the reply goes out, so a scrape the caller sends
        # after reading it already counts this dispatch.
        self.server.admin_latency[action].observe(self.runtime.clock() - start)
        self._send_json(status, payload)

    def _authorized(self) -> bool:
        """Constant-time shared-secret check; open when no token is set."""
        token = self.runtime.config.admin_token
        if token is None:
            return True
        supplied = self.headers.get("X-Padll-Admin-Token") or ""
        if not supplied:
            bearer = self.headers.get("Authorization") or ""
            if bearer.startswith("Bearer "):
                supplied = bearer[len("Bearer "):]
        return hmac.compare_digest(supplied.encode(), token.encode())

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ValueError(f"body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}")
        if not isinstance(doc, dict):
            raise ValueError("admin body must be a JSON object")
        return doc


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], runtime: ServiceRuntime) -> None:
        super().__init__(address, _Handler)
        self.runtime = runtime
        # Handles are interned up front (the verb set is closed), so
        # request threads only ever *observe* -- the registry's interning
        # tables stay single-writer.
        registry = runtime.telemetry.registry
        registry.describe(
            "padll_operator_scrape_seconds",
            "Latency of rendering the /metrics exposition.",
        )
        registry.describe(
            "padll_operator_admin_seconds",
            "Latency of admin verb dispatch, per action.",
        )
        registry.describe(
            "padll_operator_unauthorized_total",
            "Admin requests refused for a missing or wrong token.",
        )
        self.scrape_latency = registry.histogram(
            "padll_operator_scrape_seconds",
            bounds=_LATENCY_BOUNDS,
            endpoint="/metrics",
        )
        self.admin_latency = {
            action: registry.histogram(
                "padll_operator_admin_seconds",
                bounds=_LATENCY_BOUNDS,
                action=action,
            )
            for action in ADMIN_ACTIONS
        }
        self.unauthorized_total = registry.counter(
            "padll_operator_unauthorized_total"
        )


class OperatorServer:
    """Lifecycle wrapper: bind, serve on a background thread, join clean.

    ``port=0`` binds an ephemeral port; :attr:`port` reports the bound
    one.  ``stop()`` shuts the accept loop down and joins every request
    thread (``block_on_close``), so a stopped server leaks nothing --
    the CI smoke job greps for exactly that.
    """

    def __init__(
        self, runtime: ServiceRuntime, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.runtime = runtime
        self._server = _Server((host, port), runtime)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise ConfigError("operator server already running")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="padll-operator-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout)
        self._thread = None
        self._server.server_close()

    def __enter__(self) -> "OperatorServer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
