"""The HTTP skin over the job store.

The routing/handling core (:class:`ServiceApp`) is framework-agnostic:
``handle(method, path, body)`` returns ``(status, content_type, body
bytes)`` and knows nothing about sockets.  :func:`make_server` mounts
it on a stdlib ``ThreadingHTTPServer`` — zero dependencies, what
``python -m repro.service`` and the tests run.

Endpoints::

    POST   /scripts           submit an ftsh script          -> 202 status
    POST   /campaigns         submit a campaign spec         -> 202 status
    GET    /jobs              all jobs (newest first)
    GET    /jobs/{id}         job status
    GET    /jobs/{id}/result  terminal result document       (409 earlier)
    GET    /jobs/{id}/events  incremental status stream
                              (?since=seq, &wait=s long-polls up to 30s)
    DELETE /jobs/{id}         cancel
    GET    /healthz           liveness + job counts
    GET    /metricsz          Prometheus text exposition
    POST   /obs/ingest        fleet telemetry push (batched JSONL) -> 202
    GET    /obs/fleet         aggregated fleet snapshot (JSON)

Errors are ``{"error": {"code", "message", "details"}}`` — sandbox
rejections map to 422 with the lint diagnostics in ``details``, schema
errors to 400, unknown jobs to 404, early result fetches to 409.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from ..obs.aggregator import FleetAggregator
from ..obs.exporters import prometheus_text
from .jobs import JobStore, NotFinished, UnknownJob
from .sandbox import SandboxRejection
from .schemas import (
    CampaignSubmission,
    SchemaError,
    ScriptSubmission,
    TERMINAL,
)

JSON = "application/json"
PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Longest an events long-poll (?wait=) may hold a handler thread.
MAX_EVENT_WAIT = 30.0


def _dumps(doc: Any) -> bytes:
    """Deterministic wire form: sorted keys, no float noise added."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _error(code: str, message: str,
           details: Optional[list[str]] = None) -> Any:
    return {"error": {"code": code, "message": message,
                      "details": details or []}}


class ServiceApp:
    """Route table + handlers; everything a skin needs, nothing more."""

    def __init__(self, store: JobStore,
                 aggregator: Optional[FleetAggregator] = None) -> None:
        self.store = store
        self.aggregator = aggregator if aggregator is not None \
            else FleetAggregator()
        metrics = store.obs.metrics
        self._m_requests = metrics.counter(
            "service_requests_total", "HTTP requests served",
            labels=("method", "route", "code"))
        self._m_latency = metrics.histogram(
            "service_request_seconds", "request handling latency",
            buckets=(0.001, 0.01, 0.1, 1.0, 10.0))

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> tuple[int, str, bytes]:
        """Dispatch one request; never raises (500 is the catch-all)."""
        split = urlsplit(target)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        started = time.monotonic()
        route = "/" + "/".join(parts[:1] + ["{id}"] * (len(parts) > 1))
        try:
            status, content_type, payload = self._dispatch(
                method, parts, query, body)
        except UnknownRoute:
            status, content_type, payload = 404, JSON, _dumps(
                _error("unknown-route",
                       f"no route {method} {split.path}"))
        except UnknownJob as exc:
            status, content_type, payload = 404, JSON, _dumps(
                _error("unknown-job", f"no such job: {exc.job_id}"))
        except NotFinished as exc:
            status, content_type, payload = 409, JSON, _dumps(
                _error("not-finished",
                       f"job {exc.job_id} is {exc.state}; result not ready"))
        except SandboxRejection as exc:
            status, content_type, payload = 422, JSON, _dumps(
                _error(exc.code, str(exc), exc.details))
        except SchemaError as exc:
            status, content_type, payload = 400, JSON, _dumps(
                _error("schema", str(exc)))
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            status, content_type, payload = 500, JSON, _dumps(
                _error("internal", f"{type(exc).__name__}: {exc}"))
        self._m_requests.labels(
            method=method, route=route, code=str(status)).inc()
        self._m_latency.observe(time.monotonic() - started)
        return status, content_type, payload

    # ------------------------------------------------------------------
    def _dispatch(self, method: str, parts: list[str], query: dict,
                  body: bytes) -> tuple[int, str, bytes]:
        if not parts:
            raise UnknownRoute()
        head = parts[0]

        if method == "POST" and parts == ["scripts"]:
            submission = ScriptSubmission.from_jsonable(_body_doc(body))
            return 202, JSON, _dumps(
                self.store.submit(submission).to_jsonable())
        if method == "POST" and parts == ["campaigns"]:
            submission = CampaignSubmission.from_jsonable(_body_doc(body))
            return 202, JSON, _dumps(
                self.store.submit(submission).to_jsonable())

        if head == "jobs":
            if method == "GET" and len(parts) == 1:
                jobs = sorted(self.store.jobs(), key=lambda s: -s.created)
                return 200, JSON, _dumps(
                    {"jobs": [status.to_jsonable() for status in jobs]})
            if len(parts) >= 2:
                job_id = parts[1]
                if method == "GET" and len(parts) == 2:
                    return 200, JSON, _dumps(
                        self.store.status(job_id).to_jsonable())
                if method == "GET" and parts[2:] == ["result"]:
                    return 200, JSON, _dumps(
                        self.store.result(job_id).to_jsonable())
                if method == "GET" and parts[2:] == ["events"]:
                    since = _int_param(query, "since", 0)
                    wait = min(_float_param(query, "wait", 0.0),
                               MAX_EVENT_WAIT)
                    events = self.store.events(job_id, since=since,
                                               wait=wait)
                    return 200, JSON, _dumps({
                        "job_id": job_id,
                        "events": [event.to_jsonable() for event in events],
                        "next": events[-1].seq if events else since,
                    })
                if method == "DELETE" and len(parts) == 2:
                    return 200, JSON, _dumps(
                        self.store.cancel(job_id).to_jsonable())
                if method == "POST" and parts[2:] == ["cancel"]:
                    return 200, JSON, _dumps(
                        self.store.cancel(job_id).to_jsonable())

        if head == "obs":
            if method == "POST" and parts == ["obs", "ingest"]:
                return 202, JSON, _dumps(dict(self.aggregator.ingest(body)))
            if method == "GET" and parts == ["obs", "fleet"]:
                return 200, JSON, _dumps(self.aggregator.snapshot())

        if method == "GET" and parts == ["healthz"]:
            jobs = self.store.jobs()
            by_state: dict[str, int] = {}
            for status in jobs:
                by_state[status.state] = by_state.get(status.state, 0) + 1
            return 200, JSON, _dumps({
                "status": "ok",
                "jobs": by_state,
                "active": sum(count for state, count in by_state.items()
                              if state not in TERMINAL),
            })
        if method == "GET" and parts == ["metricsz"]:
            text = prometheus_text(self.store.obs.metrics)
            return 200, PROM, text.encode()

        raise UnknownRoute()


class UnknownRoute(Exception):
    """Raised inside dispatch; ``handle`` maps it to a 404 response."""


def _body_doc(body: bytes) -> Any:
    if not body:
        raise SchemaError("submission: empty request body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"submission: body is not valid JSON ({exc})")


def _int_param(query: dict, name: str, default: int) -> int:
    values = query.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise SchemaError(f"query parameter {name!r} must be an integer")


def _float_param(query: dict, name: str, default: float) -> float:
    values = query.get(name)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise SchemaError(f"query parameter {name!r} must be a number")
    if value < 0:
        raise SchemaError(f"query parameter {name!r} must be >= 0")
    return value


# ---------------------------------------------------------------------------
# Stdlib skin
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """One request; the app does the thinking."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    app: ServiceApp  # set by make_server on the subclass

    def _serve(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, content_type, payload = self.app.handle(
            method, self.path, body)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve("DELETE")

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; the metrics endpoint is the access log."""


def make_server(store: JobStore, host: str = "127.0.0.1",
                port: int = 0,
                aggregator: Optional[FleetAggregator] = None,
                ) -> ThreadingHTTPServer:
    """A ready-to-serve ThreadingHTTPServer bound to ``host:port``.

    ``port=0`` picks a free port (read it back from
    ``server.server_address``).  The caller owns both lifecycles:
    ``server.serve_forever()`` / ``shutdown()`` and ``store.close()``.
    The app's :class:`~repro.obs.aggregator.FleetAggregator` (default
    or ``aggregator``) is exposed as ``server.fleet_aggregator``.
    """
    app = ServiceApp(store, aggregator=aggregator)
    handler = type("Handler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.fleet_aggregator = app.aggregator  # type: ignore[attr-defined]
    return server
