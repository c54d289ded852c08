"""The socket backend's server half: a work queue over HTTP.

:class:`CoordinatorApp` exposes a :class:`~repro.dist.queue.TaskQueue`
and an artifact store through the same framework-agnostic
``handle(method, target, body)`` core the service plane uses — a stdlib
``ThreadingHTTPServer`` mounts it, tests can call it without a socket.

The worker protocol (all JSON unless noted)::

    POST /queue/claim            {"worker", "lease"?}  -> 200 task
                                                       |  204 idle
                                                       |  410 drained
    POST /queue/tasks/{id}/ack   {"worker", "result", "source"}
    POST /queue/tasks/{id}/nack  {"worker", "error", "requeue"?}
    POST /queue/heartbeat        {"worker"}            -> {"extended": n}
    GET  /queue/status           queue + store + wire counters, task states
    GET  /artifacts/{key}        pickled artifact (octet-stream) | 404
    PUT  /artifacts/{key}        publish a pickled artifact      -> 204
    GET  /healthz                liveness

One claim leases one task for ``lease`` seconds (bounded by the queue
default) and piggybacks a heartbeat on the worker's other leases;
ack/nack/heartbeat before the deadline or the task goes back on the
queue for someone else — at-least-once delivery, the paper's retry
discipline applied to our own executor.  Each cell settles on its own
``/queue/tasks/{id}/ack|nack``; an ack or nack for a lease the worker
no longer holds is a 409 the worker drops as a duplicate.  410 on claim
is the drain signal: workers exit cleanly when the campaign is over.

Security: task payloads and artifacts are pickles.  Bind loopback (the
default) or a network you trust end-to-end; this protocol authenticates
nobody.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from .queue import QueueError, Task, TaskQueue
from .wire import WireError, decode_blob_ex

JSON = "application/json"
BINARY = "application/octet-stream"

#: Longest lease a worker may ask for, as a multiple of the queue default.
MAX_LEASE_FACTOR = 10.0

#: Seconds between the serve loop's shutdown checks: the most
#: :meth:`CoordinatorServer.close` waits for the loop to notice.
_SHUTDOWN_POLL = 0.02


def _dumps(doc: Any) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _error(code: str, message: str) -> bytes:
    return _dumps({"error": {"code": code, "message": message}})


class CoordinatorApp:
    """Routes worker-protocol requests onto the queue and the store."""

    def __init__(self, queue: TaskQueue, store: Any = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.queue = queue
        self.store = store
        # keep_series=False: the coordinator wants counters, not
        # timestamped series — no reason to drag the sim monitor in.
        self.metrics = metrics or MetricsRegistry(keep_series=False)
        self._ops = self.metrics.counter(
            "dist_worker_ops_total",
            "claim/ack/nack operations settled, per worker",
            labels=("worker", "op"))
        self._http_bytes = self.metrics.counter(
            "dist_http_bytes_total",
            "request/response body bytes through the coordinator",
            labels=("direction",))
        self._blob_bytes = self.metrics.counter(
            "dist_blob_bytes_total",
            "result blob bytes, as shipped vs decompressed",
            labels=("encoding",))

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str,
               body: bytes = b"") -> tuple[int, str, bytes]:
        parts = [part for part in target.split("?")[0].split("/") if part]
        self._http_bytes.labels(direction="in").inc(len(body))
        try:
            status, content_type, payload = self._dispatch(
                method, parts, body)
        except QueueError as exc:
            status, content_type, payload = 409, JSON, _error(
                "queue", str(exc))
        except WireError as exc:
            status, content_type, payload = 400, JSON, _error(
                "wire", str(exc))
        except _BadRequest as exc:
            status, content_type, payload = 400, JSON, _error(
                "bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            status, content_type, payload = 500, JSON, _error(
                "internal", f"{type(exc).__name__}: {exc}")
        self._http_bytes.labels(direction="out").inc(len(payload))
        return status, content_type, payload

    # ------------------------------------------------------------------
    def _task_doc(self, task: Task) -> dict[str, Any]:
        return {
            "task_id": task.task_id,
            "attempt": task.attempts,
            "artifact": task.artifact,
            "cell": task.payload,
        }

    def _dispatch(self, method: str, parts: list[str],
                  body: bytes) -> tuple[int, str, bytes]:
        if parts == ["healthz"] and method == "GET":
            return 200, JSON, _dumps({"status": "ok"})

        if parts == ["queue", "claim"] and method == "POST":
            doc = _json_body(body)
            worker = _worker_id(doc)
            lease = doc.get("lease")
            if lease is not None:
                lease = min(float(lease),
                            self.queue.lease * MAX_LEASE_FACTOR)
            task = self.queue.claim(worker, lease=lease)
            if task is None:
                if self.queue.draining:
                    return 410, JSON, _error("drained", "queue is drained")
                return 204, JSON, b""
            self._ops.labels(worker=worker, op="claim").inc()
            return 200, JSON, _dumps(self._task_doc(task))

        if (len(parts) == 4 and parts[:2] == ["queue", "tasks"]
                and method == "POST"):
            task_id, action = parts[2], parts[3]
            doc = _json_body(body)
            worker = _worker_id(doc)
            if action == "ack":
                text = _require_str(doc, "result")
                result, wire, raw = decode_blob_ex(text)
                self._blob_bytes.labels(encoding="wire").inc(wire)
                self._blob_bytes.labels(encoding="raw").inc(raw)
                source = str(doc.get("source") or "computed")
                self.queue.ack(task_id, worker, result=result, source=source)
                self._ops.labels(worker=worker, op="ack").inc()
                return 200, JSON, _dumps({"ok": True})
            if action == "nack":
                error = _require_str(doc, "error")
                requeue = bool(doc.get("requeue", True))
                task = self.queue.nack(task_id, worker, error,
                                       requeue=requeue)
                self._ops.labels(worker=worker, op="nack").inc()
                return 200, JSON, _dumps(
                    {"ok": True, "state": task.state})

        if parts == ["queue", "heartbeat"] and method == "POST":
            doc = _json_body(body)
            extended = self.queue.heartbeat(_worker_id(doc))
            return 200, JSON, _dumps({"extended": extended})

        if parts == ["queue", "status"] and method == "GET":
            return 200, JSON, _dumps(self._status_doc())

        if len(parts) == 2 and parts[0] == "artifacts":
            key = parts[1]
            if self.store is None:
                return 404, JSON, _error("no-store",
                                         "coordinator has no artifact store")
            if method == "GET":
                blob = self.store.fetch_bytes(key)
                if blob is None:
                    return 404, JSON, _error("miss", f"no artifact {key}")
                return 200, BINARY, blob
            if method == "PUT":
                try:
                    self.store.publish_bytes(key, body)
                except Exception as exc:  # noqa: BLE001 - bad blob
                    raise _BadRequest(f"unstorable artifact: {exc}")
                return 204, JSON, b""

        return 404, JSON, _error(
            "unknown-route", f"no route {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    def _status_doc(self) -> dict[str, Any]:
        """The fleet-dashboard view: queue, leases, workers, wire."""
        workers: dict[str, dict[str, int]] = {}
        for child in self._ops.children():
            labels = child.labels_dict()
            ops = workers.setdefault(
                labels["worker"], {"claims": 0, "acks": 0, "nacks": 0})
            ops[labels["op"] + "s"] = int(child.value)

        def _count(family: Any, **labels: str) -> int:
            return int(family.labels(**labels).value)

        return {
            "draining": self.queue.draining,
            "outstanding": self.queue.outstanding(),
            "queue": {
                "depth": self.queue.depth(),
                "in_flight": self.queue.in_flight(),
            },
            "stats": self.queue.stats.as_dict(),
            "store": (self.store.stats()
                      if self.store is not None else None),
            "workers": workers,
            "wire": {
                "in_bytes": _count(self._http_bytes, direction="in"),
                "out_bytes": _count(self._http_bytes, direction="out"),
                "blob_wire_bytes": _count(self._blob_bytes,
                                          encoding="wire"),
                "blob_raw_bytes": _count(self._blob_bytes, encoding="raw"),
            },
            "tasks": [task.describe() for task in self.queue.tasks()],
        }


class _BadRequest(Exception):
    """Malformed request body/fields; mapped to 400."""


def _json_body(body: bytes) -> dict[str, Any]:
    if not body:
        raise _BadRequest("empty request body")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"body is not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise _BadRequest("body must be a JSON object")
    return doc


def _worker_id(doc: dict[str, Any]) -> str:
    worker = doc.get("worker")
    if not isinstance(worker, str) or not worker:
        raise _BadRequest("field 'worker' must be a non-empty string")
    return worker


def _require_str(doc: dict[str, Any], field: str) -> str:
    value = doc.get(field)
    if not isinstance(value, str):
        raise _BadRequest(f"field {field!r} must be a string")
    return value


# ---------------------------------------------------------------------------
# Stdlib skin
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-dist"
    protocol_version = "HTTP/1.1"
    # Response headers and body go out as separate writes; with Nagle on,
    # the body waits ~40ms for the client's delayed ACK — per request.
    # TCP_NODELAY turns a keep-alive round trip from ~44ms into ~0.3ms.
    disable_nagle_algorithm = True
    # Reap keep-alive connections idle this long: a client that parked a
    # pooled socket and left must not pin a handler thread forever.
    timeout = 30.0
    app: CoordinatorApp  # set by make_server on the subclass

    def _serve(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, content_type, payload = self.app.handle(
            method, self.path, body)
        self.send_response(status)
        if payload or status not in (204, 304):
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload:
            self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._serve("PUT")

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet: /queue/status is the observable surface."""


def make_server(app: CoordinatorApp, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind the coordinator; ``port=0`` picks a free one."""
    handler = type("Handler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


class CoordinatorServer:
    """A served CoordinatorApp with its own thread and lifecycle.

    ``with CoordinatorServer(queue, store) as url: ...`` — the pattern
    both the socket backend and the tests use.  ``start`` may be
    deferred: the server socket is bound in ``__init__``, so a backend
    can fork workers against ``url`` *before* the serve thread exists
    (their connections queue in the listen backlog) and keep the fork
    single-threaded.
    """

    def __init__(self, queue: TaskQueue, store: Any = None,
                 host: str = "127.0.0.1", port: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.app = CoordinatorApp(queue, store, metrics=metrics)
        self.server = make_server(self.app, host=host, port=port)
        bound_host, bound_port = self.server.server_address[:2]
        self.url = f"http://{bound_host}:{bound_port}"
        self._thread: Optional[threading.Thread] = None

    def start(self) -> str:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": _SHUTDOWN_POLL},
                name="repro-dist-coordinator", daemon=True)
            self._thread.start()
        return self.url

    def close(self) -> None:
        if self._thread is not None:
            # shutdown() blocks on serve_forever's exit handshake, so
            # only call it when the serve thread actually ran.
            self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
