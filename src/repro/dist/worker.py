"""The socket worker: pull cells from a coordinator, push results back.

::

    python -m repro.dist.worker http://127.0.0.1:8777 --id w0

The loop is deliberately boring — claim a cell, maybe fetch from the
shared store, compute, publish, ack — with the paper's client
discipline wired into every edge:

* transient transport errors back off exponentially (capped) and retry;
* an idle queue (204) is polled with *jittered* Ethernet-style
  exponential backoff — a fleet of idle workers must not stampede the
  coordinator in lockstep — reset on the next successful claim;
* a drained queue (410) is a clean exit;
* while a cell runs, a heartbeat thread extends its lease (and every
  claim piggybacks one), so slow cells survive short lease windows but
  a *crashed* worker's leases expire and the coordinator re-queues its
  tasks;
* a cell whose artifact is already in the store is acked as
  ``source: "store"`` without recomputing — one worker's work is every
  worker's warm hit.  Store trouble (a transport failure, say) degrades
  the cell to ``source: "computed"``; it never fails the cell.

Each cell settles on its own ack or nack, the way the paper's clients
settle each unit of work.

Workers share the coordinator's artifact store through its
``/artifacts`` endpoints, so nothing assumes a shared filesystem.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from typing import Any, Optional

from ..core.backoff import BackoffPolicy, BackoffState
from ..obs.api import Observability
from ..obs.push import ObsPusher, resolve_push_url
from ..parallel.executor import CellSpec
from ..service.http import HttpTransportError, http_request
from .store import HttpArtifactStore
from .wire import WireError, decode_cell, encode_blob

#: Base seconds between claim attempts while the queue is idle.
DEFAULT_POLL = 0.1

#: Lease the worker requests per task.
DEFAULT_LEASE = 30.0


def idle_backoff(poll: float) -> BackoffPolicy:
    """The idle-poll schedule: Ethernet's truncated binary exponential
    backoff, a uniform draw from ``[0, window)`` where the window
    doubles from ``poll`` and is truncated at ``poll * 4`` — past that
    the collision pressure is gone and longer naps only delay noticing
    the drain."""
    return BackoffPolicy(base=poll, factor=2.0, ceiling=poll * 4,
                         jitter_low=0.0, jitter_high=1.0)


class WorkerError(Exception):
    """A protocol-level failure the worker cannot work around."""


class _Heartbeat:
    """Extends the worker's leases every ``interval`` seconds."""

    def __init__(self, client: "CoordinatorClient",
                 interval: float) -> None:
        self._client = client
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-dist-heartbeat", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.heartbeat()
            except HttpTransportError:
                # A missed heartbeat is survivable (the lease has slack);
                # a dead coordinator will fail the next claim loudly.
                pass

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class CoordinatorClient:
    """The worker's half of the queue protocol (stdlib HTTP only).

    Rides the shared keep-alive pool in :mod:`repro.service.http`, so a
    worker's whole campaign flows over one persistent connection.
    """

    def __init__(self, url: str, worker_id: str,
                 lease: float = DEFAULT_LEASE,
                 timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.worker_id = worker_id
        self.lease = lease
        self.timeout = timeout

    def _post(self, path: str, doc: dict[str, Any],
              retries: int = 0) -> tuple[int, Any]:
        response = http_request(
            self.url + path, method="POST",
            body=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
            timeout=self.timeout, retries=retries)
        payload: Any = None
        if response.body:
            try:
                payload = json.loads(response.body.decode())
            except (ValueError, UnicodeDecodeError):
                payload = None
        return response.status, payload

    # -- protocol verbs --------------------------------------------------
    # Every verb retries transport failures: claim and heartbeat are
    # idempotent, and a re-delivered ack/nack lands on a lease already
    # settled, so it comes back 409 and is dropped as a duplicate.
    def claim(self) -> tuple[str, Optional[dict[str, Any]]]:
        """``("task", doc)``, ``("idle", None)`` or ``("drained", None)``."""
        status, payload = self._post(
            "/queue/claim", {"worker": self.worker_id, "lease": self.lease},
            retries=3)
        if status == 200 and isinstance(payload, dict):
            return "task", payload
        if status == 204:
            return "idle", None
        if status == 410:
            return "drained", None
        raise WorkerError(f"claim failed: HTTP {status} {payload!r}")

    def ack(self, task_id: str, result: Any, source: str) -> None:
        status, doc = self._post(
            f"/queue/tasks/{task_id}/ack",
            {"worker": self.worker_id, "result": encode_blob(result),
             "source": source}, retries=2)
        if status == 409:
            # Lease lost: another worker owns (or finished) the task.
            # At-least-once means this is a dropped duplicate, not an
            # error worth dying over.
            return
        if status != 200:
            raise WorkerError(f"ack {task_id} failed: HTTP {status} {doc!r}")

    def nack(self, task_id: str, error: str, requeue: bool = True) -> None:
        status, doc = self._post(
            f"/queue/tasks/{task_id}/nack",
            {"worker": self.worker_id, "error": error, "requeue": requeue},
            retries=2)
        if status not in (200, 409):
            raise WorkerError(f"nack {task_id} failed: HTTP {status} {doc!r}")

    def heartbeat(self) -> None:
        self._post("/queue/heartbeat", {"worker": self.worker_id})


class WorkerTelemetry:
    """The worker's own registry, pushed to a fleet aggregator.

    The dist fleet dogfooding the paper's thesis: every worker counts
    its claim outcomes, settled cells, busy/elapsed seconds (the
    aggregator derives utilisation from exactly that counter pair) and
    the jittered idle backoffs it actually slept — so fleet contention
    on the coordinator becomes as measurable as the simulated
    scenarios.  Pushes are cumulative and best-effort; with no URL,
    :meth:`disabled` instances keep every call a cheap no-op.
    """

    def __init__(self, url: Optional[str], worker_id: str) -> None:
        self.enabled = url is not None
        if not self.enabled:
            return
        self.obs = Observability.wall(keep_series=False)
        metrics = self.obs.metrics
        self._claims = metrics.counter(
            "dist_worker_claims_total", "claim outcomes",
            labels=("outcome",))
        self._cells = metrics.counter(
            "dist_worker_cells_total", "cells settled by result source",
            labels=("source",))
        self._busy = metrics.counter(
            "dist_worker_busy_seconds_total", "seconds executing cells")
        self._elapsed = metrics.counter(
            "dist_worker_elapsed_seconds_total",
            "wall seconds since the loop started")
        self._backoff = metrics.histogram(
            "dist_worker_idle_backoff_seconds",
            "jittered idle backoff sleeps")
        self._pusher = ObsPusher(
            url, source=f"worker/{worker_id}",
            labels={"component": "dist-worker", "worker": worker_id})
        self._mark = time.perf_counter()

    @classmethod
    def disabled(cls) -> "WorkerTelemetry":
        return cls(None, "")

    def claim(self, kind: str) -> None:
        if self.enabled:
            self._claims.labels(outcome=kind).inc()

    def idle_sleep(self, seconds: float) -> None:
        if self.enabled:
            self._backoff.observe(seconds)

    def task_done(self, source: str, elapsed: float) -> None:
        if not self.enabled:
            return
        self._cells.labels(source=source).inc()
        self._busy.inc(elapsed)
        self.push()

    def push(self) -> None:
        """Advance the elapsed counter and ship current totals."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self._elapsed.inc(now - self._mark)
        self._mark = now
        self._pusher.push(self.obs)


def execute_cell(spec: CellSpec) -> Any:
    """Run one decoded cell exactly as the local executor would."""
    from ..parallel.executor import _execute

    return _execute(spec)


def run_task(client: CoordinatorClient, store: HttpArtifactStore,
             doc: dict[str, Any]) -> str:
    """Execute and settle one claimed task; returns the result source.

    An undecodable cell nacks terminally, a crashed cell nacks for
    retry (``"error"``), and store trouble — including an
    :class:`HttpTransportError` — quietly degrades the cell to
    ``source: "computed"``.
    """
    task_id = str(doc.get("task_id"))
    with _Heartbeat(client, interval=max(client.lease / 3.0, 0.5)):
        cell_doc = doc.get("cell")
        try:
            spec = decode_cell(cell_doc if isinstance(cell_doc, dict) else {})
        except WireError as exc:
            # Undecodable cells will not improve with retries.
            client.nack(task_id, f"wire: {exc}", requeue=False)
            return "error"
        artifact = doc.get("artifact")
        use_store = bool(artifact) and spec.cacheable
        if use_store:
            try:
                hit, value = store.fetch(str(artifact))
            except Exception:  # noqa: BLE001 - store never poisons
                hit = False
            if hit:
                client.ack(task_id, value, "store")
                return "store"
        try:
            value = execute_cell(spec)
        except Exception as exc:  # noqa: BLE001 - cell isolation
            client.nack(task_id, f"{type(exc).__name__}: {exc}")
            return "error"
        if use_store:
            try:
                store.publish(str(artifact), value)
            except Exception:  # noqa: BLE001 - degrade to computed
                pass
        client.ack(task_id, value, "computed")
        return "computed"


def worker_loop(
    url: str,
    worker_id: str,
    poll: float = DEFAULT_POLL,
    lease: float = DEFAULT_LEASE,
    max_tasks: Optional[int] = None,
    say=lambda line: None,
    rng: Optional[random.Random] = None,
    obs_push: Optional[str] = None,
) -> int:
    """Claim and execute until the queue drains; returns tasks handled."""
    rng = rng or random.Random()
    client = CoordinatorClient(url, worker_id, lease=lease)
    store = HttpArtifactStore(url)
    telemetry = WorkerTelemetry(obs_push, worker_id)
    # Jittered, so parallel idle workers spread out instead of
    # re-colliding on the coordinator together; the small deterministic
    # floor added to each nap means an idle worker never hot-spins.
    idle = BackoffState(idle_backoff(poll))
    handled = 0
    while max_tasks is None or handled < max_tasks:
        try:
            kind, doc = client.claim()
        except HttpTransportError as exc:
            # The coordinator is gone (shutdown race or crash).  Its
            # queue state outlives us either way; exit instead of
            # spinning against a dead socket.
            say(f"coordinator unreachable, exiting: {exc}")
            break
        telemetry.claim(kind)
        if kind == "drained":
            say("queue drained, exiting")
            break
        if doc is None:
            nap = poll * 0.25 + idle.next_delay(rng.random)
            telemetry.idle_sleep(nap)
            time.sleep(nap)
            continue
        idle.reset()
        started = time.perf_counter()
        source = run_task(client, store, doc)
        say(f"task {doc.get('task_id')} [{source}]")
        handled += 1
        telemetry.task_done(source, time.perf_counter() - started)
    telemetry.push()
    return handled


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="pull campaign cells from a repro.dist coordinator")
    parser.add_argument("url", help="coordinator base URL")
    parser.add_argument("--id", default=None,
                        help="worker id (default: host:pid)")
    parser.add_argument("--poll", type=float, default=DEFAULT_POLL,
                        help="base seconds between claims when idle")
    parser.add_argument("--lease", type=float, default=DEFAULT_LEASE,
                        help="requested lease seconds per task")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="exit after handling N tasks")
    parser.add_argument("--obs-push", default=None, metavar="URL",
                        help="push worker telemetry to a fleet "
                             "aggregator (default $REPRO_OBS_PUSH, or "
                             "off)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    worker_id = args.id or f"{os.uname().nodename}:{os.getpid()}"
    say = ((lambda line: None) if args.quiet else
           (lambda line: print(f"worker {worker_id}: {line}", flush=True)))
    try:
        handled = worker_loop(
            args.url, worker_id, poll=args.poll, lease=args.lease,
            max_tasks=args.max_tasks, say=say,
            obs_push=resolve_push_url(args.obs_push))
    except WorkerError as exc:
        print(f"worker {worker_id}: fatal: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    say(f"handled {handled} task(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
