"""The interchangeable executor backends behind ``run_cells``.

Three ways to drain the same work queue, one contract: results are
positionally aligned with the submitted cells and byte-identical no
matter which backend computed them (every cell is a pure function of
its spec, and results travel as the same pickles the cache stores).

* ``inprocess`` — today's path: serial or a ``ProcessPoolExecutor``
  inside :func:`repro.parallel.run_cells` itself.  The default; zero
  new moving parts.
* ``work-stealing`` — a multiprocess pool sharing one task queue: idle
  workers steal the next cell, a dead worker's in-flight cell is
  re-enqueued (at-least-once), and results are published to the shared
  artifact store as they land.
* ``socket`` — the same queue served over HTTP by a
  :class:`~repro.dist.coordinator.CoordinatorServer`; workers are
  separate ``python -m repro.dist.worker`` processes (spawned locally
  here, or attached from anywhere the URL reaches) with heartbeats and
  lease-expiry re-enqueue.

Both multiprocess backends prefer **fork** for locally spawned workers
when it is safe (POSIX, and no other threads live in this process —
forking a threaded parent can deadlock on inherited locks): a forked
worker inherits the parent's warm imports, where a spawned/subprocess
worker pays the full interpreter + package import bill before its first
claim — the dominant cost of small campaigns on small machines.
Threaded parents (the service plane drives campaigns from job threads)
and non-fork platforms fall back to spawn/subprocess automatically;
``REPRO_DIST_FORK=0`` forces the fallback everywhere.

The dogfooding the ROADMAP promises is real: N workers contending for
one queue and one store *is* the paper's shared-service picture, with
the lease/retry machinery playing the role of the Ethernet discipline.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as stdlib_queue
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Optional, Sequence

from ..parallel.executor import (
    CampaignCancelled,
    CellSpec,
    _cancelled,
    _execute,
    resolve_jobs,
)
from .queue import FAILED, TaskQueue
from .store import ArtifactStore, MemoryArtifactStore
from .wire import encode_cell

#: Backends consume work items of shape
#: ``(original index, CellSpec, artifact key or None)``.
Progress = Callable[[str, str], None]

#: Seconds between orchestration-loop ticks (cancel checks, reaps).
_TICK = 0.05

#: Executions allowed per cell before the campaign fails.
MAX_ATTEMPTS = 3

#: Idle-poll base for locally spawned socket workers: they share a
#: machine with the coordinator, so polling can be much brisker than
#: the remote-worker default.
_LOCAL_POLL = 0.05

#: Environment override for the fork-vs-spawn worker decision.
FORK_ENV = "REPRO_DIST_FORK"


class BackendError(RuntimeError):
    """A distributed backend could not complete the campaign."""


def _fork_allowed() -> bool:
    """Fork local workers only when it cannot deadlock.

    Fork must be available, this process must be single-threaded (a
    forked child inherits a frozen copy of every lock, including the
    import lock — fatal if another thread held one mid-fork), and
    ``$REPRO_DIST_FORK`` must not veto it.
    """
    if os.environ.get(FORK_ENV, "").strip() == "0":
        return False
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return threading.active_count() == 1


# ---------------------------------------------------------------------------
# Work-stealing backend (multiprocess)
# ---------------------------------------------------------------------------

def _ws_worker_main(worker_id: str, task_q, result_q,
                    store_root: Optional[str],
                    fingerprint: Optional[str]) -> None:
    """One pool worker: steal a cell, fetch-or-compute, publish, repeat.

    Runs in a child process; everything it needs arrives as picklable
    arguments.  The store is rebuilt from (root, fingerprint) so its
    keys agree with the parent's.  Store trouble degrades the cell to a
    fresh compute; a crashed cell is reported to the parent.
    """
    store = None
    if store_root:
        from ..parallel.cache import ResultCache

        store = ArtifactStore(
            ResultCache(store_root, fingerprint=fingerprint))
    while True:
        item = task_q.get()
        if item is None:
            break
        index, spec, artifact = item
        result_q.put(("claim", worker_id, index))
        try:
            if store is not None and artifact is not None:
                try:
                    hit, value = store.fetch(artifact)
                except Exception:  # noqa: BLE001 - store never poisons
                    hit = False
                if hit:
                    result_q.put(("done", worker_id, index, value))
                    continue
            value = _execute(spec)
            if store is not None and artifact is not None:
                try:
                    store.publish(artifact, value)
                except Exception:  # noqa: BLE001 - degrade to computed
                    pass
            result_q.put(("done", worker_id, index, value))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            result_q.put(("fail", worker_id, index,
                          f"{type(exc).__name__}: {exc}"))


def run_work_stealing(
    items: Sequence[tuple[int, CellSpec, Optional[str]]],
    jobs: Optional[int],
    cache,
    progress: Progress,
    cancel,
) -> dict[int, Any]:
    """Drain ``items`` with a fleet of stealing workers.

    At-least-once: when a worker dies mid-cell (detected by liveness,
    the local analogue of an expired lease), every unresolved cell not
    held by a live worker is re-enqueued and a replacement worker is
    spawned.  Duplicate executions are harmless — cells are pure and
    the first result wins — but a cell that kills ``MAX_ATTEMPTS``
    workers in a row fails the campaign.
    """
    ctx = multiprocessing.get_context(
        "fork" if _fork_allowed() else "spawn")
    task_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    store_root = cache.root if cache is not None else None
    fingerprint = cache.fingerprint if cache is not None else None

    n_workers = max(1, min(resolve_jobs(jobs), len(items)))
    workers: dict[str, Any] = {}
    spawned = 0
    # Replacement workers are budgeted: a fleet whose every member dies
    # instantly (broken environment, unimportable __main__) must error
    # out, not respawn forever.
    spawn_budget = n_workers * (MAX_ATTEMPTS + 1)

    def spawn() -> None:
        nonlocal spawned
        if spawned >= spawn_budget:
            raise BackendError(
                f"work-stealing workers keep dying "
                f"({spawned} spawned for a fleet of {n_workers})")
        worker_id = f"ws{spawned}"
        spawned += 1
        process = ctx.Process(
            target=_ws_worker_main,
            args=(worker_id, task_q, result_q, store_root, fingerprint),
            daemon=True)
        process.start()
        workers[worker_id] = process

    for item in items:
        task_q.put(item)
    for _ in range(n_workers):
        spawn()

    by_index = {index: (spec, artifact) for index, spec, artifact in items}
    results: dict[int, Any] = {}
    attempts: dict[int, int] = {}
    inflight: dict[str, int] = {}

    def shutdown(kill: bool = False) -> None:
        for process in workers.values():
            if kill:
                if process.is_alive():
                    process.terminate()
            else:
                task_q.put(None)
        deadline = time.monotonic() + 10.0
        for process in workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
        task_q.close()
        result_q.close()

    try:
        while len(results) < len(by_index):
            if _cancelled(cancel):
                raise CampaignCancelled("work-stealing backend cancelled")
            try:
                message = result_q.get(timeout=_TICK)
            except stdlib_queue.Empty:
                _ws_reap_dead(workers, inflight, by_index, results,
                              attempts, task_q, spawn)
                continue
            kind, worker_id, index = message[:3]
            key = by_index[index][0].key
            if kind == "claim":
                inflight[worker_id] = index
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] > MAX_ATTEMPTS:
                    raise BackendError(
                        f"cell {key} exceeded {MAX_ATTEMPTS} attempts")
                if attempts[index] == 1:
                    progress(key, "run")
            elif kind == "done":
                inflight.pop(worker_id, None)
                if index not in results:  # first result wins duplicates
                    results[index] = message[3]
                    progress(key, "done")
            else:
                # A cell that raised is deterministic; propagate like the
                # in-process pool does rather than retrying it.
                raise BackendError(f"cell {key} failed: {message[3]}")
    except BaseException:
        shutdown(kill=True)
        raise
    shutdown(kill=False)
    return results


def _ws_reap_dead(workers, inflight, by_index, results, attempts,
                  task_q, spawn) -> None:
    """Dead-worker recovery: re-enqueue orphaned cells, refill the pool."""
    dead = [worker_id for worker_id, process in workers.items()
            if not process.is_alive()]
    if not dead:
        return
    for worker_id in dead:
        del workers[worker_id]
        inflight.pop(worker_id, None)
    # A worker may die between stealing a cell and reporting the claim,
    # so re-enqueue *every* unresolved cell no live worker holds —
    # duplicates are safe (pure cells, first result wins).
    held = set(inflight.values())
    for index, (spec, artifact) in by_index.items():
        if index not in results and index not in held:
            if attempts.get(index, 0) >= MAX_ATTEMPTS:
                raise BackendError(
                    f"cell {spec.key} exceeded {MAX_ATTEMPTS} attempts "
                    f"(workers keep dying under it)")
            task_q.put((index, spec, artifact))
    for _ in dead:
        spawn()


# ---------------------------------------------------------------------------
# Socket backend (HTTP coordinator + worker processes)
# ---------------------------------------------------------------------------

def _worker_env() -> dict[str, str]:
    """The spawned worker's environment, with ``repro`` importable."""
    import repro

    env = dict(os.environ)
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_parent if not existing
                         else package_parent + os.pathsep + existing)
    return env


def spawn_worker(url: str, worker_id: str, lease: float = 30.0,
                 poll: float = _LOCAL_POLL) -> subprocess.Popen:
    """Start one ``python -m repro.dist.worker`` against ``url``."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dist.worker", url,
         "--id", worker_id, "--lease", str(lease),
         "--poll", str(poll), "--quiet"],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _forked_worker_main(url: str, worker_id: str, lease: float) -> None:
    """Entry point for fork-context local socket workers.

    Same loop as the CLI (claim over HTTP, shared store, per-cell acks)
    minus the interpreter + import bill — the fork inherited everything
    warm.  The shared HTTP pool cleared itself at fork, so this child
    opens its own coordinator connection.
    """
    from ..obs.push import resolve_push_url
    from .worker import worker_loop

    # The CLI entry resolves --obs-push/$REPRO_OBS_PUSH; a forked
    # member skips the CLI, so honour the env opt-in here.
    worker_loop(url, worker_id, poll=_LOCAL_POLL, lease=lease,
                obs_push=resolve_push_url(None))


class _FleetMember:
    """One local worker process, Popen or multiprocessing alike."""

    def __init__(self, process: Any) -> None:
        self._process = process
        self._popen = isinstance(process, subprocess.Popen)

    def alive(self) -> bool:
        if self._popen:
            return self._process.poll() is None
        return self._process.is_alive()

    def wait(self, timeout: float) -> None:
        if self._popen:
            try:
                self._process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        else:
            self._process.join(timeout=timeout)

    def terminate(self) -> None:
        if self.alive():
            self._process.terminate()


def _spawn_fleet(url: str, n_workers: int, lease: float,
                 use_fork: bool) -> list[_FleetMember]:
    if not use_fork:
        return [_FleetMember(spawn_worker(url, f"w{i}", lease=lease))
                for i in range(n_workers)]
    ctx = multiprocessing.get_context("fork")
    members = []
    for i in range(n_workers):
        process = ctx.Process(
            target=_forked_worker_main,
            args=(url, f"w{i}", lease),
            daemon=True)
        process.start()
        members.append(_FleetMember(process))
    return members


def run_socket(
    items: Sequence[tuple[int, CellSpec, Optional[str]]],
    jobs: Optional[int],
    cache,
    progress: Progress,
    cancel,
    lease: float = 30.0,
    host: str = "127.0.0.1",
    wait_timeout: Optional[float] = None,
) -> dict[int, Any]:
    """Serve ``items`` from a live coordinator to a local worker fleet.

    The coordinator is a real HTTP server on ``host`` (loopback unless
    told otherwise); workers are separate interpreters that could as
    well be on other machines.  Lease expiry re-enqueues the cells of
    any worker that stops heartbeating; results come back through acks,
    already decoded.

    Local workers fork from this (warm) process when that is safe —
    the decision and the forks both happen *before* the coordinator's
    serve thread starts, keeping the fork single-threaded; the bound
    listen socket queues the early birds' connections meanwhile.
    """
    from .coordinator import CoordinatorServer

    task_queue = TaskQueue(lease=lease, max_attempts=MAX_ATTEMPTS)
    store = (ArtifactStore(cache) if cache is not None
             else MemoryArtifactStore())
    task_index: dict[str, int] = {}
    for index, spec, artifact in items:
        task = task_queue.submit(
            encode_cell(spec), key=spec.key,
            artifact=artifact, cacheable=spec.cacheable)
        task_index[task.task_id] = index

    n_workers = max(1, min(resolve_jobs(jobs), len(items)))
    seen_states: dict[str, str] = {}
    deadline = (time.monotonic() + wait_timeout
                if wait_timeout is not None else None)

    server = CoordinatorServer(task_queue, store, host=host)
    use_fork = _fork_allowed()
    fleet = _spawn_fleet(server.url, n_workers, lease, use_fork)
    server.start()
    try:
        while not task_queue.finished():
            if _cancelled(cancel):
                raise CampaignCancelled("socket backend cancelled")
            if deadline is not None and time.monotonic() > deadline:
                raise BackendError(
                    f"campaign still unfinished after {wait_timeout:g}s")
            task_queue.reap_expired()
            for task in task_queue.tasks():
                previous = seen_states.get(task.task_id)
                if task.state != previous:
                    seen_states[task.task_id] = task.state
                    if task.state == "claimed" and previous is None:
                        progress(task.key, "run")
                    elif task.state == "done":
                        progress(task.key, "done")
            failed = task_queue.failures()
            if failed:
                raise BackendError("; ".join(
                    f"cell {task.key} failed: {task.error}"
                    for task in failed))
            if not any(member.alive() for member in fleet):
                raise BackendError(
                    "every worker exited with cells still queued "
                    f"({task_queue.outstanding()} outstanding)")
            # wait() wakes on the final ack; the timeout keeps the
            # reap/cancel/liveness checks ticking.
            task_queue.wait(timeout=_TICK)
    except BaseException:
        task_queue.drain()
        for member in fleet:
            member.terminate()
        server.close()
        raise
    # Campaign complete: signal drain so workers exit on their next
    # claim, give them a moment, then stop waiting on stragglers.
    task_queue.drain()
    waited_until = time.monotonic() + 2.0
    for member in fleet:
        member.wait(timeout=max(0.1, waited_until - time.monotonic()))
        member.terminate()
    server.close()

    results: dict[int, Any] = {}
    for task in task_queue.tasks():
        if task.state == FAILED:  # pragma: no cover - raised above
            raise BackendError(f"cell {task.key} failed: {task.error}")
        results[task_index[task.task_id]] = task.result
    return results
