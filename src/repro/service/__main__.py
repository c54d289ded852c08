"""``python -m repro.service`` — run the grid service.

Builds a :class:`~repro.service.jobs.JobStore` from CLI flags (sandbox
budgets, worker counts, cache location), binds the stdlib server, and
serves until SIGINT/SIGTERM — at which point in-flight jobs get their
cancel events set and the store drains before exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import traceback
from typing import Optional

from ..obs import Observability
from ..obs.push import ObsPusher, resolve_push_url
from ..parallel.cache import ResultCache
from .app import make_server
from .http import AppServer
from .jobs import MAX_FINISHED_JOBS, JobStore
from .sandbox import SandboxPolicy

#: Seconds between periodic self-pushes of the service's own telemetry.
OBS_PUSH_INTERVAL = 5.0


def build(argv: Optional[list[str]] = None,
          ) -> tuple[argparse.Namespace, JobStore, AppServer]:
    """Parse the flags; return them, the started store and its server."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="serve the repro grid service plane over HTTP")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8042,
                        help="0 picks a free port (printed at startup)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrently running jobs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="processes per job (repro.parallel; "
                        "0 = one per CPU, default serial)")
    parser.add_argument("--backend", default=None,
                        choices=("inprocess", "work-stealing", "socket"),
                        help="cell executor backend (repro.dist; default "
                        "inprocess, or $REPRO_DIST_BACKEND)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache root (default: the shared "
                        "repro cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run every cell, serve nothing from cache")
    parser.add_argument("--ttl", type=float, default=3600.0,
                        help="seconds to retain finished jobs (0 = no age "
                        f"limit; at most {MAX_FINISHED_JOBS} are kept "
                        "either way)")
    parser.add_argument("--wall-budget", type=float, default=120.0,
                        help="real-seconds budget per job")
    parser.add_argument("--max-events", type=int, default=2_000_000,
                        help="simulation event budget per script")
    parser.add_argument("--max-cells", type=int, default=64,
                        help="largest admissible campaign grid")
    parser.add_argument("--max-sim-seconds", type=float, default=3600.0,
                        help="largest admissible script timeout")
    parser.add_argument("--pin-seed", type=int, default=None,
                        help="force every submission to this seed")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip ftshlint at admission")
    parser.add_argument("--lint-error", action="store_true",
                        help="treat lint warnings as admission errors")
    parser.add_argument("--obs-push", default=None, metavar="URL",
                        help="periodically push the service's own "
                        "telemetry to a fleet aggregator; 'self' targets "
                        "this server's own /obs/ingest (default: "
                        "$REPRO_OBS_PUSH, or off)")
    args = parser.parse_args(argv)

    policy = SandboxPolicy(
        max_sim_seconds=args.max_sim_seconds,
        max_events=args.max_events,
        max_cells=args.max_cells,
        wall_budget=args.wall_budget,
        pinned_seed=args.pin_seed,
        lint=not args.no_lint,
        lint_warn_as_error=args.lint_error,
    )
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    store = JobStore(
        policy=policy, cache=cache, workers=args.workers,
        run_jobs=args.jobs, run_backend=args.backend,
        ttl=args.ttl if args.ttl > 0 else None,
        # Counters, not timestamped series: nothing here reads .series,
        # and a long-running server must not grow per update.
        obs=Observability(keep_series=False))
    store.start()
    return args, store, make_server(store, host=args.host, port=args.port)


def main(argv: Optional[list[str]] = None) -> int:
    args, store, server = build(argv)
    host, port = server.server_address[:2]
    cache = "off" if store.cache is None else store.cache.root
    print(f"repro-service: listening on http://{host}:{port} "
          f"(workers={args.workers}, cache={cache})", flush=True)

    push_url = (f"http://{host}:{port}" if args.obs_push == "self"
                else resolve_push_url(args.obs_push))
    stop_push = threading.Event()
    if push_url:
        pusher = ObsPusher(push_url, source=f"service/{host}:{port}",
                           labels={"component": "service"})

        def _push_loop() -> None:
            # First push happens immediately, not after one interval:
            # a service that only lives seconds (warm-cache campaigns)
            # must still register in the fleet snapshot.
            while True:
                try:
                    pusher.push(store.obs)
                except Exception:
                    # Best-effort by contract: the telemetry loop must
                    # outlive any single bad push.
                    pusher.failed += 1
                    traceback.print_exc()
                if stop_push.wait(OBS_PUSH_INTERVAL):
                    break
            try:
                # Final flush for external aggregators; a self-push
                # here may lose the race with our own shutdown.
                pusher.push(store.obs)
            except Exception:
                pusher.failed += 1

        push_thread = threading.Thread(target=_push_loop,
                                       name="obs-push", daemon=True)
        push_thread.start()
        print(f"repro-service: pushing telemetry to {pusher.url}",
              flush=True)

    def _shutdown(signum, frame) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-service: shutting down", flush=True)
    finally:
        stop_push.set()
        server.shutdown()
        server.server_close()
        store.close()
        if push_url:
            push_thread.join(timeout=OBS_PUSH_INTERVAL)
            print(f"repro-service: obs-push seq={pusher.seq} "
                  f"pushed={pusher.pushed} failed={pusher.failed}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
