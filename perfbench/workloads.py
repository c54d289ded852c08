"""The four workloads, each with a timed mode and a traced mode.

Timed mode (``--trace 0``) measures the end-to-end metrics with nothing
installed.  Traced mode (``--trace 1``) runs a fixed amount of the same
work twice, once plain and once under :class:`tracing.Tracer`, and
reports the per-layer metrics; the ratio of the two walls is the
tracing overhead.  Every output goes through :class:`oracle.Oracle`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Callable, Optional

from layers import LAYERS, UNATTRIBUTED, call_count
from manifest import CAMPAIGN, CHAOS, DIST, SERVICE, per_layer
from oracle import Oracle, digest_jsonable
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples")

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 3

#: The traced-run accounting check: layer self time plus unattributed
#: time must equal the profiled thread-seconds, and the phase's own
#: thread must account for the traced wall, each within this share.
#: The slack is the profiler's own bookkeeping, which no function owns.
ACCOUNTING_MARGIN = 0.10


@dataclasses.dataclass
class Context:
    """Per-run settings and the places a run may write."""

    seed: int
    seconds: float
    tiny: bool
    workdir: str
    oracle: Oracle
    lines: list[str] = dataclasses.field(default_factory=list)
    _dirs: int = 0

    def say(self, line: str) -> None:
        self.lines.append(line)

    def fresh_dir(self, label: str) -> str:
        """A new empty directory under this run's scratch area."""
        self._dirs += 1
        path = os.path.join(self.workdir, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def child_env(extra: Optional[dict[str, str]] = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def lookup(path: str) -> Any:
    """``module:attr.attr`` from the code under test, or None.

    The benchmark judges refactors that may delete a module or rename a
    function; what it reads through here then counts as absent (0)
    instead of breaking every run.
    """
    module_name, _, attrs = path.partition(":")
    try:
        found: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in filter(None, attrs.split(".")):
        found = getattr(found, attr, None)
    return found


def clear_script_caches() -> None:
    """Cold parse and compile caches, as in a fresh process."""
    for path in ("repro.core.parser:parse_cached.cache_clear",
                 "repro.core.compile:compile_cache_clear"):
        clear = lookup(path)
        if clear is not None:
            clear()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def time_import_setup(ctx: Context, modules: tuple[str, ...]) -> float:
    """Median wall of a fresh interpreter importing ``modules``."""
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(1 if ctx.tiny else SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return median(samples)


def quick_cells(seed: int, tiny: bool) -> list[Any]:
    from repro.experiments import runall

    groups = runall.campaign_cells(runall.SCALES["quick"], seed)
    cells = [cell for group in groups.values() for cell in group]
    if tiny:
        cells = [cell for cell in cells
                 if cell.key.endswith("/n50") or cell.key.startswith("fig6")]
    return cells


def chaos_scale(tiny: bool) -> Any:
    from repro.experiments import chaos

    scale = chaos.SCALES["smoke"]
    if tiny:
        scale = dataclasses.replace(
            scale, name="tiny", submit_clients=20, submit_duration=10.0,
            buffer_producers=5, buffer_duration=10.0, replica_clients=3,
            replica_duration=60.0, kangaroo_producers=4,
            kangaroo_duration=20.0)
    return scale


def run_passes(ctx: Context, one_pass: Callable[[], Any],
               check: Callable[[Any], None]) -> list[float]:
    """Whole passes back to back for ``ctx.seconds``: at least one, and
    no further pass once the median pass would overrun the deadline.
    Only ``one_pass`` is timed, ``check`` is not."""
    deadline = time.perf_counter() + ctx.seconds
    walls: list[float] = []
    while True:
        clear_script_caches()
        started = time.perf_counter()
        outcome = one_pass()
        walls.append(time.perf_counter() - started)
        check(outcome)
        if ctx.tiny or time.perf_counter() + median(walls) > deadline:
            return walls


def e2e(setup_s: float, throughput: float, latency_s: float
        ) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (latency_s * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def grid_e2e(ctx: Context, setup_s: float, walls: list[float],
             cells: int) -> dict[str, tuple[float, str]]:
    """A grid pass is one request: cells/s over the median pass, which
    a burst of host contention during one pass cannot move."""
    ctx.say(f"cells_per_s {cells / median(walls):.4f} cells/s "
            f"({cells} cells per pass, median of {len(walls)} passes; "
            f"{cells * len(walls) / sum(walls):.4f} over all "
            f"{cells * len(walls)} cells)")
    ctx.say(f"pass_wall_s median {median(walls):.4f} s "
            f"(n={len(walls)}: {', '.join(f'{w:.3f}' for w in walls)})")
    return e2e(setup_s, cells / median(walls), median(walls))


# ---------------------------------------------------------------------------
# campaign-quick
# ---------------------------------------------------------------------------

def _campaign_pass(cells: list[Any]) -> Callable[[], Any]:
    from repro.parallel.executor import run_cells

    return lambda: run_cells(cells, jobs=1, cache=None, backend="inprocess")


def _grid_checker(ctx: Context, what: str,
                  expected: Optional[str] = None) -> Callable[[Any], None]:
    state = {"expected": expected}

    def check(results: Any) -> None:
        state["expected"] = ctx.oracle.check_grid(
            results, state["expected"], what)

    return check


def campaign_timed(ctx: Context) -> dict[str, tuple[float, str]]:
    setup = time_import_setup(ctx, ("repro.experiments.runall",))
    cells = quick_cells(ctx.seed, ctx.tiny)
    walls = run_passes(ctx, _campaign_pass(cells),
                       _grid_checker(ctx, CAMPAIGN))
    return grid_e2e(ctx, setup, walls, len(cells))


def campaign_traced(ctx: Context, tracer: Tracer) -> dict[str, float]:
    cells = quick_cells(ctx.seed, ctx.tiny)
    return traced_grid(ctx, tracer, _campaign_pass(cells),
                       _grid_checker(ctx, CAMPAIGN))


# ---------------------------------------------------------------------------
# chaos-smoke
# ---------------------------------------------------------------------------

def _chaos_pass(ctx: Context) -> Callable[[], Any]:
    from repro.experiments import chaos

    scale = chaos_scale(ctx.tiny)
    return lambda: chaos.run_chaos_campaign(
        scale, seed=ctx.seed, jobs=1, cache=None, backend="inprocess")


def _chaos_checker(ctx: Context) -> Callable[[Any], None]:
    from repro.experiments import chaos

    state: dict[str, Optional[str]] = {"expected": None}
    cells = chaos_cell_count(ctx)

    def check(report: Any) -> None:
        state["expected"] = ctx.oracle.check_chaos(
            report, chaos.render_scorecard(report), state["expected"], cells)
        ctx.say(f"ordering violations: {len(report.violations)}"
                + "".join(f"\n  {line}" for line in report.violations))

    return check


def chaos_cell_count(ctx: Context) -> int:
    from repro.experiments import chaos

    return len(chaos.campaign_cells(chaos_scale(ctx.tiny), ctx.seed))


def chaos_timed(ctx: Context) -> dict[str, tuple[float, str]]:
    setup = time_import_setup(ctx, ("repro.experiments.chaos",))
    walls = run_passes(ctx, _chaos_pass(ctx), _chaos_checker(ctx))
    return grid_e2e(ctx, setup, walls, chaos_cell_count(ctx))


def chaos_traced(ctx: Context, tracer: Tracer) -> dict[str, float]:
    return traced_grid(ctx, tracer, _chaos_pass(ctx), _chaos_checker(ctx))


# ---------------------------------------------------------------------------
# dist-socket
# ---------------------------------------------------------------------------

def _dist_pass(ctx: Context, cells: list[Any]) -> Callable[[], Any]:
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import run_cells

    def one_pass() -> Any:
        store = ResultCache(root=ctx.fresh_dir("artifacts"))
        return run_cells(cells, jobs=2, cache=store, backend="socket")

    return one_pass


def _serial_digest(ctx: Context, cells: list[Any]) -> Optional[str]:
    """campaign-quick's digest for this seed, which dist must reproduce.

    The default seed has it stored; other seeds compute it serially here
    (untimed)."""
    from oracle import digest_results

    if ctx.oracle.uses_reference:
        return None
    clear_script_caches()
    return digest_results(_campaign_pass(cells)())


def dist_timed(ctx: Context) -> dict[str, tuple[float, str]]:
    from repro.parallel.cache import code_fingerprint

    setup = time_import_setup(
        ctx, ("repro.experiments.runall", "repro.dist.backends",
              "repro.dist.coordinator", "repro.dist.worker"))
    cells = quick_cells(ctx.seed, ctx.tiny)
    expected = _serial_digest(ctx, cells)
    code_fingerprint()
    walls = run_passes(ctx, _dist_pass(ctx, cells),
                       _grid_checker(ctx, DIST, expected))
    return grid_e2e(ctx, setup, walls, len(cells))


def dist_traced(ctx: Context, tracer: Tracer) -> dict[str, float]:
    from repro.parallel.cache import code_fingerprint

    cells = quick_cells(ctx.seed, ctx.tiny)
    expected = _serial_digest(ctx, cells)
    code_fingerprint()
    aggregator = start_aggregator()
    try:
        def traced_pass() -> Any:
            os.environ["REPRO_OBS_PUSH"] = aggregator.url
            try:
                return _dist_pass(ctx, cells)()
            finally:
                os.environ.pop("REPRO_OBS_PUSH", None)

        values = traced_grid(ctx, tracer, _dist_pass(ctx, cells),
                             _grid_checker(ctx, DIST, expected),
                             traced_pass=traced_pass)
        fleet = fetch_json(aggregator.url + "/obs/fleet")
    finally:
        aggregator.stop()
    busy = window = 0.0
    for source in fleet.get("sources", {}).values():
        if source.get("labels", {}).get("component") == "dist-worker":
            busy += source.get("busy_seconds") or 0.0
            window += source.get("window_seconds") or 0.0
    values["dist.worker.busy_ratio"] = busy / window if window else 0.0
    ctx.say("REPRO_OBS_PUSH=<in-benchmark aggregator> during the traced pass")
    return values


class Child:
    """A repro server in its own process, announced on its first line."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        self.process = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self.stop()
            raise RuntimeError(f"{argv[2]} did not start: {line!r}")
        self.url = line.split(marker, 1)[1].split()[0]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def start_aggregator() -> Child:
    return Child([sys.executable, "-m", "repro.obs.aggregator", "--port", "0"],
                 child_env())


def fetch_text(url: str) -> str:
    """A plain GET, deliberately outside the traced repro HTTP client."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode()


def fetch_json(url: str) -> Any:
    return json.loads(fetch_text(url))


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

#: (example file, world it runs against), the paper's three listings.
SERVICE_EXAMPLES = (("submit_ethernet", "condor"),
                    ("replica_fetch", "replica"),
                    ("buffer_producer", "buffer"))

#: Long-poll hold per events request, seconds.
EVENTS_WAIT = 5.0

#: Ops per client in a traced phase (fixed, so counts repeat).
TRACED_OPS = 40


def example_text(name: str) -> str:
    with open(os.path.join(EXAMPLES, f"{name}.ftsh"), encoding="utf-8") as f:
        return f.read()


def aloha_script(rng: random.Random) -> str:
    """A probe-less retry around the shared resource: lint must refuse it."""
    return (f"# Aloha: no carrier sense before condor_submit\n"
            f"try for {rng.randint(1, 30)} minutes\n"
            f"    condor_submit job{rng.randint(1, 99)}.submit\n"
            f"end\n")


class ClientPlan:
    """One closed-loop user's op stream, a pure function of the seed.

    Half the ops are fresh submissions (new job seed), four in ten
    resubmit a job this client already finished, one in ten is an
    Aloha-shaped script the lint gate must refuse.
    """

    def __init__(self, seed: int, client: int) -> None:
        self.rng = random.Random(f"perfbench-service:{seed}:{client}")
        self.base = (seed % 100_000) * 100_000 + client * 50_000
        self.fresh = 0
        self.finished: list[dict[str, Any]] = []
        self.texts = {name: example_text(name)
                      for name, _world in SERVICE_EXAMPLES}

    def next_op(self) -> tuple[str, Any]:
        from repro.service.schemas import ScriptSubmission

        draw = self.rng.random()
        if draw < 0.1:
            return "reject", ScriptSubmission(
                script=aloha_script(self.rng), world="condor",
                seed=self.base)
        if draw < 0.5 and self.finished:
            return "cached", self.rng.choice(self.finished)
        name, world = self.rng.choice(SERVICE_EXAMPLES)
        self.fresh += 1
        return "fresh", {
            "key": f"{name}|{self.base + self.fresh}",
            "submission": ScriptSubmission(
                script=self.texts[name], world=world,
                seed=self.base + self.fresh),
        }


def direct_result_digest(submission: Any) -> str:
    """What the service must answer, computed in-process."""
    from repro.parallel.executor import run_cells
    from repro.parallel.transport import to_jsonable
    from repro.service.sandbox import SandboxPolicy, admit_script, cells_for

    policy = SandboxPolicy(lint_warn_as_error=True)
    admitted = admit_script(submission, policy)
    results = run_cells(cells_for(admitted, policy))
    return digest_jsonable(to_jsonable(results[0]))


def service_reference_digests(seed: int, ops: int = 120) -> dict[str, str]:
    """Stored digests for the first ``ops`` ops of each default-seed client."""
    out: dict[str, str] = {}
    for client in range(2):
        plan = ClientPlan(seed, client)
        for _ in range(ops):
            kind, op = plan.next_op()
            if kind == "fresh":
                out[op["key"]] = direct_result_digest(op["submission"])
                plan.finished.append(op)
    return out


def run_client(url: str, plan: ClientPlan, until: Callable[[int], bool],
               records: list[dict[str, Any]]) -> None:
    """Drive one closed-loop user until ``until(ops_done)`` says stop."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.schemas import TERMINAL

    client = ServiceClient(url, timeout=60.0)
    done = 0
    while not until(done):
        kind, op = plan.next_op()
        record: dict[str, Any] = {"kind": kind}
        started = time.perf_counter()
        try:
            if kind == "reject":
                try:
                    client.submit(op)
                    record.update(status=202, code="admitted")
                except ServiceError as exc:
                    record.update(status=exc.status, code=exc.code)
                record["latency"] = time.perf_counter() - started
            else:
                status = client.submit(op["submission"])
                since, state = status.events_seq, status.state
                while state not in TERMINAL:
                    events = client.events(status.job_id, since=since,
                                           wait=EVENTS_WAIT)
                    if events:
                        since = events[-1].seq
                        state = next((event.state for event in events
                                      if event.state in TERMINAL), state)
                    else:
                        state = client.status(status.job_id).state
                record["latency"] = time.perf_counter() - started
                result = client.result(status.job_id)
                record.update(job_id=status.job_id, state=result.state,
                              cache_hit=result.cache_hit,
                              digest=digest_jsonable(result.result), op=op)
                if kind == "fresh" and result.state == "done":
                    op["digest"] = record["digest"]
                    op["job_id"] = status.job_id
                    plan.finished.append(op)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record.update(error=f"{type(exc).__name__}: {exc}",
                          latency=time.perf_counter() - started)
        records.append(record)
        done += 1


def drive_clients(url: str, plans: list[ClientPlan],
                  until: Callable[[int], bool]) -> tuple[list[dict], float]:
    """Client 0 runs on this thread, client 1 on its own; returns every
    op record and the wall until both stopped."""
    records: list[list[dict]] = [[] for _ in plans]
    started = time.perf_counter()
    others = [threading.Thread(target=run_client,
                               args=(url, plan, until, records[index]),
                               name=f"perfbench-client-{index}")
              for index, plan in enumerate(plans) if index > 0]
    for thread in others:
        thread.start()
    run_client(url, plans[0], until, records[0])
    for thread in others:
        thread.join()
    return [row for rows in records for row in rows], \
        time.perf_counter() - started


def check_service_records(ctx: Context, records: list[dict]) -> None:
    """Oracle verdict on every op.

    A seeded sample of fresh jobs is recomputed in-process first and
    becomes those jobs' expected result; the other fresh jobs are held
    to the stored reference (default seed), resubmissions to their
    first computation.
    """
    fresh = [row["op"] for row in records
             if row["kind"] == "fresh" and "error" not in row]
    rng = random.Random(f"perfbench-sample:{ctx.seed}")
    sample = {op["key"]: direct_result_digest(op["submission"])
              for op in rng.sample(fresh, min(len(fresh),
                                              2 if ctx.tiny else 4))}
    for record in records:
        kind = record["kind"]
        if "error" in record:
            ctx.oracle.record(1, False, f"{kind} op: {record['error']}")
        elif kind == "reject":
            ctx.oracle.check_rejection(record["status"], record["code"])
        else:
            op = record["op"]
            if kind == "fresh":
                expected = sample.get(op["key"],
                                      ctx.oracle.service_reference(op["key"]))
            else:
                expected = op["digest"]
            ctx.oracle.check_job(record["state"], record["digest"], expected,
                                 record["cache_hit"], kind == "cached",
                                 f"{kind} {op['key']}")


def latencies(records: list[dict], kind: Optional[str] = None) -> list[float]:
    return [row["latency"] for row in records
            if "error" not in row and row["kind"] != "reject"
            and (kind is None or row["kind"] == kind)]


def report_service(ctx: Context, records: list[dict], wall: float) -> None:
    jobs = latencies(records)
    rejects = [row["latency"] for row in records
               if row["kind"] == "reject" and "error" not in row]
    ctx.say(f"jobs_per_s {len(jobs) / wall:.4f} jobs/s "
            f"({len(jobs)} admitted jobs in {wall:.3f} s, 2 clients)")
    rows = (("job_p50_ms", jobs, 50), ("job_p90_ms", jobs, 90),
            ("fresh_p50_ms", latencies(records, "fresh"), 50),
            ("cached_p50_ms", latencies(records, "cached"), 50),
            ("reject_p50_ms", rejects, 50))
    for name, values, q in rows:
        ctx.say(f"{name} {percentile(values, q) * 1000:.3f} ms "
                f"(n={len(values)})")


def start_service(ctx: Context) -> Child:
    cache_dir = ctx.fresh_dir("service-cache")
    return Child([sys.executable, "-m", "repro.service", "--port", "0",
                  "--cache-dir", cache_dir, "--lint-error"],
                 child_env({"REPRO_CACHE_DIR": cache_dir}))


def wait_healthy(url: str) -> None:
    from repro.service.client import ServiceClient

    ServiceClient(url, timeout=30.0, retries=20).healthz()


def service_timed(ctx: Context) -> dict[str, tuple[float, str]]:
    setups = []
    service: Optional[Child] = None
    for _ in range(1 if ctx.tiny else SETUP_REPEATS):
        if service is not None:
            service.stop()
        started = time.perf_counter()
        service = start_service(ctx)
        wait_healthy(service.url)
        setups.append(time.perf_counter() - started)
    try:
        plans = [ClientPlan(ctx.seed, client) for client in range(2)]
        deadline = time.perf_counter() + ctx.seconds
        if ctx.tiny:
            until = lambda done: done >= 4  # noqa: E731
        else:
            until = lambda done: time.perf_counter() >= deadline  # noqa: E731
        records, wall = drive_clients(service.url, plans, until)
    finally:
        service.stop()
    check_service_records(ctx, records)
    report_service(ctx, records, wall)
    # Fresh and cached jobs form two latency modes ~2x apart in similar
    # numbers, so the all-jobs median flips between them with the mix;
    # the gated latency is the fresh path's, which does all the work.
    return e2e(median(setups), len(latencies(records)) / wall,
               percentile(latencies(records, "fresh"), 50))


class InProcessService:
    """The service hosted in this process, so wrappers see its calls."""

    def __init__(self, ctx: Context) -> None:
        from repro.obs import Observability
        from repro.parallel.cache import ResultCache
        from repro.service.app import make_server
        from repro.service.jobs import JobStore
        from repro.service.sandbox import SandboxPolicy

        self.store = JobStore(
            policy=SandboxPolicy(lint_warn_as_error=True),
            cache=ResultCache(root=ctx.fresh_dir("service-cache")),
            workers=2, obs=Observability())
        self.store.start()
        self.server = make_server(self.store, port=0)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-service")
        self.thread.start()

    def stop(self) -> float:
        """Shut down; returns how long ``JobStore.close`` took."""
        pool = lookup("repro.service.http:SHARED_POOL")
        if pool is not None:
            pool.clear()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        started = time.perf_counter()
        self.store.close()
        return time.perf_counter() - started


def request_histogram(url: str) -> tuple[float, float]:
    """(sum, count) of ``service_request_seconds`` from ``/metricsz``."""
    total = count = 0.0
    for line in fetch_text(url + "/metricsz").splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name == "service_request_seconds_sum":
            total += float(line.rsplit(" ", 1)[1])
        elif name == "service_request_seconds_count":
            count += float(line.rsplit(" ", 1)[1])
    return total, count


def job_phase_times(store: Any, records: list[dict]) -> tuple[list, list]:
    """Queue wait and run time of every job, from its event stream."""
    from repro.service.schemas import QUEUED, RUNNING, TERMINAL

    waits, runs = [], []
    for job_id in sorted({row["job_id"] for row in records if "job_id" in row}):
        queued = running = None
        for event in store.events(job_id):
            if event.state == QUEUED:
                queued, running = event.ts, None
            elif event.state == RUNNING and running is None:
                running = event.ts
                if queued is not None:
                    waits.append(running - queued)
            elif event.state in TERMINAL and running is not None:
                runs.append(event.ts - running)
    return waits, runs


def service_traced(ctx: Context, tracer: Tracer) -> dict[str, float]:
    pool = lookup("repro.service.http:SHARED_POOL")

    def connections() -> int:
        return pool.created if pool is not None else 0

    ops = 6 if ctx.tiny else TRACED_OPS

    def phase(traced: bool) -> tuple[list[dict], float, dict[str, Any]]:
        # The tracer starts before the service so its long-lived threads
        # (serve loop, job loop) get profilers too, and stops before
        # anything else talks to the service.
        clear_script_caches()
        if traced:
            install(tracer)
            tracer.start()
        try:
            service = InProcessService(ctx)
        except BaseException:
            if traced:
                tracer.stop()
            raise
        try:
            try:
                before = request_histogram(service.url)
                created = connections()
                plans = [ClientPlan(ctx.seed, client) for client in range(2)]
                records, wall = drive_clients(service.url, plans,
                                              lambda done: done >= ops)
                after = request_histogram(service.url)
                connects = connections() - created
            finally:
                if traced:
                    tracer.stop()
            waits, runs = job_phase_times(service.store, records)
        finally:
            close_s = service.stop()
        return records, wall, {
            "connects": connects, "handle_sum": after[0] - before[0],
            "handle_count": after[1] - before[1], "waits": waits,
            "runs": runs, "close_s": close_s}

    plain, plain_wall, _ = phase(traced=False)
    records, wall, extra = phase(traced=True)
    check_service_records(ctx, plain + records)
    values = layer_values(ctx, tracer, wall / plain_wall)
    rtts = tracer.durations("service.http_request")
    handle_ms = (extra["handle_sum"] / extra["handle_count"] * 1000.0
                 if extra["handle_count"] else 0.0)
    rtt_mean = statistics.fmean(rtts) * 1000.0 if rtts else 0.0
    values.update({
        "service.http.requests": len(rtts),
        "service.http.connects": extra["connects"],
        "service.http.rtt_ms_p50": median(rtts) * 1000.0,
        "service.app.handle_ms_mean": handle_ms,
        "service.wire_wait_ms_mean": rtt_mean - handle_ms,
        "service.jobs.queue_wait_ms_p50": median(extra["waits"]) * 1000.0,
        "service.jobs.run_ms_p50": median(extra["runs"]) * 1000.0,
        "service.jobs.close_s": extra["close_s"],
    })
    return values


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    def on_script(args, kwargs, result, error, seconds):
        if error is None:
            tracer.note("scripts", result)

    def on_get(args, kwargs, result, error, seconds):
        if error is None and result[0]:
            tracer.count("cache.hits")

    def on_put(args, kwargs, result, error, seconds):
        if error is None:
            tracer.count("cache.bytes", os.path.getsize(
                args[0]._path(args[1] if len(args) > 1 else kwargs["key"])))

    def on_handle(args, kwargs, result, error, seconds):
        if error is not None:
            return
        target = args[2] if len(args) > 2 else kwargs.get("target", "")
        if target.startswith("/queue/claim") and result[0] == 200:
            tracer.count("dist.claim_requests")
        elif target.startswith("/queue/ack_many") and result[0] == 200:
            tracer.count("dist.stale", len(json.loads(result[2])["stale"]))

    serving: set[int] = set()

    def on_start(args, kwargs, result, error, seconds):
        if error is None:
            serving.add(id(args[0]))

    def before_close(args, kwargs):
        # Only a started server answers; the bound-but-idle one would
        # leave this request queued until it timed out.
        if id(args[0]) in serving:
            tracer.note("queue_status",
                        fetch_json(args[0].url + "/queue/status"))

    for module, attr, name, after in (
        ("repro.core.parser", "parse_cached", "core.parse_cached", None),
        ("repro.core.compile", "compile_cached", "core.compile_cached", None),
        ("repro.clients.scripts", "submit_script", "clients.submit_script",
         on_script),
        ("repro.clients.scripts", "producer_script",
         "clients.producer_script", on_script),
        ("repro.clients.scripts", "producer_script_reserved",
         "clients.producer_script_reserved", on_script),
        ("repro.clients.scripts", "reader_script", "clients.reader_script",
         on_script),
        ("repro.parallel.executor", "run_cells", "parallel.run_cells", None),
        ("repro.service.http", "http_request", "service.http_request", None),
        ("repro.service.sandbox", "admit_script", "service.admit_script",
         None),
        ("repro.dist.backends", "_spawn_fleet", "dist.fleet.spawn", None),
    ):
        tracer.wrap_function(lookup(module), attr, name, after=after)
    for cls, attr, name, after, before in (
        ("repro.simruntime.shell:SimFtsh", "spawn", "simruntime.spawn",
         None, None),
        ("repro.parallel.cache:ResultCache", "get", "parallel.cache.get",
         on_get, None),
        ("repro.parallel.cache:ResultCache", "put", "parallel.cache.put",
         on_put, None),
        ("repro.parallel.cache:ResultCache", "key_for",
         "parallel.cache.key_for", None, None),
        ("repro.dist.coordinator:CoordinatorServer", "start",
         "dist.coordinator.start", on_start, None),
        ("repro.dist.coordinator:CoordinatorServer", "close",
         "dist.coordinator.close", None, before_close),
        ("repro.dist.coordinator:CoordinatorApp", "handle",
         "dist.coordinator.handle", on_handle, None),
        ("repro.dist.queue:TaskQueue", "drain", "dist.queue.drain",
         None, None),
    ):
        tracer.wrap_method(lookup(cls), attr, name, after=after,
                           before=before)
    tracer.count_calls(lookup("repro.simruntime.driver:SimDriver"),
                       "_run_command", "simruntime.commands")


def traced_grid(ctx: Context, tracer: Tracer, one_pass: Callable[[], Any],
                check: Callable[[Any], None],
                traced_pass: Optional[Callable[[], Any]] = None
                ) -> dict[str, float]:
    """One plain pass, then the same pass traced (both from cold caches)."""
    clear_script_caches()
    started = time.perf_counter()
    check(one_pass())
    plain_wall = time.perf_counter() - started
    clear_script_caches()
    install(tracer)
    tracer.start()
    try:
        outcome = (traced_pass or one_pass)()
    finally:
        tracer.stop()
    check(outcome)
    return layer_values(ctx, tracer, tracer.wall_s / plain_wall)


def layer_values(ctx: Context, tracer: Tracer,
                 overhead: float) -> dict[str, float]:
    """Every per-layer metric the tracer can give (0 where idle)."""
    values: dict[str, float] = dict.fromkeys(per_layer(), 0.0)
    stats = tracer.stats()
    layers = tracer.layer_seconds()
    thread_s = tracer.thread_seconds()
    threads = tracer.thread_count
    base = tracer.wall_s if threads == 1 else thread_s
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)
        values[f"{layer}.share"] = layers.get(layer, 0.0) / base
    accounted = sum(layers.values())
    main_s = tracer.main_thread_seconds()
    # Two ways the breakdown could drift from reality: the fold losing
    # or double-charging time, and the profile not covering the wall.
    error = max(abs(accounted - thread_s) / thread_s,
                abs(main_s - tracer.wall_s) / tracer.wall_s)
    values["trace.unattributed_s"] = layers.get(UNATTRIBUTED, 0.0)
    values["trace.wall_s"] = tracer.wall_s
    values["trace.thread_s"] = thread_s
    values["trace.overhead_ratio"] = overhead
    values["trace.accounting_error"] = error
    ctx.oracle.check_run(
        error <= ACCOUNTING_MARGIN,
        f"layer accounting off by {error:.1%} (margin {ACCOUNTING_MARGIN:.0%})")
    if tracer.missing:
        ctx.say("trace: boundaries absent from the code under test: "
                + ", ".join(tracer.missing))
    ctx.say(f"trace: {threads} profiled thread(s), {thread_s:.3f} thread-s; "
            f"layers + unattributed = {accounted:.3f} s; main thread "
            f"{main_s:.3f} s of {tracer.wall_s:.3f} s wall "
            f"(accounting margin {ACCOUNTING_MARGIN:.0%})")

    def calls(*paths: str) -> int:
        return sum(call_count(stats, lookup(path)) for path in paths)

    events = calls("repro.sim.engine:Engine._schedule",
                   "repro.sim.engine:Engine.immediate")
    values["sim.events"] = events
    values["sim.processes"] = calls("repro.sim.process:Process.__init__")
    values["sim.self_ns_per_event"] = (
        values["sim.self_s"] / events * 1e9 if events else 0.0)
    values["simruntime.spawns"] = len(tracer.durations("simruntime.spawn"))
    values["simruntime.commands"] = tracer.counts.get("simruntime.commands", 0)
    for name, path in (
            ("core.parse", "repro.core.parser:parse_cached.cache_info"),
            ("core.compile", "repro.core.compile:compile_cache_info")):
        info = lookup(path)
        if info is None:
            continue
        hits, misses = info().hits, info().misses
        values[f"{name}.lookups"] = hits + misses
        values[f"{name}.misses"] = misses
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses \
            else 0.0
    scripts = tracer.values.get("scripts", [])
    values["clients.scripts_built"] = len(scripts)
    values["clients.scripts_distinct"] = len(set(scripts))
    values["clients.reuse_ratio"] = (1.0 - len(set(scripts)) / len(scripts)
                                     if scripts else 0.0)
    values["core.shell_log.records"] = calls(
        "repro.core.shell_log:ShellLog.record")
    values["core.backoff.delays"] = calls(
        "repro.core.backoff:BackoffState.next_delay",
        "repro.core.backoff:BackoffState.next_delay_from_jitter")

    gets = tracer.durations("parallel.cache.get")
    puts = tracer.durations("parallel.cache.put")
    hits = tracer.counts.get("cache.hits", 0)
    values.update({
        "parallel.cache.gets": len(gets),
        "parallel.cache.hits": hits,
        "parallel.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "parallel.cache.puts": len(puts),
        "parallel.cache.bytes_written": tracer.counts.get("cache.bytes", 0),
        "parallel.cache.get_ms_p50": median(gets) * 1000.0,
        "parallel.cache.put_ms_p50": median(puts) * 1000.0,
        "parallel.cache.key_ms_p50": median(
            tracer.durations("parallel.cache.key_for")) * 1000.0,
    })
    admits = tracer.durations("service.admit_script")
    values["service.sandbox.admit_ms_p50"] = median(admits) * 1000.0
    values["service.sandbox.rejections"] = tracer.errors("service.admit_script")

    spawns = tracer.durations("dist.fleet.spawn")
    values["dist.fleet.spawn_s"] = sum(spawns)
    drains = [span for span in tracer.spans if span[2] == "dist.queue.drain"]
    closes = [span for span in tracer.spans
              if span[2] == "dist.coordinator.close"]
    if drains and closes:
        values["dist.drain_s"] = closes[-1][4] - drains[-1][3]
        values["dist.coordinator.close_s"] = closes[-1][4] - closes[-1][3]
    handles = tracer.durations("dist.coordinator.handle")
    values["dist.coordinator.requests"] = len(handles)
    values["dist.coordinator.handle_ms_p50"] = median(handles) * 1000.0
    status = (tracer.values.get("queue_status") or [None])[-1]
    if status is not None:
        stats_doc = status["stats"]
        claims = tracer.counts.get("dist.claim_requests", 0)
        values.update({
            "dist.queue.claims": stats_doc["claims"],
            "dist.queue.acks": stats_doc["acks"],
            "dist.queue.cells_per_claim": (stats_doc["claims"] / claims
                                           if claims else 0.0),
            "dist.queue.stale": tracer.counts.get("dist.stale", 0),
            "dist.queue.requeues": stats_doc["expired"] + stats_doc["nacks"],
            "dist.wire.in_bytes": status["wire"]["in_bytes"],
            "dist.wire.out_bytes": status["wire"]["out_bytes"],
            "dist.wire.blob_raw_bytes": status["wire"]["blob_raw_bytes"],
            "dist.wire.blob_wire_bytes": status["wire"]["blob_wire_bytes"],
        })
    values["python.gc.pause_s"] = tracer.gc_pause_s
    values["python.gc.collections"] = tracer.gc_collections
    return values


TIMED = {CAMPAIGN: campaign_timed, CHAOS: chaos_timed,
         SERVICE: service_timed, DIST: dist_timed}
TRACED = {CAMPAIGN: campaign_traced, CHAOS: chaos_traced,
          SERVICE: service_traced, DIST: dist_traced}

