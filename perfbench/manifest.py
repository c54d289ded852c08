"""The benchmark's catalogue: workloads, metrics, and what each should move.

This module is the single source for the metric names and units the
benchmark prints and for the two documents generated from them:

* ``BENCHMARK.json`` at the repo root — the fixed-schema manifest
  (command, workloads, gated end-to-end metrics with bounds, per-layer
  metrics);
* ``perfbench/spec.json`` — the self-description that schema has no
  room for: each workload's loop type, client/worker count and seed,
  and for each per-layer metric the end-to-end metric and workload it
  should move, the workload where it should not move, and whether it
  is an exact count.

``python3 perfbench/manifest.py --write`` regenerates both;
``--check`` (also run by the fast test) fails when either is stale.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CAMPAIGN = "campaign-quick"
CHAOS = "chaos-smoke"
SERVICE = "service-mixed"
DIST = "dist-socket"
GRID_WORKLOADS = (CAMPAIGN, CHAOS, DIST)

WORKLOADS = {
    CAMPAIGN: {
        "why": "runall quick grid (22 cells) run serially in-process, cache "
               "off, cold parse/compile caches: the headline number; sim, "
               "simruntime, core and grid do the work",
        "loop": "batch: whole grid passes back to back for --seconds",
        "clients": 1,
        "workers": 1,
        "operation": "grid cell",
        "seed": "--seed is the campaign seed (default 2003)",
    },
    CHAOS: {
        "why": "chaos campaign at smoke scale (33 cells), serial, cache off: "
               "the only workload running faults and grid.archive, and where "
               "the kernel and ShellLog dominate",
        "loop": "batch: whole campaigns back to back for --seconds "
                "(one campaign, ~26 s, outlasts --seconds=20)",
        "clients": 1,
        "workers": 1,
        "operation": "chaos cell",
        "seed": "--seed is the campaign seed (default 2003)",
    },
    SERVICE: {
        "why": "repro.service process, lint-error posture, 2 closed-loop "
               "ServiceClient users: 50% fresh jobs, 40% resubmits served "
               "from cache, 10% lint refusals",
        "loop": "closed: each client waits for its job's terminal event "
                "(events long-poll) before sending the next",
        "clients": 2,
        "workers": 2,
        "operation": "admitted job",
        "seed": "--seed seeds each client's op mix, scripts and job seeds",
    },
    DIST: {
        "why": "the quick grid through run_cells(backend='socket', jobs=2) "
               "into a fresh artifact store; must be byte-identical to "
               "campaign-quick",
        "loop": "batch: whole grid passes back to back for --seconds; "
                "fleet spawn and drain included",
        "clients": 1,
        "workers": 2,
        "operation": "grid cell",
        "seed": "--seed is the campaign seed (default 2003)",
    },
}

#: Gated end-to-end metrics: reported by every workload, tracing off.
#: Bounds follow the run-to-run spread measured on a shared 2-vCPU host
#: (quartile distance over median, ten seeds): wall-time metrics spread
#: up to 17-22% on campaign-quick, whose host slows and speeds up for
#: tens of seconds at a time, and chaos-smoke's peak RSS follows its
#: seed by 10-15%, so every metric takes the largest bound allowed.
END_TO_END = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "meaning": "median of 3 set-ups: a fresh interpreter importing the "
                   "workload's modules (grid workloads) or the service "
                   "process starting until /healthz answers",
    },
    "throughput_per_s": {
        "unit": "1/s", "better": "higher", "bound": 0.25,
        "meaning": "operations completed per wall second: grid cells "
                   "(cells_per_s) or admitted jobs (jobs_per_s)",
    },
    "latency_p50_ms": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "meaning": "median wall time a caller waits for one request: a whole "
                   "grid pass (grid workloads) or one fresh job, submit to "
                   "terminal event (fresh_p50_ms)",
    },
    "peak_rss_mb": {
        "unit": "MB", "better": "lower", "bound": 0.25,
        "meaning": "peak RSS of the benchmark process plus its largest "
                   "child (service process, fleet worker)",
    },
}

#: Printed beside the gated metrics; not gated (names as the workloads
#: define them, each with its sample count).
REPORTED = {
    "cells_per_s": ("cells/s", GRID_WORKLOADS),
    "jobs_per_s": ("jobs/s", (SERVICE,)),
    "job_p50_ms": ("ms", (SERVICE,)),
    "job_p90_ms": ("ms", (SERVICE,)),
    "fresh_p50_ms": ("ms", (SERVICE,)),
    "cached_p50_ms": ("ms", (SERVICE,)),
    "reject_p50_ms": ("ms", (SERVICE,)),
    "error_rate": ("ratio", tuple(WORKLOADS)),
}

_NOT_SERVICE = (SERVICE,)
_NOT_CAMPAIGN = (CAMPAIGN,)

#: (metric names, unit, better, moves, on, bypassed_by, exact).
#: ``exact`` counts repeat bit-for-bit for one seed on the serial
#: workloads; ``timing`` counts depend on scheduling.
_GROUPS: list[tuple[tuple[str, ...], str, str, tuple, tuple, tuple, str]] = [
    (("sim.events", "sim.processes"), "count", "lower",
     ("throughput_per_s",), (CHAOS, CAMPAIGN), _NOT_SERVICE, "exact"),
    (("sim.self_ns_per_event",), "ns", "lower",
     ("throughput_per_s",), (CHAOS, CAMPAIGN), _NOT_SERVICE, "timing"),
    (("simruntime.spawns",), "count", "lower",
     ("throughput_per_s",), (CAMPAIGN,), _NOT_SERVICE, "exact"),
    (("simruntime.commands",), "count", "lower",
     ("throughput_per_s",), (CAMPAIGN,), _NOT_SERVICE, "exact"),
    (("core.parse.lookups", "core.compile.lookups"), "count", "lower",
     ("throughput_per_s", "fresh_p50_ms"), (CAMPAIGN, SERVICE),
     ("service-mixed cached jobs",), "exact"),
    (("core.parse.misses", "core.compile.misses"), "count", "lower",
     ("throughput_per_s", "fresh_p50_ms"), (CAMPAIGN, SERVICE),
     ("service-mixed cached jobs",), "exact"),
    (("core.parse.hit_ratio", "core.compile.hit_ratio"), "ratio", "higher",
     ("throughput_per_s", "fresh_p50_ms"), (CAMPAIGN, SERVICE),
     ("service-mixed cached jobs",), "exact"),
    (("clients.scripts_built", "clients.scripts_distinct"), "count", "lower",
     ("core.parse.hit_ratio", "throughput_per_s"), (CAMPAIGN,),
     _NOT_SERVICE, "exact"),
    (("clients.reuse_ratio",), "ratio", "higher",
     ("core.parse.hit_ratio", "throughput_per_s"), (CAMPAIGN,),
     _NOT_SERVICE, "exact"),
    (("core.shell_log.records", "core.backoff.delays"), "count", "lower",
     ("throughput_per_s",), (CHAOS,), _NOT_SERVICE, "exact"),
    (("parallel.cache.gets", "parallel.cache.hits", "parallel.cache.puts"),
     "count", "lower", ("cached_p50_ms", "fresh_p50_ms", "throughput_per_s"),
     (SERVICE, DIST), _NOT_CAMPAIGN, "timing"),
    (("parallel.cache.hit_ratio",), "ratio", "higher",
     ("cached_p50_ms", "throughput_per_s"), (SERVICE, DIST), _NOT_CAMPAIGN,
     "timing"),
    (("parallel.cache.bytes_written",), "bytes", "lower",
     ("fresh_p50_ms", "throughput_per_s"), (SERVICE, DIST), _NOT_CAMPAIGN,
     "timing"),
    (("parallel.cache.get_ms_p50", "parallel.cache.put_ms_p50",
      "parallel.cache.key_ms_p50"), "ms", "lower",
     ("cached_p50_ms", "fresh_p50_ms", "throughput_per_s"), (SERVICE, DIST),
     _NOT_CAMPAIGN, "timing"),
    (("service.http.requests", "service.http.connects"), "count", "lower",
     ("latency_p50_ms", "jobs_per_s"), (SERVICE,), _NOT_CAMPAIGN, "timing"),
    (("service.http.rtt_ms_p50", "service.app.handle_ms_mean",
      "service.wire_wait_ms_mean"), "ms", "lower",
     ("latency_p50_ms", "jobs_per_s"), (SERVICE,), _NOT_CAMPAIGN, "timing"),
    (("service.sandbox.admit_ms_p50",), "ms", "lower",
     ("reject_p50_ms", "fresh_p50_ms"), (SERVICE,), _NOT_CAMPAIGN, "timing"),
    (("service.sandbox.rejections",), "count", "lower",
     ("reject_p50_ms",), (SERVICE,), _NOT_CAMPAIGN, "timing"),
    (("service.jobs.queue_wait_ms_p50", "service.jobs.run_ms_p50"), "ms",
     "lower", ("fresh_p50_ms", "job_p90_ms"), (SERVICE,), _NOT_CAMPAIGN,
     "timing"),
    (("service.jobs.close_s",), "s", "lower",
     ("setup_s",), (SERVICE,), _NOT_CAMPAIGN, "timing"),
    (("dist.fleet.spawn_s", "dist.drain_s", "dist.coordinator.close_s"), "s",
     "lower", ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.queue.claims", "dist.queue.acks"), "count", "lower",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.queue.stale", "dist.queue.requeues",
      "dist.coordinator.requests"), "count", "lower",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.queue.cells_per_claim",), "count", "higher",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.coordinator.handle_ms_p50",), "ms", "lower",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.wire.in_bytes", "dist.wire.out_bytes", "dist.wire.blob_raw_bytes",
      "dist.wire.blob_wire_bytes"), "bytes", "lower",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("dist.worker.busy_ratio",), "ratio", "higher",
     ("throughput_per_s",), (DIST,), _NOT_CAMPAIGN, "timing"),
    (("python.gc.pause_s",), "s", "lower",
     ("throughput_per_s", "peak_rss_mb"), tuple(WORKLOADS), (), "timing"),
    (("python.gc.collections",), "count", "lower",
     ("throughput_per_s", "peak_rss_mb"), tuple(WORKLOADS), (), "timing"),
    (("trace.overhead_ratio",), "ratio", "lower", (), tuple(WORKLOADS), (),
     "timing"),
    (("trace.wall_s", "trace.thread_s", "trace.unattributed_s"), "s", "lower",
     (), tuple(WORKLOADS), (), "timing"),
    (("trace.accounting_error",), "ratio", "lower", (), tuple(WORKLOADS), (),
     "timing"),
]

#: Per-layer self time: (layer, moves, on, bypassed_by).
_LAYER_TARGETS = {
    "sim": (("throughput_per_s",), (CHAOS, CAMPAIGN), _NOT_SERVICE),
    "simruntime": (("throughput_per_s",), (CAMPAIGN,), _NOT_SERVICE),
    "core.parse": (("throughput_per_s", "fresh_p50_ms"), (CAMPAIGN, SERVICE),
                   ("service-mixed cached jobs",)),
    "core.compile": (("throughput_per_s", "fresh_p50_ms"),
                     (CAMPAIGN, SERVICE), ("service-mixed cached jobs",)),
    "core.interpreter": (("throughput_per_s", "fresh_p50_ms"),
                         (CAMPAIGN, SERVICE), ("service-mixed cached jobs",)),
    "core.shell_log": (("throughput_per_s",), (CHAOS,), _NOT_SERVICE),
    "core.backoff": (("throughput_per_s",), (CHAOS,), _NOT_SERVICE),
    "core.other": (("throughput_per_s",), (CAMPAIGN,), _NOT_SERVICE),
    "clients": (("throughput_per_s",), (CAMPAIGN,), _NOT_SERVICE),
    "grid.condor": (("throughput_per_s",), (CAMPAIGN, CHAOS), _NOT_SERVICE),
    "grid.storage": (("throughput_per_s",), (CAMPAIGN, CHAOS), _NOT_SERVICE),
    "grid.httpserver": (("throughput_per_s",), (CAMPAIGN, CHAOS),
                        _NOT_SERVICE),
    "grid.archive": (("throughput_per_s",), (CHAOS,), _NOT_SERVICE),
    "grid.other": (("throughput_per_s",), (CAMPAIGN, CHAOS), _NOT_SERVICE),
    "faults": (("throughput_per_s",), (CHAOS,), _NOT_SERVICE),
    "experiments": (("throughput_per_s",), (CAMPAIGN, CHAOS), _NOT_SERVICE),
    "parallel.executor": (("throughput_per_s", "cached_p50_ms"),
                          (SERVICE, DIST), _NOT_CAMPAIGN),
    "parallel.cache": (("cached_p50_ms", "fresh_p50_ms", "throughput_per_s"),
                       (SERVICE, DIST), _NOT_CAMPAIGN),
    "parallel.transport": (("cached_p50_ms", "throughput_per_s"),
                           (SERVICE, DIST), _NOT_CAMPAIGN),
    "service.http": (("latency_p50_ms", "jobs_per_s"), (SERVICE,),
                     _NOT_CAMPAIGN),
    "service.app": (("latency_p50_ms", "jobs_per_s"), (SERVICE,),
                    _NOT_CAMPAIGN),
    "service.sandbox": (("reject_p50_ms", "fresh_p50_ms"), (SERVICE,),
                        _NOT_CAMPAIGN),
    "service.jobs": (("fresh_p50_ms", "job_p90_ms"), (SERVICE,),
                     _NOT_CAMPAIGN),
    "service.other": (("latency_p50_ms",), (SERVICE,), _NOT_CAMPAIGN),
    "lint": (("reject_p50_ms", "fresh_p50_ms"), (SERVICE,), _NOT_CAMPAIGN),
    "dist.queue": (("throughput_per_s",), (DIST,), _NOT_CAMPAIGN),
    "dist.coordinator": (("throughput_per_s",), (DIST,), _NOT_CAMPAIGN),
    "dist.wire": (("throughput_per_s",), (DIST,), _NOT_CAMPAIGN),
    "dist.worker": (("throughput_per_s",), (DIST,), _NOT_CAMPAIGN),
    "dist.other": (("throughput_per_s",), (DIST,), _NOT_CAMPAIGN),
    "obs": (("throughput_per_s", "peak_rss_mb"), tuple(WORKLOADS), ()),
    "repro.other": ((), tuple(WORKLOADS), ()),
    "bench": ((), tuple(WORKLOADS), ()),
}


def per_layer() -> dict[str, dict]:
    """Every per-layer metric in report order, with its description."""
    from layers import LAYERS

    out: dict[str, dict] = {}
    for layer in LAYERS:
        moves, on, bypassed = _LAYER_TARGETS[layer]
        for suffix, unit in (("self_s", "s"), ("share", "ratio")):
            out[f"{layer}.{suffix}"] = {
                "unit": unit, "better": "lower", "moves": list(moves),
                "on": list(on), "bypassed_by": list(bypassed),
                "count": "timing",
            }
    for names, unit, better, moves, on, bypassed, kind in _GROUPS:
        for name in names:
            out[name] = {"unit": unit, "better": better, "moves": list(moves),
                         "on": list(on), "bypassed_by": list(bypassed),
                         "count": kind}
    return out


def exact_counts() -> list[str]:
    return [name for name, row in per_layer().items()
            if row["count"] == "exact"]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": row["why"]}
                      for name, row in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": row["unit"],
                        "better": row["better"], "bound": row["bound"]}
                       for name, row in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": row["unit"],
                       "better": row["better"]}
                      for name, row in per_layer().items()],
    }


def spec_json() -> dict:
    return {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "reported": {name: {"unit": unit, "workloads": list(where)}
                     for name, (unit, where) in REPORTED.items()},
        "per_layer": per_layer(),
        "notes": [
            "Per-layer metrics come from a separate traced run "
            "(--trace 1) and are 0 where a layer does no work in the "
            "benchmark process.  dist-socket's cells run in forked "
            "workers, which are not profiled: its compute layers read 0 "
            "and its worker figures come from WorkerTelemetry "
            "(dist.worker.busy_ratio) and /queue/status.",
            "count=exact: identical for two traced runs at one seed "
            "(the fast test checks it on campaign-quick); count=timing: "
            "depends on scheduling (thread interleaving, adaptive "
            "chunking, lease timing).",
            "<layer>.self_s is wall time with stdlib/builtin time folded "
            "onto the calling layer, so waits made from a layer's code "
            "count as its own (socket reads under service.http, the job "
            "loop's select under service.jobs, the dist parent's queue "
            "wait under dist.queue); waits with no repo caller (idle "
            "server threads) land in trace.unattributed_s.  "
            "<layer>.share divides by the traced wall, or by profiled "
            "thread-seconds when several threads were profiled.",
            "chaos-smoke's ordering claim (ethernet >= aloha >= fixed) is "
            "required at the default seed 2003 only; at other seeds it is "
            "an experimental outcome (it fails at seeds 1, 2, 3, 6, 8 and "
            "9), printed as 'ordering violations', and the oracle checks "
            "that the scorecard reports exactly the violations its cells "
            "imply.",
        ],
    }


def _documents() -> dict[str, dict]:
    return {os.path.join(ROOT, "BENCHMARK.json"): benchmark_json(),
            os.path.join(HERE, "spec.json"): spec_json()}


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def stale_documents() -> list[str]:
    stale = []
    for path, doc in _documents().items():
        try:
            with open(path, encoding="utf-8") as handle:
                current = handle.read()
        except OSError:
            current = None
        if current != _render(doc):
            stale.append(path)
    return stale


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        for path, doc in _documents().items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_render(doc))
            print(f"wrote {path}")
        return 0
    if argv == ["--check"]:
        stale = stale_documents()
        for path in stale:
            print(f"stale: {path} (run manifest.py --write)")
        return 1 if stale else 0
    print("usage: python3 perfbench/manifest.py --write|--check",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
