"""The repo benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload campaign-quick --seed 2003 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
nothing installed; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (and writes its spans to
``.perfbench/spans-<workload>.jsonl``).  Human-readable lines come
first, including the workload's own metric names (cells_per_s,
job_p90_ms, ...) with sample counts and the pinned environment; the
last stdout line is the JSON result.  Run from the root of a checkout:
it imports ``repro`` from ``src/`` and writes only under
``.perfbench/``.  Exit status 0 means the run completed (the JSON says
whether the outputs were correct); 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Environment knobs that change what is measured, and their pinned
#: values (None: removed).  REPRO_CACHE_DIR is set per run.
PINNED_ENV: dict[str, Optional[str]] = {
    "REPRO_NO_COMPILE": "0",
    "REPRO_DIST_BATCH": "1",
    "REPRO_DIST_BACKEND": "inprocess",
    "REPRO_DIST_FORK": None,
    "REPRO_OBS_PUSH": None,
}


def pin_environment(cache_dir: str) -> dict[str, str]:
    """Pin every knob that changes what is measured; returns the values."""
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    return {name: os.environ.get(name, "<unset>")
            for name in (*PINNED_ENV, "REPRO_CACHE_DIR")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal size, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layers import LayerMap
    from manifest import END_TO_END, WORKLOADS, per_layer
    from oracle import Oracle
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            tiny=args.tiny, workdir=workdir,
                            oracle=Oracle(args.seed, tiny=args.tiny))
    try:
        pinned = pin_environment(ctx.fresh_dir("default-cache"))
        print(f"workload {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"
              + (" tiny" if args.tiny else ""))
        print("env " + " ".join(f"{k}={v}" for k, v in pinned.items()))
        if args.trace:
            tracer = Tracer(LayerMap(os.path.join(SRC, "repro"), HERE))
            values = workloads.TRACED[args.workload](ctx, tracer)
            spans = os.path.join(OUT, f"spans-{args.workload}.jsonl")
            tracer.write_spans(spans)
            ctx.say(f"spans: {len(tracer.spans)} written to {spans}")
            units = per_layer()
            metrics = {name: {"value": values[name], "unit": row["unit"]}
                       for name, row in units.items()}
        else:
            measured = workloads.TIMED[args.workload](ctx)
            metrics = {name: {"value": measured[name][0],
                              "unit": END_TO_END[name]["unit"]}
                       for name in END_TO_END}
    except Exception:  # noqa: BLE001 - reported, and no result printed
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    oracle = ctx.oracle
    for line in ctx.lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {oracle.error_rate:.6g} ratio "
          f"({oracle.failed}/{oracle.attempted})")
    for problem in oracle.problems + oracle.run_problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": oracle.correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": metrics,
    }, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
