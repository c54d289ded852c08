"""Which repo module is which layer, and how profiler time folds onto layers.

A *layer* is a group of ``repro`` modules (see ``RULES``).  The traced
run profiles every thread with :mod:`cProfile`; :func:`fold` turns the
per-function statistics into per-layer self time:

* a function inside ``repro`` is charged to its own layer;
* a function of this benchmark is charged to ``bench``;
* a stdlib or builtin function is charged to the layer that called it.
  cProfile records how much of a function's self time accrued under
  each direct caller, so that split is exact.  When the caller is
  itself stdlib, its share is spread over *its* callers in proportion
  to the cumulative time spent under each, and so on up the call graph.
  Time that reaches no repo or benchmark frame (thread bootstraps, idle
  server loops) is ``unattributed``.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: (path prefix relative to the ``repro`` package, layer); first match wins.
RULES: tuple[tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("simruntime/", "simruntime"),
    ("core/lexer.py", "core.parse"),
    ("core/parser.py", "core.parse"),
    ("core/tokens.py", "core.parse"),
    ("core/compile.py", "core.compile"),
    ("core/interpreter.py", "core.interpreter"),
    ("core/shell_log.py", "core.shell_log"),
    ("core/backoff.py", "core.backoff"),
    ("core/", "core.other"),
    ("clients/", "clients"),
    ("grid/condor.py", "grid.condor"),
    ("grid/storage.py", "grid.storage"),
    ("grid/httpserver.py", "grid.httpserver"),
    ("grid/archive.py", "grid.archive"),
    ("grid/", "grid.other"),
    ("faults/", "faults"),
    ("experiments/", "experiments"),
    ("parallel/cache.py", "parallel.cache"),
    ("parallel/transport.py", "parallel.transport"),
    ("parallel/", "parallel.executor"),
    ("service/http.py", "service.http"),
    ("service/app.py", "service.app"),
    ("service/sandbox.py", "service.sandbox"),
    ("service/jobs.py", "service.jobs"),
    ("service/", "service.other"),
    ("lint/", "lint"),
    ("dist/queue.py", "dist.queue"),
    ("dist/coordinator.py", "dist.coordinator"),
    ("dist/wire.py", "dist.wire"),
    ("dist/worker.py", "dist.worker"),
    ("dist/", "dist.other"),
    ("obs/", "obs"),
    ("", "repro.other"),
)

#: Every layer, in report order; ``bench`` is this benchmark's own code.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    layer for _prefix, layer in RULES)) + ("bench",)

UNATTRIBUTED = "unattributed"

#: cProfile's ``pstats``-style key: (filename, first line, function name).
FuncKey = tuple[str, int, str]


class LayerMap:
    """Maps source filenames to layers for one checkout."""

    def __init__(self, repro_root: str, bench_root: str) -> None:
        self.repro_root = os.path.abspath(repro_root) + os.sep
        self.bench_root = os.path.abspath(bench_root) + os.sep
        self._memo: dict[str, Optional[str]] = {}

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer owning ``filename``; None for stdlib and builtins."""
        found = self._memo.get(filename, "?")
        if found != "?":
            return found
        layer: Optional[str] = None
        path = os.path.abspath(filename) if filename != "~" else filename
        if path.startswith(self.repro_root):
            relative = path[len(self.repro_root):].replace(os.sep, "/")
            layer = next(name for prefix, name in RULES
                         if relative.startswith(prefix))
        elif path.startswith(self.bench_root):
            layer = "bench"
        self._memo[filename] = layer
        return layer


def merge_stats(tables: list[dict[FuncKey, tuple]]) -> dict[FuncKey, tuple]:
    """Sum several ``Profile.stats`` tables (one per profiled thread)."""
    merged: dict[FuncKey, list[Any]] = {}
    for table in tables:
        for key, (cc, nc, tt, ct, callers) in table.items():
            row = merged.setdefault(key, [0, 0, 0.0, 0.0, {}])
            row[0] += cc
            row[1] += nc
            row[2] += tt
            row[3] += ct
            for caller, values in callers.items():
                have = row[4].get(caller)
                row[4][caller] = (values if have is None else
                                  tuple(a + b for a, b in zip(have, values)))
    return {key: tuple(row) for key, row in merged.items()}


def fold(stats: dict[FuncKey, tuple], layers: LayerMap) -> dict[str, float]:
    """Self seconds per layer (plus ``unattributed``) from merged stats.

    The values sum to the total profiled time of ``stats`` up to float
    rounding: every second of self time lands in exactly one bucket.
    """
    shares: dict[FuncKey, dict[str, float]] = {}

    def share_of(key: FuncKey, visiting: set[FuncKey]) -> dict[str, float]:
        """How a stdlib function's time divides over layers (sums to 1)."""
        if key in shares:
            return shares[key]
        row = stats.get(key)
        callers = row[4] if row is not None else {}
        total = sum(values[3] for values in callers.values())
        out: dict[str, float] = {}
        if total <= 0.0:
            out[UNATTRIBUTED] = 1.0
        else:
            visiting.add(key)
            for caller, values in callers.items():
                weight = values[3] / total
                if weight <= 0.0:
                    continue
                owner = layers.layer_of(caller[0])
                if owner is not None:
                    out[owner] = out.get(owner, 0.0) + weight
                elif caller in visiting:
                    out[UNATTRIBUTED] = out.get(UNATTRIBUTED, 0.0) + weight
                else:
                    for name, part in share_of(caller, visiting).items():
                        out[name] = out.get(name, 0.0) + weight * part
            visiting.discard(key)
        shares[key] = out
        return out

    buckets: dict[str, float] = {}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        owner = layers.layer_of(key[0])
        if owner is not None:
            buckets[owner] = buckets.get(owner, 0.0) + tt
            continue
        charged = 0.0
        for caller, values in callers.items():
            part = values[2]
            charged += part
            caller_owner = layers.layer_of(caller[0])
            if caller_owner is not None:
                buckets[caller_owner] = buckets.get(caller_owner, 0.0) + part
            else:
                for name, weight in share_of(caller, set()).items():
                    buckets[name] = buckets.get(name, 0.0) + part * weight
        # Self time recorded with no caller entry (a thread's first frame).
        rest = tt - charged
        if rest > 0.0:
            buckets[UNATTRIBUTED] = buckets.get(UNATTRIBUTED, 0.0) + rest
    return buckets


def call_count(stats: dict[FuncKey, tuple], fn: Any) -> int:
    """Exact calls of a plain (non-generator) Python function."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return 0
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return int(row[1]) if row is not None else 0
