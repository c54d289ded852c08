"""``repro.dist`` — the work-queue executor behind ``run_cells``.

The subsystem in one sentence: campaigns submit cells to a
:class:`~repro.dist.queue.TaskQueue` (claim/ack/nack with lease
timeouts, at-least-once delivery), workers drain it through one of
three interchangeable backends, and results flow through a shared
artifact store so a cell computed anywhere is a warm hit everywhere.

Select a backend per call (``run_cells(..., backend="socket")``), per
process (``REPRO_DIST_BACKEND=work-stealing``), or per campaign CLI
(``--backend`` on runall/chaos/variance and the service plane).  The
scorecard contract holds across all of them: cells are pure functions
of their specs, so every backend produces byte-identical results.

See ``docs/DISTRIBUTED.md`` for the full tour.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence

from ..parallel.executor import CellSpec, Progress

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_DIST_BACKEND"

#: The default backend: today's serial/process-pool path.
DEFAULT_BACKEND = "inprocess"

#: Canonical backend names -> accepted aliases.
BACKENDS: dict[str, tuple[str, ...]] = {
    "inprocess": ("inprocess", "in-process", "local"),
    "work-stealing": ("work-stealing", "workstealing", "steal"),
    "socket": ("socket", "http"),
}

_ALIASES = {alias: name
            for name, aliases in BACKENDS.items()
            for alias in aliases}


def backend_names() -> list[str]:
    """The canonical backend names, for CLI ``choices=``."""
    return list(BACKENDS)


def resolve_backend(name: Optional[str] = None) -> str:
    """Normalize a backend choice: arg, else $REPRO_DIST_BACKEND, else
    the in-process default.  Unknown names raise ``ValueError``."""
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    canonical = _ALIASES.get(name.strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown dist backend {name!r}; expected one of "
            f"{sorted(_ALIASES)}")
    return canonical


def run_dist_cells(
    backend: str,
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache=None,
    progress: Optional[Progress] = None,
    cancel=None,
) -> list[Any]:
    """Execute ``cells`` on a non-default backend; same contract as
    :func:`repro.parallel.run_cells` (which is the only caller —
    campaigns never import this directly).

    The parent still does the cache precheck, so warm cells short-
    circuit without touching the backend; pending cells ship with their
    artifact key and the *workers* publish results into the shared
    store (no parent-side ``cache.put`` — by the time a result is
    acked, the store already has it).
    """
    from . import backends

    name = resolve_backend(backend)
    say = progress if progress is not None else (lambda _key, _status: None)
    results: list[Any] = [None] * len(cells)
    items: list[tuple[int, CellSpec, Optional[str]]] = []
    for index, spec in enumerate(cells):
        artifact = None
        if cache is not None and spec.cacheable:
            artifact = cache.key_for(spec.fn, spec.args, spec.kwargs)
            hit, value = cache.get(artifact)
            if hit:
                say(spec.key, "hit")
                results[index] = value
                continue
        items.append((index, spec, artifact))

    if not items:
        return results
    if name == "inprocess":
        raise ValueError(
            "run_dist_cells is for non-default backends; run_cells "
            "handles 'inprocess' itself")
    if name == "work-stealing":
        computed = backends.run_work_stealing(
            items, jobs, cache, say, cancel)
    else:
        computed = backends.run_socket(items, jobs, cache, say, cancel)
    for index, value in computed.items():
        results[index] = value
    return results


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "backend_names",
    "resolve_backend",
    "run_dist_cells",
]
