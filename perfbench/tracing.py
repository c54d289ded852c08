"""Outside-in tracing for the traced run: spans, counts and a profiler.

Nothing under ``src/`` changes.  :class:`Tracer` wraps public functions
and methods of the layers from here, for the duration of one traced
phase, and restores the originals afterwards:

* a *span* (name, start, end, parent span, thread) is kept in memory for
  every wrapped call; spans nest per thread, so the parent is the span
  that caused the call;
* an ``after`` hook may read a wrapped call's arguments and result to
  count work at the same boundary (cache hits, bytes written);
* a :mod:`cProfile` profiler runs in every thread (new threads get
  their own through :func:`threading.setprofile`), and
  :mod:`perfbench.layers` folds it into self time per layer.  Sim
  processes, SimDriver and the interpreter are generators resumed
  across layers, so only a profiler can split their time;
* ``gc.callbacks`` time every collector pause.

A forked child (a dist worker) drops the profiler: its spans and
profile would die with it anyway.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Optional

from layers import LayerMap, fold, merge_stats

#: ``after(args, kwargs, result, error, seconds)`` observes one call.
After = Callable[[tuple, dict, Any, Optional[BaseException], float], None]

#: ``before(args, kwargs)`` runs ahead of the call, outside its span.
Before = Callable[[tuple, dict], None]


class Tracer:
    """One traced phase: install, run the workload, uninstall, read."""

    def __init__(self, layer_map: LayerMap) -> None:
        self.layer_map = layer_map
        #: (span id, parent id or -1, name, start, end, thread id, error)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, list[Any]] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.wall_s = 0.0
        self._started = 0.0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._profiles: list[cProfile.Profile] = []
        self._main: Optional[cProfile.Profile] = None
        self._gc_started = 0.0
        self._active = False
        self._stats: Optional[dict] = None
        #: Boundaries asked for but absent from the code under test.
        self.missing: list[str] = []
        os.register_at_fork(after_in_child=self._forked)

    # ------------------------------------------------------------------
    # Recording helpers (callable from wrappers in any thread)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def note(self, name: str, value: Any) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [span[4] - span[3] for span in self.spans if span[2] == name]

    def errors(self, name: str) -> int:
        return sum(1 for span in self.spans
                   if span[2] == name and span[6] is not None)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, original: Any, name: str, after: Optional[After],
                 before: Optional[Before] = None) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            error: Optional[BaseException] = None
            result: Any = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    span_id, parent, name, start, end,
                    threading.get_ident(),
                    type(error).__name__ if error is not None else None))
                if after is not None:
                    after(args, kwargs, result, error, end - start)

        return wrapper

    def _present(self, owner: Any, attr: str, name: str) -> bool:
        """Whether the boundary exists; a refactor may have removed it,
        and then its metrics read 0 instead of the run failing."""
        found = owner is not None and attr in vars(owner)
        if not found:
            self.missing.append(name)
        return found

    def wrap_function(self, module: Any, attr: str, name: str,
                      after: Optional[After] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the binding, so every loaded
        ``repro`` module holding the same object is patched too.
        """
        if not self._present(module, attr, name):
            return
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, after)
        for extra in ("cache_info", "cache_clear"):
            if hasattr(original, extra):
                setattr(wrapper, extra, getattr(original, extra))
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro"
                                      or loaded_name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str,
                    after: Optional[After] = None,
                    before: Optional[Before] = None) -> None:
        if not self._present(cls, attr, name):
            return
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, after, before))

    def count_calls(self, cls: type, attr: str, name: str) -> None:
        """Count invocations only (for generator methods, which a span
        would time only until their first yield)."""
        if not self._present(cls, attr, name):
            return
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(name)
            return original(*args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _thread_hook(self, frame: Any, event: str, arg: Any) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile()
        self._profiles.append(profile)
        profile.enable()

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def _forked(self) -> None:
        if self._active:
            sys.setprofile(None)
            threading.setprofile(None)
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)

    def start(self) -> None:
        self._active = True
        self._started = time.perf_counter()
        gc.callbacks.append(self._gc_callback)
        threading.setprofile(self._thread_hook)
        self._main = cProfile.Profile()
        self._profiles.append(self._main)
        self._main.enable()

    def stop(self) -> None:
        """End the phase: profiler off, originals restored."""
        self._main.disable()
        self.wall_s = time.perf_counter() - self._started
        threading.setprofile(None)
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._active = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Merged per-function statistics over every profiled thread.

        Other threads' profilers are read without disabling them:
        they may sit in a dead or idle thread, and ``disable`` only
        acts on the calling thread.
        """
        if self._stats is None:
            tables = []
            for profile in self._profiles:
                profile.snapshot_stats()
                tables.append(profile.stats)
            self._stats = merge_stats(tables)
        return self._stats

    @property
    def thread_count(self) -> int:
        """Threads profiled during the phase, this one included."""
        return len(self._profiles)

    def thread_seconds(self) -> float:
        """Total profiled time: the sum of every function's self time."""
        return sum(row[2] for row in self.stats().values())

    def layer_seconds(self) -> dict[str, float]:
        return fold(self.stats(), self.layer_map)

    def main_thread_seconds(self) -> float:
        """Profiled time of the thread that ran the phase; with the
        profiler's own cost, it should cover the traced wall."""
        self.stats()
        return sum(row[2] for row in self._main.stats.values())

    def write_spans(self, path: str) -> None:
        """The phase's spans as JSON lines, times relative to its start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, thread, error in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": round(start - self._started, 9),
                    "end_s": round(end - self._started, 9),
                    "thread": thread, "error": error}, sort_keys=True) + "\n")
