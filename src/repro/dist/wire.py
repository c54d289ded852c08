"""Moving cells and results between coordinator and workers.

The socket worker protocol ships a :class:`~repro.parallel.executor.
CellSpec` as a JSON task document: the cell function travels by name
(``module:qualname``, resolved by import on the worker — the same rule
the process-pool path already imposes, since pickling a function also
ships only its name), and the arguments/results travel as base64-
encoded pickles.  Pickle is the repo's canonical result transport (the
cache stores the same pickles), which is exactly what makes a worker's
ack byte-identical to a local computation.

A pickle at or past :data:`COMPRESS_MIN` bytes ships zlib-compressed
when that actually helps, marked by a ``z:`` prefix on the base64 text;
plain blobs stay prefix-free.

Trust model: pickle execution means the coordinator and its workers
must trust each other.  The coordinator binds loopback by default and
the docs say so loudly; this layer adds no authentication.
"""

from __future__ import annotations

import base64
import importlib
import io
import pickle
import sys
import zlib
from typing import Any, Callable, Mapping, Optional

from ..parallel.executor import CellSpec

#: Pickles at or past this many bytes are candidates for compression.
COMPRESS_MIN = 512


class WireError(Exception):
    """A task or result document that does not decode."""


def _main_alias() -> Optional[str]:
    """The importable name behind ``__main__``, when there is one.

    ``python -m repro.experiments.chaos`` defines the campaign module's
    classes and functions in ``__main__`` — a module name that means
    something *different* inside a worker process.  runpy records the
    real name on ``__main__.__spec__``; pickling/naming by that makes
    the reference portable.  (``multiprocessing`` does this same fixup
    for its spawned children; the socket wire has to do it itself.)
    """
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    name = getattr(spec, "name", None)
    if name and name not in ("__main__", "__mp_main__"):
        return name
    return None


def _lookup(module_name: str, qualname: str) -> Any:
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _import_attr(module_name: str, qualname: str) -> Any:
    """Unpickle hook for classes re-homed off ``__main__``."""
    obj = _lookup(module_name, qualname)
    if obj is None:
        raise WireError(f"no {qualname!r} in module {module_name!r}")
    return obj


class _Pickler(pickle.Pickler):
    """Pickles ``__main__``-defined classes by their importable name."""

    def reducer_override(self, obj):
        if (isinstance(obj, type)
                and obj.__module__ in ("__main__", "__mp_main__")):
            real = _main_alias()
            # The importable module may be a *second copy* of __main__
            # (runpy re-executes it), so the twin is an equivalent
            # class, not the identical object — name+kind is the test.
            if real is not None:
                twin = _lookup(real, obj.__qualname__)
                if isinstance(twin, type):
                    return (_import_attr, (real, obj.__qualname__))
        return NotImplemented


def encode_blob(value: Any) -> str:
    """Pickle + base64: JSON-safe transport for arbitrary cell data.

    Pickles at or past :data:`COMPRESS_MIN` bytes go through zlib first
    when that is a net win, marked with a ``z:`` prefix (base64 never
    contains ``:``, so the prefix is unambiguous).
    """
    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    raw = buffer.getvalue()
    if len(raw) >= COMPRESS_MIN:
        packed = zlib.compress(raw, 6)
        if len(packed) < len(raw):
            return "z:" + base64.b64encode(packed).decode("ascii")
    return base64.b64encode(raw).decode("ascii")


def decode_blob(text: str) -> Any:
    return decode_blob_ex(text)[0]


def decode_blob_ex(text: str) -> tuple[Any, int, int]:
    """Decode a blob and report ``(value, wire_bytes, raw_bytes)``.

    ``wire_bytes`` is what travelled (the encoded text), ``raw_bytes``
    the decompressed pickle — the pair the coordinator's bytes-on-wire
    metrics are built from.
    """
    try:
        if text.startswith("z:"):
            raw = zlib.decompress(base64.b64decode(text[2:].encode("ascii")))
        else:
            raw = base64.b64decode(text.encode("ascii"))
        return pickle.loads(raw), len(text), len(raw)
    except Exception as exc:  # noqa: BLE001 - decode boundary
        raise WireError(f"undecodable payload: {type(exc).__name__}: {exc}")


def fn_name(fn: Callable[..., Any]) -> str:
    module = fn.__module__
    if module in ("__main__", "__mp_main__"):
        real = _main_alias()
        if real is not None and callable(_lookup(real, fn.__qualname__)):
            module = real
    return f"{module}:{fn.__qualname__}"


def resolve_fn(name: str) -> Callable[..., Any]:
    """Import ``module:qualname`` back into a callable.

    Only module-level callables resolve — the same restriction
    :func:`~repro.parallel.run_cells` documents for its process pool.
    """
    module_name, _, qualname = name.partition(":")
    if not module_name or not qualname:
        raise WireError(f"bad function name: {name!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise WireError(f"cannot import {module_name!r}: {exc}")
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise WireError(f"no {qualname!r} in module {module_name!r}")
    if not callable(obj):
        raise WireError(f"{name!r} is not callable")
    return obj


def encode_cell(spec: CellSpec) -> dict[str, Any]:
    """The JSON task payload a claim response carries."""
    return {
        "key": spec.key,
        "fn": fn_name(spec.fn),
        "blob": encode_blob((tuple(spec.args), dict(spec.kwargs))),
        "cacheable": spec.cacheable,
    }


def decode_cell(doc: Mapping[str, Any]) -> CellSpec:
    """Rebuild the cell a worker should execute."""
    if not isinstance(doc, Mapping):
        raise WireError("task payload must be an object")
    for field in ("key", "fn", "blob"):
        if not isinstance(doc.get(field), str):
            raise WireError(f"task payload needs string field {field!r}")
    args, kwargs = decode_blob(doc["blob"])
    return CellSpec(
        key=doc["key"],
        fn=resolve_fn(doc["fn"]),
        args=tuple(args),
        kwargs=dict(kwargs),
        cacheable=bool(doc.get("cacheable", True)),
    )
