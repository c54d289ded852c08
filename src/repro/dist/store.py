"""The shared artifact store: one cell computed anywhere, warm everywhere.

This promotes the content-addressed result cache
(:class:`repro.parallel.cache.ResultCache`) to a *publish/fetch*
interface that distributed workers write into.  The key recipe is the
cache's own (function + canonical params + seed + code fingerprint), so
artifacts published by a worker are indistinguishable from entries a
local ``run_cells`` wrote — a campaign run on a worker fleet leaves the
same warm cache behind as a serial run, and vice versa.

Three implementations, one protocol (``key_for`` / ``fetch`` /
``publish``):

* :class:`ArtifactStore` — the real thing, over a ``ResultCache``
  directory.  Corrupt or torn entries read as misses (the cache already
  guarantees atomic writes), so a crashed worker can never poison the
  store;
* :class:`MemoryArtifactStore` — a dict, for coordinators running
  without a cache directory (artifacts then live for one campaign);
* :class:`HttpArtifactStore` — the client side of the coordinator's
  ``/artifacts/{key}`` endpoints, for workers that do not share a
  filesystem with the store.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Optional

from ..parallel.cache import ResultCache
from ..parallel.executor import CellSpec


class ArtifactStore:
    """Publish/fetch over the content-addressed result cache.

    Counters distinguish *warm serves* (``fetch`` hits — some other
    worker, or an earlier campaign, already computed the cell) from
    *publishes* (this worker contributed a new artifact).
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.fetched = 0
        self.published = 0

    def key_for(self, spec: CellSpec) -> str:
        """The artifact key addressing ``spec``'s result."""
        return self.cache.key_for(spec.fn, spec.args, spec.kwargs)

    def fetch(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` if some worker already published ``key``."""
        hit, value = self.cache.get(key)
        if hit:
            self.fetched += 1
        return hit, value

    def publish(self, key: str, value: Any) -> None:
        """Make ``value`` visible to every other worker, atomically."""
        self.cache.put(key, value)
        self.published += 1

    # -- raw views, for serving artifacts over HTTP --------------------
    def fetch_bytes(self, key: str) -> Optional[bytes]:
        """The pickled artifact, or None; never raises on corruption."""
        hit, value = self.fetch(key)
        if not hit:
            return None
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def publish_bytes(self, key: str, blob: bytes) -> None:
        self.publish(key, pickle.loads(blob))

    def stats(self) -> dict[str, int]:
        return {"fetched": self.fetched, "published": self.published}


class MemoryArtifactStore:
    """A store with no disk behind it (coordinator without a cache).

    Artifacts survive for the coordinator's lifetime only — enough for
    workers to share results within one campaign, nothing warm across
    campaigns.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.fetched = 0
        self.published = 0

    def key_for(self, spec: CellSpec) -> str:
        # No cache, no fingerprint discipline to honor: any stable,
        # unique-per-cell name works for intra-campaign sharing.
        return f"mem/{spec.key}"

    def fetch(self, key: str) -> tuple[bool, Any]:
        blob = self.fetch_bytes(key)
        if blob is None:
            return False, None
        return True, pickle.loads(blob)

    def publish(self, key: str, value: Any) -> None:
        self.publish_bytes(
            key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def fetch_bytes(self, key: str) -> Optional[bytes]:
        with self._lock:
            blob = self._blobs.get(key)
        if blob is not None:
            self.fetched += 1
        return blob

    def publish_bytes(self, key: str, blob: bytes) -> None:
        pickle.loads(blob)  # reject undecodable uploads at the door
        with self._lock:
            self._blobs[key] = blob
        self.published += 1

    def stats(self) -> dict[str, int]:
        return {"fetched": self.fetched, "published": self.published}


class HttpArtifactStore:
    """Worker-side store client: the coordinator's ``/artifacts`` API.

    Keys are assigned by the coordinator (they ride on the task), so
    this class never computes one — ``key_for`` is deliberately absent.
    Transport failures degrade to misses/no-ops and are *counted*, not
    raised: a worker that cannot reach the store computes the cell
    itself and acks it ``source: "computed"`` — exactly the fallback
    the at-least-once queue expects; a store outage never fails a
    cell.

    Requests ride the shared keep-alive pool in
    :mod:`repro.service.http`, so store traffic reuses the worker's
    coordinator connection instead of opening a fresh socket per
    artifact.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        from ..service.http import HttpTransportError, http_request

        self._request = http_request
        self._transport_error = HttpTransportError
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.fetched = 0
        self.published = 0
        self.errors = 0

    def fetch(self, key: str) -> tuple[bool, Any]:
        try:
            response = self._request(
                f"{self.url}/artifacts/{key}", timeout=self.timeout,
                retries=2)
        except self._transport_error:
            self.errors += 1
            return False, None
        if response.status != 200:
            return False, None
        try:
            value = pickle.loads(response.body)
        except Exception:  # noqa: BLE001 - corrupt blob is a miss
            self.errors += 1
            return False, None
        self.fetched += 1
        return True, value

    def publish(self, key: str, value: Any) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            response = self._request(
                f"{self.url}/artifacts/{key}", method="PUT", body=blob,
                headers={"Content-Type": "application/octet-stream"},
                timeout=self.timeout)
        except self._transport_error:
            self.errors += 1
            return  # the ack still carries the result; nothing is lost
        if response.status not in (200, 204):
            self.errors += 1
            return
        self.published += 1

    def stats(self) -> dict[str, int]:
        return {"fetched": self.fetched, "published": self.published,
                "errors": self.errors}
