"""The shared HTTP core: one connection pool, one retry discipline.

:class:`~repro.service.client.ServiceClient`, the
:mod:`repro.dist.worker` loop, and the coordinator's artifact client
all speak HTTP through :func:`http_request`.  It separates the two
failure planes cleanly:

* an HTTP *response* — any status, including 4xx/5xx — is returned as
  an :class:`HttpResponse`; interpreting the status is the caller's
  business;
* a *transport* failure (connection refused/reset, DNS, socket timeout)
  raises :class:`HttpTransportError` — after optional retries that
  sleep on a :class:`~repro.core.backoff.BackoffPolicy`, the same
  schedule type ftsh's ``try`` runs: the paper's argument is that a
  client facing a shared service should assume failures are transient
  and back off before retrying, and our own clients should behave no
  worse than the simulated ones.

Transport is a process-wide :class:`HttpConnectionPool` of persistent
keep-alive connections (both stdlib servers in this repo speak
HTTP/1.1 with Content-Length, so sockets are reusable).  A fresh TCP
connection per request was the dist plane's single biggest wire tax —
three handshakes per campaign cell.  A pooled connection the server
quietly closed while idle is detected on the next use and replayed
once on a fresh socket *without* consuming a retry; that replay can
re-execute a request the server already processed, which every caller
in this repo tolerates (the worker protocol is at-least-once by
design, service GETs are idempotent).

Retries are opt-in (``retries=0`` by default) because they are only
safe for idempotent requests; callers enable them for GETs and for
worker-protocol calls that are idempotent by design.
"""

from __future__ import annotations

import http.client
import os
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..core.backoff import BackoffPolicy

#: First backoff step, in seconds.
DEFAULT_BACKOFF = 0.05

#: Ceiling any single backoff sleep is capped at.
DEFAULT_BACKOFF_CAP = 2.0

#: Transport retries sleep ``DEFAULT_BACKOFF * 2^n`` seconds, capped at
#: ``DEFAULT_BACKOFF_CAP``: the paper's doubling schedule with the
#: jitter multiplier pinned to 1.
RETRY_BACKOFF = BackoffPolicy(base=DEFAULT_BACKOFF, factor=2.0,
                              ceiling=DEFAULT_BACKOFF_CAP,
                              jitter_low=1.0, jitter_high=1.0)

#: Idle sockets kept per (scheme, host, port) before extras are closed.
DEFAULT_MAX_IDLE = 4


class HttpTransportError(Exception):
    """The request never produced an HTTP response (even after retries)."""

    def __init__(self, url: str, reason: object, attempts: int = 1) -> None:
        self.url = url
        self.reason = reason
        self.attempts = attempts
        suffix = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(f"{url}: {reason}{suffix}")


@dataclass(frozen=True)
class HttpResponse:
    """A decoded-enough HTTP response: status + raw body."""

    status: int
    body: bytes


#: Transport-plane exceptions: the request died without an HTTP status.
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError,
                     TimeoutError, OSError)


class HttpConnectionPool:
    """Persistent keep-alive connections, keyed by (scheme, host, port).

    Connections are used exclusively while checked out (the pool is
    thread-safe; a connection is not), returned when the response was
    read cleanly, and closed when the server asked for it or anything
    went wrong.  A *reused* connection that fails before yielding a
    response is almost always a keep-alive the server reaped while it
    sat idle — that one replay on a fresh socket is free, every other
    failure follows the caller's retry budget.
    """

    def __init__(self, max_idle_per_host: int = DEFAULT_MAX_IDLE) -> None:
        self.max_idle_per_host = max_idle_per_host
        self._idle: dict[tuple[str, str, int],
                         list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        #: Lifetime counters: how often keep-alive actually paid off.
        self.created = 0
        self.reused = 0

    # ------------------------------------------------------------------
    def _checkout(self, key: tuple[str, str, int],
                  timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            stack = self._idle.get(key)
            while stack:
                conn = stack.pop()
                conn.timeout = timeout
                try:
                    if conn.sock is not None:
                        conn.sock.settimeout(timeout)
                except OSError:
                    # The parked socket died outright (closed fd); skip
                    # it — stale-but-open sockets are caught at request
                    # time instead and get the free replay.
                    conn.close()
                    continue
                self.reused += 1
                return conn, True
            self.created += 1
        scheme, host, port = key
        cls = (http.client.HTTPSConnection if scheme == "https"
               else http.client.HTTPConnection)
        return cls(host, port, timeout=timeout), False

    def _checkin(self, key: tuple[str, str, int],
                 conn: http.client.HTTPConnection) -> None:
        with self._lock:
            stack = self._idle.setdefault(key, [])
            if len(stack) < self.max_idle_per_host:
                stack.append(conn)
                return
        conn.close()

    def clear(self) -> None:
        """Close and forget every idle connection.

        Also registered as an after-fork hook: a forked worker must
        never share its parent's sockets — two processes writing one
        TCP stream is protocol corruption, not concurrency.
        """
        with self._lock:
            stacks, self._idle = list(self._idle.values()), {}
        for stack in stacks:
            for conn in stack:
                conn.close()

    # ------------------------------------------------------------------
    def request(
        self,
        url: str,
        method: str = "GET",
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: BackoffPolicy = RETRY_BACKOFF,
        sleep: Callable[[float], None] = time.sleep,
    ) -> HttpResponse:
        """One HTTP exchange over a pooled connection; see module doc."""
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise HttpTransportError(url, f"unsupported URL: {url!r}")
        port = parts.port or (443 if parts.scheme == "https" else 80)
        key = (parts.scheme, parts.hostname, port)
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query

        attempt = 0
        while True:
            conn, reused = self._checkout(key, timeout)
            try:
                if conn.sock is None:
                    # Connect eagerly so TCP_NODELAY is on before the
                    # first write: request headers and body go out as
                    # separate segments, and Nagle would park the second
                    # behind the server's delayed ACK (~40ms a request).
                    conn.connect()
                    conn.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.request(method, target, body=body,
                             headers=dict(headers or {}))
                response = conn.getresponse()
                payload = response.read()
            except _TRANSPORT_ERRORS as exc:
                conn.close()
                if reused:
                    # Stale keep-alive: replay on a fresh socket, free.
                    continue
                reason = getattr(exc, "reason", exc)
                if attempt >= retries:
                    raise HttpTransportError(
                        url, reason, attempts=attempt + 1) from None
                attempt += 1
                sleep(backoff.delay(attempt, random.random))
                continue
            if response.will_close:
                conn.close()
            else:
                self._checkin(key, conn)
            return HttpResponse(response.status, payload)


#: The process-wide pool every repro client shares by default.
SHARED_POOL = HttpConnectionPool()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=SHARED_POOL.clear)


def http_request(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float = 30.0,
    retries: int = 0,
    backoff: BackoffPolicy = RETRY_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
    pool: Optional[HttpConnectionPool] = None,
) -> HttpResponse:
    """One HTTP exchange; retries transient transport failures.

    Rides the shared keep-alive pool (or ``pool``), sleeping
    ``backoff.delay(n)`` before retry ``n`` on transport failures.
    HTTP error statuses are *returned*, never retried — a 500 is an
    answer, not an outage.  Non-HTTP schemes fall back to a one-shot
    urllib exchange with the same retry discipline.
    """
    scheme = urllib.parse.urlsplit(url).scheme
    if scheme in ("http", "https"):
        chosen = pool if pool is not None else SHARED_POOL
        return chosen.request(
            url, method=method, body=body, headers=headers,
            timeout=timeout, retries=retries, backoff=backoff, sleep=sleep)
    return _urllib_request(url, method, body, headers, timeout,
                           retries, backoff, sleep)


def _urllib_request(url, method, body, headers, timeout, retries,
                    backoff, sleep) -> HttpResponse:
    """The pre-pool path, kept for exotic schemes urllib understands."""
    attempt = 0
    while True:
        request = urllib.request.Request(
            url, data=body, method=method, headers=dict(headers or {}))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return HttpResponse(response.status, response.read())
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            exc.close()
            return HttpResponse(exc.code, payload)
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                OSError) as exc:
            reason = getattr(exc, "reason", exc)
            if attempt >= retries:
                raise HttpTransportError(
                    url, reason, attempts=attempt + 1) from None
            attempt += 1
            sleep(backoff.delay(attempt, random.random))
