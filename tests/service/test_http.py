"""The shared HTTP core: retry discipline, backoff shape, keep-alive
pooling, long-poll."""

import json
import random
import threading
import time

import pytest

from repro.core.backoff import BackoffPolicy
from repro.dist.worker import idle_backoff
from repro.obs import Observability
from repro.parallel.cache import ResultCache
from repro.service.app import MAX_EVENT_WAIT, ServiceApp, make_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import (
    DEFAULT_BACKOFF,
    DEFAULT_BACKOFF_CAP,
    RETRY_BACKOFF,
    HttpConnectionPool,
    HttpTransportError,
    http_request,
)
from repro.service.jobs import JobStore
from repro.service.sandbox import SandboxPolicy
from repro.service.schemas import TERMINAL, ScriptSubmission

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'


def wait_terminal(store, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = store.status(job_id)
        if status.state in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


def capped_doubling(attempt, base, cap):
    """Retry ``attempt`` (0-based): ``base * 2^attempt``, capped."""
    return min(base * (2 ** attempt), cap)


class TestBackoffDelay:
    """Transport retries: the un-jittered doubling schedule."""

    def test_doubles_from_base(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, ceiling=10.0,
                               jitter_low=1.0, jitter_high=1.0)
        assert [policy.delay(n, random.random) for n in range(1, 5)] \
            == [0.1, 0.2, 0.4, 0.8]

    def test_cap_is_a_ceiling(self):
        assert RETRY_BACKOFF.delay(31, random.random) == DEFAULT_BACKOFF_CAP
        assert RETRY_BACKOFF.delay(1, random.random) == DEFAULT_BACKOFF


class TestJitteredDelay:
    """The dist worker's idle naps: a uniform draw from a doubling,
    truncated window."""

    def test_draw_is_bounded_by_the_backoff_window(self):
        rng = random.Random(2003)
        policy = idle_backoff(0.1)
        for attempt in range(8):
            window = capped_doubling(attempt, 0.1, 0.4)
            for _ in range(50):
                draw = policy.delay(attempt + 1, rng.random)
                assert 0.0 <= draw <= window

    def test_windows_spread_not_collide(self):
        """Two workers with different rngs must not sleep in lockstep —
        that is the whole point of the jitter."""
        policy = idle_backoff(0.1)
        rng_a, rng_b = random.Random(1), random.Random(2)
        a = [policy.delay(4, rng_a.random) for _ in range(10)]
        b = [policy.delay(4, rng_b.random) for _ in range(10)]
        assert a != b

    @pytest.mark.parametrize("seed", [1, 7, 2003])
    def test_seeded_sequences_match_the_closed_forms(self, seed):
        """Jitter [0, 1) is ``U[0, 1) * min(base * 2^n, cap)`` and
        [1, 1] is ``min(base * 2^n, cap)``, draw for draw."""
        base, cap = 0.05, 2.0
        jittered = BackoffPolicy(base=base, factor=2.0, ceiling=cap,
                                 jitter_low=0.0, jitter_high=1.0)
        ours, reference = random.Random(seed), random.Random(seed)
        for attempt in range(12):
            assert jittered.delay(attempt + 1, ours.random) \
                == reference.random() * capped_doubling(attempt, base, cap)
            assert RETRY_BACKOFF.delay(attempt + 1, ours.random) \
                == capped_doubling(attempt, base, cap)
            reference.random()  # the [1, 1] draw is taken and unused


class TestConnectionPool:
    def test_keep_alive_reuses_the_socket(self, service):
        url, _ = service
        pool = HttpConnectionPool()
        for _ in range(5):
            assert pool.request(url + "/healthz").status == 200
        assert pool.created == 1
        assert pool.reused == 4

    def test_stale_idle_connection_replays_free(self, service):
        """A keep-alive the server reaped mid-idle costs one transparent
        replay, never a retry from the caller's budget."""
        import socket as socket_module

        url, _ = service
        pool = HttpConnectionPool()
        assert pool.request(url + "/healthz").status == 200
        # Sabotage the parked connection the way an idle timeout would:
        # the fd stays open, but the next exchange on it fails.
        ((key, [conn]),) = list(pool._idle.items())
        conn.sock.shutdown(socket_module.SHUT_RDWR)
        sleeps = []
        response = pool.request(url + "/healthz", retries=0,
                                sleep=sleeps.append)
        assert response.status == 200
        assert sleeps == []  # the replay consumed no retry budget
        assert pool.created == 2

    def test_dead_idle_socket_is_discarded_at_checkout(self, service):
        """A parked connection whose socket object was closed outright
        is skipped for a fresh one, not crashed on."""
        url, _ = service
        pool = HttpConnectionPool()
        assert pool.request(url + "/healthz").status == 200
        ((key, [conn]),) = list(pool._idle.items())
        conn.sock.close()
        assert pool.request(url + "/healthz").status == 200
        assert pool.created == 2
        assert pool.reused == 0

    def test_clear_drops_idle_connections(self, service):
        url, _ = service
        pool = HttpConnectionPool()
        pool.request(url + "/healthz")
        pool.clear()
        pool.request(url + "/healthz")
        assert pool.created == 2

    def test_unsupported_scheme_rejected(self):
        pool = HttpConnectionPool()
        with pytest.raises(HttpTransportError):
            pool.request("ftp://example.org/x")


class TestHttpRequestRetries:
    """Transport failures retry with backoff; HTTP statuses never do."""

    def test_retries_until_exhausted_with_backoff(self):
        sleeps = []
        with pytest.raises(HttpTransportError) as exc:
            http_request("http://127.0.0.1:9/x", timeout=0.2, retries=3,
                         sleep=sleeps.append)
        assert exc.value.attempts == 4
        assert sleeps == [capped_doubling(n, DEFAULT_BACKOFF,
                                          DEFAULT_BACKOFF_CAP)
                          for n in range(3)]

    def test_no_retries_by_default(self):
        sleeps = []
        with pytest.raises(HttpTransportError) as exc:
            http_request("http://127.0.0.1:9/x", timeout=0.2,
                         sleep=sleeps.append)
        assert (exc.value.attempts, sleeps) == (1, [])

    def test_http_error_statuses_are_returned_not_retried(self, service):
        url, _ = service
        sleeps = []
        response = http_request(f"{url}/no/such/route", retries=3,
                                sleep=sleeps.append)
        assert response.status == 404
        assert sleeps == []  # a 404 is an answer, not an outage


@pytest.fixture
def service(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=cache,
                  workers=2, obs=Observability()) as store:
        server = make_server(store, port=0)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            yield f"http://{host}:{port}", store
        finally:
            server.shutdown()
            server.server_close()


class TestClientRetries:
    def test_only_gets_ride_the_retry_loop(self, service, monkeypatch):
        url, _ = service
        client = ServiceClient(url=url, retries=2)
        real, calls = http_request, []

        def spying(request_url, **kwargs):
            calls.append(kwargs.get("retries", 0))
            return real(request_url, **kwargs)

        monkeypatch.setattr("repro.service.client.http_request", spying)
        client.healthz()
        client.submit_script(GOOD)
        assert calls == [2, 0], "GET retries; POST must not"

    def test_unreachable_is_service_error_status_zero(self):
        client = ServiceClient(url="http://127.0.0.1:9", timeout=0.3,
                               retries=1)
        with pytest.raises(ServiceError) as exc:
            client.healthz()
        assert exc.value.status == 0


class TestEventsLongPoll:
    def test_wait_returns_early_when_an_event_lands(self, service):
        url, store = service
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD)
        client.wait(status.job_id, timeout=30.0)
        events = client.events(status.job_id)
        last = events[-1].seq
        # Everything already happened: a long poll past the end must
        # time out empty, not hang for the full window.
        started = time.monotonic()
        assert client.events(status.job_id, since=last, wait=0.3) == []
        assert time.monotonic() - started < 5.0

    def test_waiter_wakes_when_an_event_lands(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        with JobStore(policy=SandboxPolicy(wall_budget=60.0), cache=cache,
                      workers=1, obs=Observability()) as store:
            job = store.submit(ScriptSubmission(script=GOOD,
                                                timeout=600.0))
            wait_terminal(store, job.job_id)
            last = store.events(job.job_id)[-1].seq
            woke = []

            def follower():
                woke.extend(store.events(job.job_id, since=last,
                                         wait=30.0))

            thread = threading.Thread(target=follower)
            thread.start()
            time.sleep(0.1)
            # Resubmitting the same script re-queues the same job id,
            # which appends the event the follower is blocked on.
            resubmitted = store.submit(
                ScriptSubmission(script=GOOD, timeout=600.0))
            assert resubmitted.job_id == job.job_id
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "long-poll never woke"
            assert woke and woke[0].seq > last

    def test_wait_param_validated_and_capped(self, service):
        url, store = service
        client = ServiceClient(url=url)
        status = client.submit_script(GOOD)
        app = ServiceApp(store)
        code, _, body = app.handle(
            "GET", f"/jobs/{status.job_id}/events?wait=banana")
        assert code == 400
        assert json.loads(body)["error"]["code"] == "schema"
        code, _, _ = app.handle(
            "GET", f"/jobs/{status.job_id}/events?wait=-1")
        assert code == 400
        # An absurd wait is clamped to MAX_EVENT_WAIT, not honored.
        started = time.monotonic()
        code, _, _ = app.handle(
            "GET",
            f"/jobs/{status.job_id}/events?since=10000&wait=0.2")
        assert code == 200
        assert time.monotonic() - started < MAX_EVENT_WAIT
