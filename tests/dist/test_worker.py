"""The worker's per-cell path: store guards, settle verbs, and the
transport retries that keep one dropped connection from killing a
worker.

``run_task`` is exercised against stub clients/stores so every edge is
deterministic; the settle-retry tests drive ``worker_loop`` against a
live coordinator with one injected transport failure.
"""

import http.client

import repro.service.http as http_module
from repro.dist.coordinator import CoordinatorServer
from repro.dist.queue import DONE, PENDING, TaskQueue
from repro.dist.store import MemoryArtifactStore
from repro.dist.wire import encode_cell
from repro.dist.worker import run_task, worker_loop
from repro.parallel.executor import CellSpec
from repro.service.http import HttpConnectionPool, HttpTransportError


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"cell exploded on {x}")


class StubClient:
    """Records the settle calls run_task makes."""

    lease = 30.0

    def __init__(self):
        self.acked = []
        self.nacked = []
        self.heartbeats = 0

    def heartbeat(self):
        self.heartbeats += 1

    def ack(self, task_id, result, source):
        self.acked.append((task_id, result, source))

    def nack(self, task_id, error, requeue=True):
        self.nacked.append((task_id, error, requeue))


class StubStore:
    """A store whose fetch/publish behaviour is scripted per test."""

    def __init__(self, contents=None, fetch_raises=None,
                 publish_raises=None):
        self.contents = dict(contents or {})
        self.fetch_raises = fetch_raises
        self.publish_raises = publish_raises
        self.published = []

    def fetch(self, key):
        if self.fetch_raises is not None:
            raise self.fetch_raises
        if key in self.contents:
            return True, self.contents[key]
        return False, None

    def publish(self, key, value):
        if self.publish_raises is not None:
            raise self.publish_raises
        self.published.append((key, value))


def task_doc(task_id, spec, artifact=None):
    return {"task_id": task_id, "cell": encode_cell(spec),
            "artifact": artifact}


class TestRunTask:
    def test_each_cell_settles_on_its_own_terms(self):
        client = StubClient()
        store = StubStore(contents={"art-hit": 99})
        docs = [
            task_doc("t1", CellSpec(key="hit", fn=square, args=(2,)),
                     artifact="art-hit"),
            task_doc("t2", CellSpec(key="compute", fn=square, args=(3,)),
                     artifact="art-miss"),
            task_doc("t3", CellSpec(key="crash", fn=boom, args=(1,))),
            {"task_id": "t4", "cell": {"key": "bad"}},  # undecodable
        ]
        sources = [run_task(client, store, doc) for doc in docs]
        assert sources == ["store", "computed", "error", "error"]
        assert client.acked == [("t1", 99, "store"), ("t2", 9, "computed")]
        # The crash retries; the wire-bad doc is terminal.
        assert [(t, r) for t, _e, r in client.nacked] \
            == [("t3", True), ("t4", False)]
        assert store.published == [("art-miss", 9)]

    def test_store_transport_failure_degrades_to_computed(self):
        """An HttpTransportError from the store must not fail the cell:
        it still settles, as ``computed``."""
        client = StubClient()
        store = StubStore(
            fetch_raises=HttpTransportError("http://dead:9", "refused"),
            publish_raises=HttpTransportError("http://dead:9", "refused"))
        doc = task_doc("t1", CellSpec(key="a", fn=square, args=(4,)),
                       artifact="art-a")
        assert run_task(client, store, doc) == "computed"
        assert client.acked == [("t1", 16, "computed")]
        assert client.nacked == []

    def test_uncacheable_cells_skip_the_store_entirely(self):
        client = StubClient()
        store = StubStore(fetch_raises=AssertionError("must not be called"))
        spec = CellSpec(key="nc", fn=square, args=(6,), cacheable=False)
        assert run_task(client, store,
                        task_doc("t1", spec, artifact="art")) == "computed"
        assert client.acked == [("t1", 36, "computed")]


class TestSettleRetries:
    """One transport failure on an ack or nack costs a retry, not the
    worker: the settle is re-sent, and a re-sent settle that lands on
    an already-settled lease is a 409 the worker drops."""

    def run_one_task(self, monkeypatch, spec, verb):
        # A pool that parks no sockets: every exchange dials fresh, so
        # the injected failure is not absorbed by the free replay a
        # stale keep-alive gets.
        monkeypatch.setattr(http_module, "SHARED_POOL",
                            HttpConnectionPool(max_idle_per_host=0))
        real_request = http.client.HTTPConnection.request
        failed = []

        def flaky(conn, method, url, *args, **kwargs):
            if url.endswith("/" + verb) and not failed:
                failed.append(url)
                raise ConnectionResetError("connection reset by peer")
            return real_request(conn, method, url, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", flaky)
        queue = TaskQueue(lease=30.0)
        task = queue.submit(encode_cell(spec), key=spec.key)
        with CoordinatorServer(queue, MemoryArtifactStore()) as url:
            handled = worker_loop(url, "w0", max_tasks=1)
        assert failed, f"no {verb} request was sent"
        assert handled == 1
        return task

    def test_ack_survives_one_transport_failure(self, monkeypatch):
        task = self.run_one_task(
            monkeypatch, CellSpec(key="sq", fn=square, args=(7,)), "ack")
        assert (task.state, task.result) == (DONE, 49)

    def test_nack_survives_one_transport_failure(self, monkeypatch):
        task = self.run_one_task(
            monkeypatch, CellSpec(key="crash", fn=boom, args=(3,)), "nack")
        assert task.state == PENDING
        assert "cell exploded on 3" in task.error

