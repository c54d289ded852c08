"""The coordinator HTTP app: worker protocol over handle(), no socket."""

import json
import time

from repro.dist.coordinator import CoordinatorApp, CoordinatorServer
from repro.dist.queue import TaskQueue
from repro.dist.store import MemoryArtifactStore
from repro.dist.wire import encode_blob, encode_cell
from repro.parallel.executor import CellSpec
from repro.service.http import http_request


def square(x):
    return x * x


def make_app(lease=10.0):
    queue = TaskQueue(lease=lease)
    app = CoordinatorApp(queue, MemoryArtifactStore())
    return app, queue


def post(app, path, doc):
    status, _, payload = app.handle(
        "POST", path, json.dumps(doc).encode())
    body = json.loads(payload.decode()) if payload else None
    return status, body


class TestClaimCycle:
    def test_idle_queue_is_204(self):
        app, _ = make_app()
        status, _ = post(app, "/queue/claim", {"worker": "w0"})
        assert status == 204

    def test_drained_queue_is_410(self):
        app, queue = make_app()
        queue.drain()
        status, body = post(app, "/queue/claim", {"worker": "w0"})
        assert status == 410
        assert body["error"]["code"] == "drained"

    def test_claim_ack_roundtrip(self):
        app, queue = make_app()
        spec = CellSpec(key="t/sq/5", fn=square, args=(5,))
        task = queue.submit(encode_cell(spec), key=spec.key)
        status, doc = post(app, "/queue/claim", {"worker": "w0"})
        assert status == 200
        assert doc["task_id"] == task.task_id
        assert doc["cell"]["key"] == "t/sq/5"
        status, _ = post(app, f"/queue/tasks/{task.task_id}/ack",
                         {"worker": "w0", "result": encode_blob(25),
                          "source": "computed"})
        assert status == 200
        assert task.result == 25
        assert queue.finished()

    def test_stale_ack_is_409(self):
        """At-least-once: a reaped worker's late ack is dropped."""
        app, queue = make_app()
        task = queue.submit({}, key="a")
        post(app, "/queue/claim", {"worker": "w0"})
        queue.nack(task.task_id, "w0", "retry me")  # back to pending
        status, body = post(app, f"/queue/tasks/{task.task_id}/ack",
                            {"worker": "w0", "result": encode_blob(1)})
        assert status == 409
        assert body["error"]["code"] == "queue"

    def test_nack_requeue_false_fails_task(self):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        post(app, "/queue/claim", {"worker": "w0"})
        status, body = post(app, f"/queue/tasks/{task.task_id}/nack",
                            {"worker": "w0", "error": "undecodable",
                             "requeue": False})
        assert status == 200
        assert body["state"] == "failed"

    def test_undecodable_result_is_400_and_keeps_the_lease(self):
        app, queue = make_app()
        task = queue.submit({}, key="a")
        post(app, "/queue/claim", {"worker": "w0"})
        status, body = post(app, f"/queue/tasks/{task.task_id}/ack",
                            {"worker": "w0", "result": "not a blob!!"})
        assert status == 400
        assert body["error"]["code"] == "wire"
        assert task.state == "claimed"  # the lease will expire it back

    def test_heartbeat_reports_extensions(self):
        app, queue = make_app()
        queue.submit({}, key="a")
        post(app, "/queue/claim", {"worker": "w0"})
        status, body = post(app, "/queue/heartbeat", {"worker": "w0"})
        assert (status, body["extended"]) == (200, 1)


class TestValidationAndStatus:
    def test_missing_worker_is_400(self):
        app, _ = make_app()
        status, body = post(app, "/queue/claim", {})
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_garbage_body_is_400(self):
        app, _ = make_app()
        status, _, _ = app.handle("POST", "/queue/claim", b"not json")
        assert status == 400

    def test_unknown_route_is_404(self):
        app, _ = make_app()
        status, _, _ = app.handle("GET", "/nope")
        assert status == 404

    def test_status_shows_queue_and_store(self):
        app, queue = make_app()
        queue.submit({}, key="a")
        status, _, payload = app.handle("GET", "/queue/status")
        doc = json.loads(payload.decode())
        assert status == 200
        assert doc["outstanding"] == 1
        assert doc["stats"]["submitted"] == 1
        assert doc["tasks"][0]["key"] == "a"
        assert doc["store"] == {"fetched": 0, "published": 0}

    def test_status_tracks_fleet_and_wire_counters(self):
        """/status is the fleet dashboard: queue shape, per-worker op
        counts, and bytes-on-wire raw vs shipped."""
        app, queue = make_app()
        spec = CellSpec(key="t/sq/9", fn=square, args=(9,))
        task = queue.submit(encode_cell(spec), key=spec.key)
        queue.submit(encode_cell(
            CellSpec(key="t/sq/10", fn=square, args=(10,))), key="t/sq/10")
        post(app, "/queue/claim", {"worker": "w0"})
        post(app, f"/queue/tasks/{task.task_id}/ack",
             {"worker": "w0", "result": encode_blob(81),
              "source": "computed"})
        _, _, payload = app.handle("GET", "/queue/status")
        doc = json.loads(payload.decode())
        assert doc["queue"] == {"depth": 1, "in_flight": 0}
        assert doc["workers"] == {"w0": {"claims": 1, "acks": 1,
                                         "nacks": 0}}
        assert doc["wire"]["in_bytes"] > 0
        assert doc["wire"]["out_bytes"] > 0
        # One small result blob travelled: plain base64, so wire >= raw
        # never holds compressed here, but both counters saw it.
        assert doc["wire"]["blob_wire_bytes"] > 0
        assert doc["wire"]["blob_raw_bytes"] > 0

    def test_healthz(self):
        app, _ = make_app()
        status, _, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert json.loads(payload.decode()) == {"status": "ok"}


class TestArtifacts:
    def test_miss_then_put_then_hit(self):
        app, _ = make_app()
        status, _, _ = app.handle("GET", "/artifacts/k")
        assert status == 404
        import pickle
        status, _, _ = app.handle("PUT", "/artifacts/k", pickle.dumps(7))
        assert status == 204
        status, content_type, payload = app.handle("GET", "/artifacts/k")
        assert status == 200
        assert content_type == "application/octet-stream"
        assert pickle.loads(payload) == 7

    def test_unpicklable_put_is_400(self):
        app, _ = make_app()
        status, _, _ = app.handle("PUT", "/artifacts/k", b"garbage")
        assert status == 400


class TestServerLifecycle:
    def test_close_returns_within_a_tenth_of_a_second(self):
        """close() must not wait out a long serve-loop poll.  Each
        server answers one request first, so the loop has just begun
        a fresh poll when close() lands."""
        closes = []
        for _ in range(3):
            server = CoordinatorServer(TaskQueue(), MemoryArtifactStore())
            url = server.start()
            assert http_request(url + "/healthz", timeout=5.0).status == 200
            started = time.perf_counter()
            server.close()
            closes.append(time.perf_counter() - started)
        assert max(closes) < 0.1, closes
