"""TaskQueue semantics: leases, at-least-once redelivery, drain."""

import pytest

from repro.dist.queue import (
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    QueueError,
    TaskQueue,
)


class Clock:
    """A hand-cranked monotonic clock for lease-expiry tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(lease=10.0, max_attempts=3):
    clock = Clock()
    return TaskQueue(lease=lease, max_attempts=max_attempts,
                     clock=clock), clock


class TestSubmitClaim:
    def test_fifo_handout(self):
        queue, _ = make_queue()
        for name in ("a", "b", "c"):
            queue.submit({"cell": name}, key=name)
        claimed = [queue.claim("w0").key for _ in range(3)]
        assert claimed == ["a", "b", "c"]

    def test_idle_claim_returns_none(self):
        queue, _ = make_queue()
        assert queue.claim("w0") is None

    def test_claim_needs_worker_id(self):
        queue, _ = make_queue()
        with pytest.raises(QueueError):
            queue.claim("")

    def test_claim_sets_lease_deadline(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        task = queue.claim("w0")
        assert task.state == CLAIMED
        assert task.deadline == clock.now + 10.0

    def test_custom_lease_window(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        task = queue.claim("w0", lease=2.5)
        assert task.deadline == clock.now + 2.5


class TestAckNack:
    def test_ack_stores_result_and_source(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim("w0")
        done = queue.ack(task.task_id, "w0", result=41, source="store")
        assert (done.state, done.result, done.source) == (DONE, 41, "store")
        assert queue.finished()

    def test_ack_by_wrong_worker_rejected(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim("w0")
        with pytest.raises(QueueError):
            queue.ack(task.task_id, "w1", result=1)

    def test_nack_requeues_until_attempts_exhausted(self):
        queue, _ = make_queue(max_attempts=2)
        task = queue.submit({}, key="a")
        queue.claim("w0")
        assert queue.nack(task.task_id, "w0", "boom").state == PENDING
        queue.claim("w0")
        assert queue.nack(task.task_id, "w0", "boom").state == FAILED

    def test_nack_no_requeue_fails_immediately(self):
        queue, _ = make_queue()
        task = queue.submit({}, key="a")
        queue.claim("w0")
        failed = queue.nack(task.task_id, "w0", "undecodable", requeue=False)
        assert failed.state == FAILED
        assert queue.failures() == [failed]


class TestLeases:
    def test_expired_lease_reenqueues(self):
        queue, clock = make_queue(lease=10.0)
        task = queue.submit({}, key="a")
        queue.claim("w0")
        clock.advance(10.1)
        reaped = queue.reap_expired()
        assert [t.task_id for t in reaped] == [task.task_id]
        assert task.state == PENDING
        # Another worker picks it up; the dead worker's late ack drops.
        queue.claim("w1")
        with pytest.raises(QueueError):
            queue.ack(task.task_id, "w0", result=1)
        queue.ack(task.task_id, "w1", result=2)
        assert task.result == 2

    def test_heartbeat_extends_every_lease_of_worker(self):
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        queue.submit({}, key="b")
        a = queue.claim("w0")
        b = queue.claim("w0")
        clock.advance(8.0)
        assert queue.heartbeat("w0") == 2
        clock.advance(8.0)  # would have expired without the heartbeat
        assert queue.reap_expired() == []
        assert a.state == b.state == CLAIMED

    def test_expiry_past_max_attempts_fails_task(self):
        queue, clock = make_queue(lease=5.0, max_attempts=2)
        task = queue.submit({}, key="a")
        for _ in range(2):
            queue.claim("w0")
            clock.advance(5.1)
            queue.reap_expired()
        assert task.state == FAILED
        assert "lease expired" in task.error

    def test_claim_reaps_on_entry(self):
        queue, clock = make_queue(lease=5.0)
        task = queue.submit({}, key="a")
        queue.claim("w0")
        clock.advance(5.1)
        again = queue.claim("w1")  # no explicit reap needed
        assert again.task_id == task.task_id
        assert again.worker == "w1"

    def test_claim_piggybacks_a_heartbeat(self):
        """Coming back for more work extends what the worker holds."""
        queue, clock = make_queue(lease=10.0)
        queue.submit({}, key="a")
        queue.submit({}, key="b")
        held = queue.claim("w0")
        clock.advance(8.0)
        queue.claim("w0")  # would expire 'a' at t=10 otherwise
        clock.advance(8.0)
        assert queue.reap_expired() == []
        assert held.state == CLAIMED


class TestDrainAndStats:
    def test_depth_and_in_flight_track_the_queue(self):
        queue, _ = make_queue()
        for name in ("a", "b", "c"):
            queue.submit({}, key=name)
        assert (queue.depth(), queue.in_flight()) == (3, 0)
        queue.claim("w0")
        queue.claim("w0")
        assert (queue.depth(), queue.in_flight()) == (1, 2)

    def test_drain_refuses_submissions(self):
        queue, _ = make_queue()
        queue.drain()
        assert queue.draining
        with pytest.raises(QueueError):
            queue.submit({}, key="late")

    def test_stats_count_the_story(self):
        queue, clock = make_queue(lease=5.0)
        task = queue.submit({}, key="a")
        queue.claim("w0")
        clock.advance(5.1)
        queue.reap_expired()
        queue.claim("w1")
        queue.heartbeat("w1")
        queue.ack(task.task_id, "w1", result=1)
        stats = queue.stats.as_dict()
        assert stats == {"submitted": 1, "claims": 2, "acks": 1,
                         "nacks": 0, "expired": 1, "heartbeats": 1}

    def test_wait_returns_when_all_terminal(self):
        # Real clock: wait() measures its timeout against self.clock,
        # so a hand-cranked clock would never let the deadline pass.
        queue = TaskQueue(lease=10.0)
        task = queue.submit({}, key="a")
        queue.claim("w0")
        queue.ack(task.task_id, "w0", result=1)
        assert queue.wait(timeout=0.1)

    def test_wait_times_out_with_outstanding_tasks(self):
        queue = TaskQueue(lease=10.0)
        queue.submit({}, key="a")
        assert not queue.wait(timeout=0.05)
        assert queue.outstanding() == 1
