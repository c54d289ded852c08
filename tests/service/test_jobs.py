"""Job store lifecycle: dedupe, warm-cache resubmission, cancel, TTL,
and the finished-job cap."""

import json
import threading
import time

import pytest

from repro.obs import Observability
from repro.parallel.cache import ResultCache
from repro.service.app import ServiceApp
from repro.service.jobs import (
    MAX_FINISHED_JOBS,
    JobStore,
    NotFinished,
    UnknownJob,
)
from repro.service.sandbox import SandboxPolicy, SandboxRejection
from repro.service.schemas import (
    CampaignSubmission,
    QUEUED,
    RUNNING,
    ScriptSubmission,
    TERMINAL,
)

GOOD = 'try for 5 minutes\n    condor_submit submit.job\nend\n'

#: A one-cell campaign small enough for unit tests (sub-second).
TINY_CAMPAIGN = CampaignSubmission(
    scenario="submit", disciplines=("ethernet",),
    overrides=(("submit_clients", 10.0), ("submit_duration", 10.0)))


def wait_terminal(store, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = store.status(job_id)
        if status.state in TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


@pytest.fixture
def store():
    with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                  cache=None, workers=2) as store:
        yield store


class TestLifecycle:
    def test_script_runs_to_done(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        final = wait_terminal(store, status.job_id)
        assert final.state == "done"
        assert final.started is not None and final.finished is not None
        result = store.result(status.job_id)
        assert result.result["__type__"] == "ScriptOutcome"
        assert result.result["success"] is True
        assert result.cache_hit is False  # no cache configured

    def test_events_stream(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        wait_terminal(store, status.job_id)
        events = store.events(status.job_id)
        assert [e.state for e in events][:2] == ["queued", "running"]
        assert events[-1].state == "done"
        # Incremental reads pick up where the cursor left off.
        assert store.events(status.job_id, since=events[-1].seq) == []

    def test_result_before_done_raises(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        record = store._records[status.job_id]
        # Freeze a non-terminal snapshot: NotFinished must fire for it.
        if record.state not in TERMINAL:
            with pytest.raises(NotFinished):
                store.result(status.job_id)
        wait_terminal(store, status.job_id)

    def test_unknown_job(self, store):
        with pytest.raises(UnknownJob):
            store.status("no-such-job")
        with pytest.raises(UnknownJob):
            store.result("no-such-job")
        with pytest.raises(UnknownJob):
            store.cancel("no-such-job")

    def test_rejection_raises(self, store):
        with pytest.raises(SandboxRejection) as exc:
            store.submit(ScriptSubmission(script="try for 2 bananas\nend\n"))
        assert exc.value.code == "syntax"

    def test_submit_before_start(self):
        store = JobStore()
        with pytest.raises(RuntimeError):
            store.submit(ScriptSubmission(script=GOOD))


class TestDedupe:
    def test_inflight_twin_dedupes(self, store):
        sub = ScriptSubmission(script=GOOD, timeout=600.0)
        first = store.submit(sub)
        # Pin the record in a non-terminal state so the twin submission
        # deterministically hits the in-flight branch.
        record = store._records[first.job_id]
        wait_terminal(store, first.job_id)
        with store._lock:
            record.state = RUNNING
        try:
            twin = store.submit(sub)
            assert twin.job_id == first.job_id
            assert twin.deduped is True
        finally:
            with store._lock:
                record.state = "done"

    def test_different_submissions_different_jobs(self, store):
        a = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        b = store.submit(ScriptSubmission(script=GOOD, timeout=600.0,
                                          seed=7))
        assert a.job_id != b.job_id
        wait_terminal(store, a.job_id)
        wait_terminal(store, b.job_id)

    def test_normalized_twins_share_a_job(self, store):
        # Variable ordering is normalized away by the schema, so these
        # are the same content-addressed job.
        a = store.submit(ScriptSubmission(
            script=GOOD, timeout=600.0,
            variables=(("a", "1"), ("b", "2"))))
        wait_terminal(store, a.job_id)
        b = store.submit(ScriptSubmission(
            script=GOOD, timeout=600.0,
            variables=(("b", "2"), ("a", "1"))))
        assert b.job_id == a.job_id


class TestWarmCache:
    def test_resubmission_is_a_cache_hit(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      cache=cache, workers=1) as store:
            sub = ScriptSubmission(script=GOOD, timeout=600.0)
            first = store.submit(sub)
            cold = wait_terminal(store, first.job_id)
            assert cold.state == "done"
            assert cold.cache_hit is False

            again = store.submit(sub)
            assert again.job_id == first.job_id
            warm = wait_terminal(store, again.job_id)
            assert warm.cache_hit is True
            assert (store.result(first.job_id).result
                    == store.result(again.job_id).result)


class TestCancel:
    def test_cancel_queued_job(self):
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1) as store:
            # Occupy the only worker so the second job stays queued.
            blocker = store.submit(TINY_CAMPAIGN)
            victim = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            status = store.cancel(victim.job_id)
            assert status.state == "cancelled"
            final = wait_terminal(store, victim.job_id)
            assert final.state == "cancelled"
            wait_terminal(store, blocker.job_id)

    def test_cancel_terminal_is_idempotent(self, store):
        status = store.submit(ScriptSubmission(script=GOOD, timeout=600.0))
        final = wait_terminal(store, status.job_id)
        assert store.cancel(status.job_id).state == final.state


class TestBudgetsAndTtl:
    def test_wall_budget_fails_job(self):
        with JobStore(policy=SandboxPolicy(wall_budget=0.001),
                      workers=1) as store:
            status = store.submit(CampaignSubmission(
                scenario="submit", disciplines=("fixed", "aloha"),
                overrides=(("submit_clients", 50.0),
                           ("submit_duration", 30.0))))
            final = wait_terminal(store, status.job_id)
            assert final.state == "failed"
            assert "wall budget" in (final.error or "")

    def test_ttl_purges_finished_jobs(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            status = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            wait_terminal(store, status.job_id)
            clock[0] += 5.0
            assert store.status(status.job_id).state == "done"
            clock[0] += 20.0
            store.purge_expired()
            with pytest.raises(UnknownJob):
                store.status(status.job_id)

    def test_ttl_never_reaps_running_jobs(self):
        clock = [1000.0]
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, ttl=10.0, clock=lambda: clock[0]) as store:
            status = store.submit(ScriptSubmission(script=GOOD,
                                                   timeout=600.0))
            record = store._records[status.job_id]
            wait_terminal(store, status.job_id)
            with store._lock:
                record.state = RUNNING
            clock[0] += 100.0
            store.purge_expired()
            assert store.status(status.job_id).state == RUNNING
            with store._lock:
                record.state = "done"

    def test_validation(self):
        with pytest.raises(ValueError):
            JobStore(workers=0)
        with pytest.raises(ValueError):
            JobStore(ttl=-1.0)


class TestRetentionCap:
    def test_oldest_finished_jobs_are_evicted_past_the_cap(self, tmp_path):
        k = 3
        obs = Observability(keep_series=False)
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      cache=ResultCache(root=str(tmp_path)),
                      workers=1, obs=obs) as store:
            app = ServiceApp(store)
            docs = [{"script": GOOD, "timeout": 600.0, "seed": seed}
                    for seed in range(MAX_FINISHED_JOBS + k)]

            def post(doc):
                status, _, payload = app.handle(
                    "POST", "/scripts", json.dumps(doc).encode())
                assert status == 202
                return json.loads(payload)["job_id"]

            oldest = post(docs[0])
            wait_terminal(store, oldest)
            _, _, first = app.handle("GET", f"/jobs/{oldest}/result")
            # One worker runs jobs in submission order, so once the last
            # is terminal every earlier one finished before it.
            ids = [post(doc) for doc in docs[1:]]
            wait_terminal(store, ids[-1])

            assert len(store.jobs()) <= MAX_FINISHED_JOBS
            evicted = obs.metrics.get("service_jobs_evicted_total")
            assert evicted.value == k
            status, _, payload = app.handle("GET", f"/jobs/{oldest}")
            assert status == 404
            assert json.loads(payload)["error"]["code"] == "unknown-job"

            assert post(docs[0]) == oldest
            assert wait_terminal(store, oldest).cache_hit is True
            _, _, again = app.handle("GET", f"/jobs/{oldest}/result")
            assert (json.dumps(json.loads(again)["result"]).encode()
                    == json.dumps(json.loads(first)["result"]).encode())

    def test_queued_and_running_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr("repro.service.jobs.MAX_FINISHED_JOBS", 1)
        release = threading.Event()
        execute = JobStore._execute

        def held(self, record):
            release.wait(30.0)
            return execute(self, record)

        monkeypatch.setattr(JobStore, "_execute", held)
        obs = Observability(keep_series=False)
        with JobStore(policy=SandboxPolicy(wall_budget=60.0),
                      workers=1, obs=obs) as store:
            jobs = [store.submit(ScriptSubmission(
                script=GOOD, timeout=600.0, seed=seed)).job_id
                for seed in range(4)]
            running = jobs[0]
            deadline = time.monotonic() + 30.0
            while store.status(running).state != RUNNING:
                assert time.monotonic() < deadline, "first job never ran"
                time.sleep(0.01)
            store.cancel(jobs[1])
            store.cancel(jobs[2])
            states = {status.job_id: status.state for status in store.jobs()}
            assert states == {running: RUNNING, jobs[2]: "cancelled",
                              jobs[3]: QUEUED}
            assert obs.metrics.get("service_jobs_evicted_total").value == 1
            release.set()
            wait_terminal(store, jobs[3])
