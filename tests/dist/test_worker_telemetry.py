"""WorkerTelemetry: the dist fleet measuring its own contention."""

import threading

import pytest

from repro.dist.worker import WorkerTelemetry
from repro.obs.aggregator import FleetAggregator, make_obs_server


@pytest.fixture
def live_aggregator():
    agg = FleetAggregator()
    server = make_obs_server(agg, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield agg, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


class TestDisabled:
    def test_disabled_is_a_cheap_noop(self):
        telemetry = WorkerTelemetry.disabled()
        assert telemetry.enabled is False
        # Every hook must be callable without a registry behind it.
        telemetry.claim("lease")
        telemetry.idle_sleep(0.5)
        telemetry.task_done("computed", 1.0)
        telemetry.push()

    def test_no_url_means_disabled(self):
        assert WorkerTelemetry(None, "w9").enabled is False


class TestEnabled:
    def test_counters_fold_into_fleet_utilisation(self, live_aggregator):
        agg, url = live_aggregator
        telemetry = WorkerTelemetry(url, "w0")
        telemetry.claim("lease")
        telemetry.claim("lease")
        telemetry.claim("empty")
        telemetry.idle_sleep(0.25)
        telemetry.task_done("computed", elapsed=1.5)
        telemetry.task_done("store", elapsed=0.5)
        snap = agg.snapshot()
        source = snap["sources"]["worker/w0"]
        assert source["labels"]["component"] == "dist-worker"
        assert source["batches"] == 2
        # busy/elapsed counter pair drives utilisation; elapsed is real
        # wall time here so just check the ratio is sane and positive.
        assert source["busy_seconds"] == pytest.approx(2.0)
        assert source["utilisation"] is not None
        assert source["utilisation"] > 0

    def test_repeated_pushes_stay_cumulative(self, live_aggregator):
        agg, url = live_aggregator
        telemetry = WorkerTelemetry(url, "w1")
        telemetry.task_done("computed", elapsed=1.0)
        telemetry.task_done("computed", elapsed=1.0)
        telemetry.push()
        source = agg.snapshot()["sources"]["worker/w1"]
        assert source["last_seq"] == 3
        assert source["busy_seconds"] == pytest.approx(2.0)
        assert telemetry._pusher.failed == 0

    def test_unreachable_aggregator_never_raises(self):
        telemetry = WorkerTelemetry("http://127.0.0.1:9", "w2")
        telemetry._pusher.timeout = 0.5
        telemetry.task_done("computed", elapsed=1.0)
        assert telemetry._pusher.failed == 1
