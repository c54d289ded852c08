"""The benchmark's own fast test: ``python -m pytest perfbench -q``.

Runs every workload once at tiny size, timed and traced; checks that
every metric BENCHMARK.json names is printed with its unit, that exact
counts repeat, that the oracle fails corrupted outputs, and that the
command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import manifest  # noqa: E402
from oracle import Oracle, digest_jsonable  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, seed: int = 7,
              cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_manifest_documents_are_current():
    assert manifest.stale_documents() == []


def test_benchmark_json_follows_its_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for group in ("workloads", "end_to_end", "per_layer")
             for row in doc[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
    bounds = {row["name"]: row["bound"] for row in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("higher", "lower")


@pytest.mark.parametrize("workload", list(manifest.WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric(workload):
    code, stdout = run_bench(workload, trace=0)
    assert code == 0, stdout
    result = last_json(stdout)
    assert result["correct"] and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        name: row["unit"] for name, row in manifest.END_TO_END.items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for name, (unit, where) in manifest.REPORTED.items():
        if workload in where:
            assert re.search(rf"^{name} \S+ {re.escape(unit)}", stdout, re.M)


@pytest.mark.parametrize("workload", list(manifest.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    code, stdout = run_bench(workload, trace=1)
    assert code == 0, stdout
    result = last_json(stdout)
    assert result["correct"] and result["failed"] == 0, stdout
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        name: row["unit"] for name, row in manifest.per_layer().items()}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.accounting_error"] <= 0.10
    if workload == "service-mixed":
        assert metrics["service.wire_wait_ms_mean"] > 0
        assert metrics["service.app.handle_ms_mean"] > 0
    if workload == "dist-socket":
        assert metrics["dist.queue.acks"] > 0
        assert metrics["sim.events"] == 0


def test_exact_counts_repeat_for_one_seed():
    runs = []
    for _ in range(2):
        code, stdout = run_bench("campaign-quick", trace=1, seed=11)
        assert code == 0, stdout
        runs.append(last_json(stdout)["metrics"])
    exact = manifest.exact_counts()
    assert "sim.events" in exact and "core.shell_log.records" in exact
    assert runs[0]["sim.events"]["value"] > 0
    assert ({name: runs[0][name]["value"] for name in exact}
            == {name: runs[1][name]["value"] for name in exact})


def test_oracle_fails_corrupted_grid_and_chaos_outputs():
    good = [{"jobs": 3}, {"jobs": 4}]
    oracle = Oracle(seed=5)
    expected = oracle.check_grid(good, None, "first pass")
    oracle.check_grid([{"jobs": 3}, {"jobs": 5}], expected, "corrupted")
    assert oracle.failed == 2 and oracle.error_rate == 0.5

    cells = [SimpleNamespace(fault="crash", intensity=3, discipline=name,
                             goodput=goodput)
             for name, goodput in (("ethernet", 5), ("aloha", 9),
                                   ("fixed", 1))]
    honest = SimpleNamespace(cells=cells, violations=("crash@i3: ...",))
    lying = SimpleNamespace(cells=cells, violations=())
    oracle = Oracle(seed=5)
    oracle.check_chaos(honest, "card", None, cells=3)
    assert oracle.failed == 0
    oracle.check_chaos(lying, "card", None, cells=3)
    assert oracle.failed == 3


def test_oracle_fails_wrong_status_and_corrupted_service_results():
    import workloads

    oracle = Oracle(seed=5)
    assert not oracle.check_rejection(400, "lint")
    assert not oracle.check_rejection(422, "budget")
    assert oracle.check_rejection(422, "lint")
    assert oracle.failed == 2

    ctx = workloads.Context(seed=5, seconds=1, tiny=True, workdir=HERE,
                            oracle=Oracle(seed=5, tiny=True))
    plan = workloads.ClientPlan(5, 0)
    kind, op = plan.next_op()
    while kind != "fresh":
        kind, op = plan.next_op()
    truth = workloads.direct_result_digest(op["submission"])
    op["digest"] = truth
    records = [
        {"kind": "fresh", "op": op, "state": "done", "cache_hit": False,
         "digest": digest_jsonable({"corrupted": True}), "latency": 0.1},
        {"kind": "cached", "op": op, "state": "done", "cache_hit": True,
         "digest": truth, "latency": 0.1},
        {"kind": "cached", "op": op, "state": "done", "cache_hit": False,
         "digest": truth, "latency": 0.1},
        {"kind": "reject", "status": 202, "code": "admitted", "latency": 0.1},
    ]
    workloads.check_service_records(ctx, records)
    assert ctx.oracle.attempted == 4
    assert ctx.oracle.failed == 3
    assert ctx.oracle.error_rate > 0


def test_fold_charges_stdlib_time_to_the_calling_layer(tmp_path):
    repro = tmp_path / "src" / "repro"
    layer_map = layers.LayerMap(str(repro), HERE)
    sim = (str(repro / "sim" / "engine.py"), 1, "step")
    lint = (str(repro / "lint" / "rules.py"), 1, "check")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    stats = {
        sim: (1, 1, 2.0, 3.0, {}),
        lint: (1, 1, 1.0, 2.5, {}),
        helper: (2, 2, 0.5, 1.5, {sim: (1, 1, 0.25, 0.5), lint: (1, 1, 0.25, 1.0)}),
        heappush: (3, 3, 1.5, 1.5, {sim: (1, 1, 0.5, 0.5),
                                    helper: (2, 2, 1.0, 1.0)}),
        ("~", 0, "<thread bootstrap>"): (1, 1, 0.25, 0.25, {}),
    }
    buckets = layers.fold(stats, layer_map)
    assert sum(buckets.values()) == pytest.approx(5.25)
    # heappush: 0.5 s direct from sim; 1.0 s via the helper, whose
    # cumulative time splits 1:2 between sim and lint.
    assert buckets["sim"] == pytest.approx(2.0 + 0.25 + 0.5 + 1.0 / 3)
    assert buckets["lint"] == pytest.approx(1.0 + 0.25 + 2.0 / 3)
    assert buckets["unattributed"] == pytest.approx(0.25)


def test_a_removed_boundary_reads_as_absent():
    import tracing
    import workloads

    assert workloads.lookup("repro.no_such_module:run") is None
    assert workloads.lookup("repro.core.parser:no_such_function") is None
    tracer = tracing.Tracer(layers.LayerMap(HERE, HERE))
    tracer.wrap_function(workloads.lookup("repro.core.parser"),
                         "no_such_function", "gone.function")
    tracer.wrap_method(None, "spawn", "gone.method")
    tracer.count_calls(SimpleNamespace, "no_such_method", "gone.count")
    assert tracer.missing == ["gone.function", "gone.method", "gone.count"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, stdout = run_bench("campaign-quick", trace=0, cwd=str(tmp_path))
    assert code != 0
    assert '"correct"' not in stdout
