"""``bench --compare`` against saved documents, old schemas included."""

from repro.experiments.bench import SCHEMA, check_document, compare_documents


def schema6(socket, steal):
    return {"schema": SCHEMA, "dist": {"throughput": {
        "socket": {"cells_per_s": socket},
        "work-stealing": {"cells_per_s": steal}}}}


def schema5(socket, steal):
    """The shape a repro.bench.campaign/5 document saved: the batched
    and the single-task wire side by side."""
    def entry(value):
        return {"batched": {"cells_per_s": value},
                "unbatched": {"cells_per_s": value / 2}, "speedup": 2.0}

    return {"schema": "repro.bench.campaign/5", "dist": {"throughput": {
        "socket": entry(socket), "work-stealing": entry(steal)}}}


class TestCompare:
    def test_same_schema_within_tolerance(self):
        assert compare_documents(schema6(30.0, 80.0),
                                 schema6(25.0, 70.0)) == []

    def test_schema5_batched_figure_is_the_floor(self):
        assert compare_documents(schema5(30.0, 80.0),
                                 schema6(25.0, 70.0)) == []
        problems = compare_documents(schema5(30.0, 80.0),
                                     schema6(10.0, 70.0))
        assert len(problems) == 1
        assert problems[0].startswith("dist.throughput.socket.cells_per_s")

    def test_metrics_missing_from_the_old_document_are_skipped(self):
        assert compare_documents({"schema": "repro.bench.campaign/1"},
                                 schema6(1.0, 1.0)) == []


def test_check_rejects_an_unknown_schema():
    problems = check_document({"schema": "repro.bench.campaign/5"})
    assert "unknown schema: 'repro.bench.campaign/5'" in problems
