"""The cross-backend determinism pin: one campaign, three executors,
byte-identical scorecards.

This is the acceptance test for the dist subsystem — if any backend
reorders, drops, or double-applies a cell, the rendered scorecard text
diverges and this fails.  Fresh caches per backend keep the comparison
honest (no backend may lean on another's artifacts).
"""

import pytest

from repro.experiments.chaos import render_scorecard, run_chaos_campaign
from repro.parallel.cache import ResultCache
from tests.experiments.test_chaos import TINY


@pytest.mark.parametrize("backend", ["work-stealing", "socket"])
def test_backend_scorecard_matches_inprocess(backend, tmp_path):
    baseline = render_scorecard(run_chaos_campaign(TINY, seed=11))
    cache = ResultCache(str(tmp_path / backend))
    report = run_chaos_campaign(TINY, seed=11, jobs=2, cache=cache,
                                backend=backend)
    assert render_scorecard(report) == baseline
