"""Correctness oracle: every output a workload produces is checked here.

Reference digests for the default seed live in ``reference.json`` next
to this file; ``python3 perfbench/oracle.py --write`` regenerates them
from a serial in-process run (run it only when a change is *meant* to
alter results).  For any seed the oracle also checks properties that
need no stored answer: determinism across passes and backends, cached
results equal to their first computation, service results equal to a
direct in-process run, and lint refusals answered with 422/``lint``.

An :class:`Oracle` tallies every check; ``error_rate`` is
``failed / attempted`` over the operations (cells or jobs) a run made.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The repo's canonical campaign seed; references are stored for it.
DEFAULT_SEED = 2003


def digest_jsonable(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_results(results: Any) -> str:
    """Digest of cell results in the determinism suite's JSON view."""
    from repro.parallel.transport import to_jsonable

    return digest_jsonable(to_jsonable(results))


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def recompute_violations(report: Any) -> tuple[str, ...]:
    """The chaos ordering claim, re-derived from the raw cell goodputs
    without going through :func:`repro.experiments.chaos.check_ordering`."""
    top = max(cell.intensity for cell in report.cells)
    by_fault: dict[str, dict[str, float]] = {}
    for cell in report.cells:
        if cell.intensity == top:
            by_fault.setdefault(cell.fault, {})[cell.discipline] = cell.goodput
    out = []
    for fault, goodput in by_fault.items():
        if not (goodput["ethernet"] >= goodput["aloha"] >= goodput["fixed"]):
            out.append(fault)
    return tuple(out)


class Oracle:
    """Counts operations and the ones whose output failed a check.

    ``run_problems`` are failures of the run as a whole (the traced
    run's layer accounting); they make the run incorrect without
    standing for any one operation.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        #: Stored references apply to full-size runs at the default seed.
        self.uses_reference = seed == DEFAULT_SEED and not tiny
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_problems: list[str] = []
        self._reference: Optional[dict[str, Any]] = None

    @property
    def reference(self) -> dict[str, Any]:
        if self._reference is None:
            self._reference = load_reference()
        return self._reference

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failed and not self.run_problems

    def record(self, operations: int, ok: bool, problem: str = "") -> bool:
        """Count ``operations`` attempted; all of them failed unless ``ok``."""
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.problems.append(problem)
        return ok

    def check_run(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.run_problems.append(problem)
        return ok

    # ------------------------------------------------------------------
    def check_grid(self, results: list[Any], expected: Optional[str],
                   what: str) -> str:
        """One grid pass: every cell counts; a wrong digest fails them all.

        ``expected`` is the digest this pass must reproduce (an earlier
        pass, or the serial run); None means this pass establishes it.
        The stored reference overrides it where it applies.  Returns the
        pass's digest.
        """
        got = digest_results(results)
        if self.uses_reference:
            expected = self.reference["grid_quick"]
        self.record(len(results), expected is None or got == expected,
                    f"{what}: results digest {got[:12]} != {str(expected)[:12]}")
        return got

    def check_chaos(self, report: Any, scorecard: str,
                    expected: Optional[str], cells: int) -> str:
        """One chaos pass of ``cells`` executed cells.

        The report must name exactly the ordering violations its own
        cells imply and be deterministic across passes; at the default
        seed it must match the stored scorecard, which holds 0
        violations.  Elsewhere the ordering is an experimental outcome
        (it fails at several seeds at smoke scale), so it is reported,
        not failed.
        """
        got = digest_text(scorecard)
        reported = tuple(line.split("@", 1)[0] for line in report.violations)
        ok = reported == recompute_violations(report)
        problem = f"chaos: reported violations {reported} disagree with cells"
        if ok and self.uses_reference:
            expected = self.reference["chaos_scorecard"]
            ok = not report.violations
            problem = "chaos: ordering violated at the default seed"
        if ok and expected is not None:
            ok = got == expected
            problem = f"chaos: scorecard digest {got[:12]} != {expected[:12]}"
        self.record(cells, ok, problem)
        return got

    def check_rejection(self, status: int, code: str) -> bool:
        return self.record(1, status == 422 and code == "lint",
                           f"lint refusal answered {status}/{code}")

    def check_job(self, state: str, digest: str, expected: Optional[str],
                  cache_hit: Any, want_hit: bool, what: str) -> bool:
        """One admitted job: done, the expected result, and served from
        the cache exactly when it is a resubmission."""
        ok = (state == "done" and cache_hit is want_hit
              and (expected is None or digest == expected))
        return self.record(1, ok, f"{what}: state={state} cache_hit="
                                  f"{cache_hit} digest {digest[:12]} != "
                                  f"{str(expected)[:12]}")

    def service_reference(self, key: str) -> Optional[str]:
        if not self.uses_reference:
            return None
        return self.reference["service_jobs"].get(key)


def _write_reference() -> int:
    """Regenerate ``reference.json`` for the default seed (serial run)."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.experiments import chaos, runall
    from repro.parallel.executor import run_cells

    import workloads

    groups = runall.campaign_cells(runall.SCALES["quick"], DEFAULT_SEED)
    flat = [cell for cells in groups.values() for cell in cells]
    grid = digest_results(run_cells(flat))
    report = chaos.run_chaos_campaign(chaos.SCALES["smoke"], seed=DEFAULT_SEED)
    doc = {
        "seed": DEFAULT_SEED,
        "grid_quick": grid,
        "chaos_scorecard": digest_text(chaos.render_scorecard(report)),
        "service_jobs": workloads.service_reference_digests(DEFAULT_SEED),
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: python3 perfbench/oracle.py --write", file=sys.stderr)
        sys.exit(2)
    sys.exit(_write_reference())
