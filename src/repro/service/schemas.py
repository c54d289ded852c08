"""Request/response models for the service plane.

Plain dataclasses with explicit ``to_jsonable``/``from_jsonable``
round-trips — no framework types — so the same models serve the stdlib
HTTP skin and the client.  Serialization
reuses :func:`repro.parallel.transport.to_jsonable` for result payloads
and :func:`repro.parallel.cache.canonical_json` for the content hashes
that make job ids deterministic: two byte-identical submissions are the
same job, the same cache entry, and the same result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..parallel.cache import canonical, canonical_json


class SchemaError(ValueError):
    """A submission document that does not decode to a valid model."""


def _require(doc: Mapping[str, Any], key: str, kinds: tuple, what: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{what}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise SchemaError(
            f"{what}: field {key!r} must be {names}, "
            f"got {type(value).__name__}"
        )
    return value


def _optional(doc: Mapping[str, Any], key: str, kinds: tuple, what: str,
              default: Any = None) -> Any:
    if key not in doc or doc[key] is None:
        return default
    return _require(doc, key, kinds, what)


def _str_mapping(value: Any, what: str) -> dict[str, str]:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{what}: must be an object of strings")
    out: dict[str, str] = {}
    for key, item in value.items():
        if not isinstance(key, str) or not isinstance(item, str):
            raise SchemaError(f"{what}: keys and values must be strings")
        out[key] = item
    return out


# ---------------------------------------------------------------------------
# Submissions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptSubmission:
    """One ftsh script to run against a simulated grid world.

    ``world`` picks which substrate's commands are registered (the
    paper's three scenarios): ``condor`` (``condor_submit``, the FD
    probe), ``replica`` (``wget``), or ``buffer`` (``produce_output``/
    ``store_output``/``df_estimate``).  ``timeout`` bounds the script in
    *simulated* seconds; ``seed`` feeds the run's named random streams,
    so a submission is a pure function of this object.
    """

    script: str
    variables: tuple[tuple[str, str], ...] = ()
    world: str = "condor"
    timeout: Optional[float] = None
    seed: int = 2003

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "kind": "script",
            "script": self.script,
            "variables": {name: value for name, value in self.variables},
            "world": self.world,
            "timeout": self.timeout,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "ScriptSubmission":
        what = "script submission"
        if not isinstance(doc, Mapping):
            raise SchemaError(f"{what}: body must be a JSON object")
        script = _require(doc, "script", (str,), what)
        variables = _str_mapping(doc.get("variables") or {},
                                 f"{what}: variables")
        timeout = _optional(doc, "timeout", (int, float), what)
        if timeout is not None and (isinstance(timeout, bool)
                                    or float(timeout) <= 0):
            raise SchemaError(f"{what}: timeout must be a positive number")
        seed = _optional(doc, "seed", (int,), what, default=2003)
        if isinstance(seed, bool):
            raise SchemaError(f"{what}: seed must be an integer")
        return cls(
            script=script,
            variables=tuple(sorted(variables.items())),
            world=str(_optional(doc, "world", (str,), what,
                                default="condor")),
            timeout=float(timeout) if timeout is not None else None,
            seed=seed,
        )


@dataclass(frozen=True)
class CampaignSubmission:
    """One campaign: a grid of chaos-campaign cells to fan out.

    The cells are exactly :func:`repro.experiments.chaos.run_cell`
    calls — scenario x discipline x (fault, level) at a named scale —
    so a submitted campaign is byte-identical to running the same grid
    through :func:`repro.parallel.run_cells` directly, and shares its
    cache entries with local runs.  ``overrides`` adjusts numeric scale
    fields (durations, client counts) for bounded submissions; the
    sandbox checks them against policy.
    """

    scenario: str
    disciplines: tuple[str, ...] = ("fixed", "aloha", "ethernet")
    fault: Optional[str] = None
    levels: tuple[int, ...] = ()
    scale: str = "smoke"
    seed: int = 2003
    overrides: tuple[tuple[str, float], ...] = ()

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "kind": "campaign",
            "scenario": self.scenario,
            "disciplines": list(self.disciplines),
            "fault": self.fault,
            "levels": list(self.levels),
            "scale": self.scale,
            "seed": self.seed,
            "overrides": {name: value for name, value in self.overrides},
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "CampaignSubmission":
        what = "campaign submission"
        if not isinstance(doc, Mapping):
            raise SchemaError(f"{what}: body must be a JSON object")
        scenario = _require(doc, "scenario", (str,), what)
        disciplines = doc.get("disciplines") or ["fixed", "aloha", "ethernet"]
        if (not isinstance(disciplines, (list, tuple)) or
                not all(isinstance(d, str) for d in disciplines) or
                not disciplines):
            raise SchemaError(f"{what}: disciplines must be a non-empty "
                              "list of strings")
        levels = doc.get("levels") or []
        if (not isinstance(levels, (list, tuple)) or
                any(isinstance(lv, bool) or not isinstance(lv, int)
                    for lv in levels)):
            raise SchemaError(f"{what}: levels must be a list of integers")
        seed = _optional(doc, "seed", (int,), what, default=2003)
        if isinstance(seed, bool):
            raise SchemaError(f"{what}: seed must be an integer")
        overrides_doc = doc.get("overrides") or {}
        if not isinstance(overrides_doc, Mapping):
            raise SchemaError(f"{what}: overrides must be an object")
        overrides: list[tuple[str, float]] = []
        for name, value in overrides_doc.items():
            if (not isinstance(name, str) or isinstance(value, bool)
                    or not isinstance(value, (int, float))):
                raise SchemaError(
                    f"{what}: overrides must map field names to numbers")
            overrides.append((name, float(value)))
        return cls(
            scenario=scenario,
            disciplines=tuple(disciplines),
            fault=_optional(doc, "fault", (str,), what),
            levels=tuple(levels),
            scale=str(_optional(doc, "scale", (str,), what, default="smoke")),
            seed=seed,
            overrides=tuple(sorted(overrides)),
        )


#: Either submission kind (what the job store accepts).
Submission = "ScriptSubmission | CampaignSubmission"


def submission_from_jsonable(doc: Mapping[str, Any]):
    """Decode either submission kind from its tagged JSON form."""
    if not isinstance(doc, Mapping):
        raise SchemaError("submission: body must be a JSON object")
    kind = doc.get("kind")
    if kind == "script":
        return ScriptSubmission.from_jsonable(doc)
    if kind == "campaign":
        return CampaignSubmission.from_jsonable(doc)
    raise SchemaError(f"submission: unknown kind {kind!r}")


def job_id_for(submission, fingerprint: str) -> str:
    """The deterministic, content-addressed job id.

    Same recipe as the result cache: sha256 over the canonical JSON of
    the (normalized) submission plus the repo code fingerprint.  Identical
    submissions — after sandbox normalization — always map to the same
    job, which is what makes dedupe and warm-cache serves automatic.
    """
    doc = {
        "submission": canonical(submission),
        "code": fingerprint,
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Status / results
# ---------------------------------------------------------------------------

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's incremental status stream."""

    seq: int
    ts: float
    state: str
    message: str = ""

    def to_jsonable(self) -> dict[str, Any]:
        return {"seq": self.seq, "ts": self.ts, "state": self.state,
                "message": self.message}

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "JobEvent":
        what = "job event"
        return cls(
            seq=_require(doc, "seq", (int,), what),
            ts=float(_require(doc, "ts", (int, float), what)),
            state=_require(doc, "state", (str,), what),
            message=str(doc.get("message") or ""),
        )


@dataclass(frozen=True)
class JobStatus:
    """Everything ``GET /jobs/{id}`` reports."""

    job_id: str
    kind: str
    state: str
    created: float
    started: Optional[float] = None
    finished: Optional[float] = None
    deduped: bool = False
    cache_hit: Optional[bool] = None
    cells: int = 0
    error: Optional[str] = None
    events_seq: int = 0

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "deduped": self.deduped,
            "cache_hit": self.cache_hit,
            "cells": self.cells,
            "error": self.error,
            "events_seq": self.events_seq,
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "JobStatus":
        what = "job status"
        if not isinstance(doc, Mapping):
            raise SchemaError(f"{what}: body must be a JSON object")
        state = _require(doc, "state", (str,), what)
        return cls(
            job_id=_require(doc, "job_id", (str,), what),
            kind=_require(doc, "kind", (str,), what),
            state=state,
            created=float(_require(doc, "created", (int, float), what)),
            started=_optional(doc, "started", (int, float), what),
            finished=_optional(doc, "finished", (int, float), what),
            deduped=bool(doc.get("deduped", False)),
            cache_hit=doc.get("cache_hit"),
            cells=int(doc.get("cells") or 0),
            error=_optional(doc, "error", (str,), what),
            events_seq=int(doc.get("events_seq") or 0),
        )


@dataclass(frozen=True)
class JobResult:
    """Everything ``GET /jobs/{id}/result`` reports.

    ``result`` is the jsonable view of the executed cells — for a
    campaign, the positionally-ordered
    :func:`~repro.parallel.transport.to_jsonable` list that a direct
    :func:`~repro.parallel.run_cells` call would produce; for a script,
    the single script outcome object.
    """

    job_id: str
    kind: str
    state: str
    cache_hit: Optional[bool]
    result: Any = None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "result": self.result,
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "JobResult":
        what = "job result"
        if not isinstance(doc, Mapping):
            raise SchemaError(f"{what}: body must be a JSON object")
        return cls(
            job_id=_require(doc, "job_id", (str,), what),
            kind=_require(doc, "kind", (str,), what),
            state=_require(doc, "state", (str,), what),
            cache_hit=doc.get("cache_hit"),
            result=doc.get("result"),
        )


@dataclass(frozen=True)
class ScriptOutcome:
    """What running one sandboxed script produced (the script cell's
    return value — picklable, cacheable, jsonable)."""

    success: bool
    reason: Optional[str]
    timed_out: bool
    sim_elapsed: float
    events: int
    counters: tuple[tuple[str, float], ...] = ()
    budget_exceeded: Optional[str] = None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "success": self.success,
            "reason": self.reason,
            "timed_out": self.timed_out,
            "sim_elapsed": self.sim_elapsed,
            "events": self.events,
            "counters": {name: value for name, value in self.counters},
            "budget_exceeded": self.budget_exceeded,
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping[str, Any]) -> "ScriptOutcome":
        what = "script outcome"
        counters = doc.get("counters") or {}
        if not isinstance(counters, Mapping):
            raise SchemaError(f"{what}: counters must be an object")
        return cls(
            success=bool(_require(doc, "success", (bool,), what)),
            reason=_optional(doc, "reason", (str,), what),
            timed_out=bool(doc.get("timed_out", False)),
            sim_elapsed=float(doc.get("sim_elapsed") or 0.0),
            events=int(doc.get("events") or 0),
            counters=tuple(sorted(
                (str(name), float(value))
                for name, value in counters.items())),
            budget_exceeded=_optional(doc, "budget_exceeded", (str,), what),
        )
