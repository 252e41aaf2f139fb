"""The unified campaign request object: one frozen, serializable spec.

A :class:`CampaignSpec` is the single way to ask this codebase to run a
sweep.  CLI flags, ``REPRO_*`` environment variables and the daemon's
wire API all resolve into one (see
:func:`repro.config.resolve_campaign_spec` for the documented precedence
pass), and everything downstream — :func:`repro.harness.runner.
run_campaign`, the journal's campaign records, ``repro submit --spec
file.json`` — consumes or round-trips the same object through one codec.

The JSON codec is versioned the way the export schema is
(:mod:`repro.harness.export`): ``spec_to_dict`` stamps
:data:`SPEC_VERSION`, ``spec_from_dict`` loads every version in
:data:`SUPPORTED_SPEC_VERSIONS` with per-version fallbacks, and a
document from a *newer* build is refused rather than silently
misread.  Keys are sparse — ``None``/default fields are omitted — so a
minimal spec serializes to just its experiment plus the version stamp.

Schema history:

* v1 — initial: experiment (the export-schema experiment block), engine
  mode / jobs / cache tri-states, the resilience grammars (faults,
  retry, fail_fast; v1 also had breaker and fallback) in their journal
  payload forms, and the service-level ``tenant`` / ``priority`` pair.
* v2 — adds two optional service-level fields: ``deadline_s`` (a
  wall-clock budget from submission; at the first cell boundary past it
  the campaign expires through the degraded path) and
  ``submission_key`` (a client-generated idempotency token; a retried
  submit carrying the same key returns the original campaign id instead
  of a duplicate).  Both are sparse, so every v1 document loads
  unchanged with the fields unset — and neither ever enters cell or
  campaign fingerprints, so result bytes cannot depend on them.

Documents of either version may name ``"engine": "thread"``, an
executor that no longer exists; they load as ``"serial"``.  The engine
never enters a fingerprint, so a daemon recovering such a journal
resumes the same campaign.  A document that names the removed
``breaker`` or ``fallback`` is refused with :class:`ConfigError`: that
campaign's failing cells were served by other lanes, which a plain run
never does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..errors import ConfigError, breaker_removed
from ..harness.experiment import Experiment
from ..harness.engine.executor import ENGINE_MODES
from ..harness.engine.options import RetryPolicy, RunOptions
from ..sim.faults import FaultConfig

__all__ = [
    "SPEC_VERSION",
    "SUPPORTED_SPEC_VERSIONS",
    "CampaignSpec",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
]

#: Version stamped into every serialized spec; bumped on shape changes.
SPEC_VERSION = 2

#: Spec versions :func:`spec_from_dict` can load.
SUPPORTED_SPEC_VERSIONS = (1, 2)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one campaign asks for, in one immutable request.

    ``None`` fields mean "inherit the process default" — the same
    tri-state convention :class:`~repro.harness.engine.RunOptions` uses
    for cache/jobs — so a bare ``CampaignSpec(experiment=exp)`` behaves
    exactly like a run with no flags and no environment overrides.

    * ``engine``/``jobs``/``cache`` — executor selection;
    * ``faults``/``retry``/``fail_fast`` — the resilience layer, same
      grammars as the CLI flags;
    * ``tenant``/``priority`` — service-level identity: which fair-share
      account the campaign bills to, and its rank *within* that tenant's
      queue (higher runs first; cross-tenant order is the scheduler's);
    * ``deadline_s`` — optional wall-clock budget measured from
      submission; lapsing expires the campaign at the next cell
      boundary through the degraded path (v2);
    * ``submission_key`` — optional client-generated idempotency token;
      a retried submit with the same key returns the original campaign
      id instead of creating a duplicate (v2).
    """

    experiment: Experiment
    engine: Optional[str] = None
    jobs: Optional[int] = None
    cache: Optional[bool] = None
    faults: Optional[FaultConfig] = None
    retry: Optional[RetryPolicy] = None
    fail_fast: Optional[bool] = None
    tenant: str = "default"
    priority: int = 0
    deadline_s: Optional[float] = None
    submission_key: Optional[str] = None

    def __post_init__(self) -> None:
        check_spec_fields(self.__dict__)

    # -- lowering to RunOptions -------------------------------------------

    def run_options(self, base: Optional[RunOptions] = None) -> RunOptions:
        """The :class:`RunOptions` this spec resolves to.

        Starts from ``base`` (default: the process-wide options, which
        carry the ``REPRO_FAULTS``-family environment) and overlays every
        non-``None`` resilience field, so an unset field genuinely means
        "inherit" rather than "reset to factory default".
        """
        if base is None:
            from ..harness.engine import default_run_options
            base = default_run_options()
        out = base
        if self.cache is not None:
            out = replace(out, cache=self.cache)
        if self.jobs is not None:
            out = replace(out, jobs=self.jobs)
        if self.faults is not None:
            out = replace(out, faults=self.faults)
        if self.retry is not None:
            out = replace(out, retry=self.retry)
        if self.fail_fast is not None:
            out = replace(out, fail_fast=self.fail_fast)
        return out

    def describe(self) -> str:
        """One line for the scheduler/status views."""
        exp = self.experiment
        knobs = []
        if self.engine:
            knobs.append(self.engine)
        if self.faults is not None and self.faults.enabled:
            knobs.append("faults")
        extra = f" [{', '.join(knobs)}]" if knobs else ""
        return (f"{exp.exp_id}: {len(exp.models)} models x "
                f"{len(exp.sizes)} sizes, tenant={self.tenant}, "
                f"priority={self.priority}{extra}")


def check_spec_fields(fields: Dict[str, Any]) -> None:
    """Raise :class:`ConfigError` unless ``fields`` holds valid values for
    the :class:`CampaignSpec` fields it validates (engine, jobs, tenant,
    priority, deadline_s, submission_key)."""
    engine = fields.get("engine")
    if engine is not None and engine not in ENGINE_MODES:
        raise ConfigError(
            f"engine must be one of {'/'.join(ENGINE_MODES)} or "
            f"None, got {engine!r}")
    jobs = fields.get("jobs")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs {jobs} < 1")
    tenant = fields.get("tenant")
    if not tenant or not isinstance(tenant, str):
        raise ConfigError("tenant must be a non-empty string")
    if any(c in tenant for c in " \t\n/"):
        raise ConfigError(
            f"tenant {tenant!r} may not contain whitespace or '/'")
    priority = fields.get("priority")
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ConfigError(f"priority {priority!r} must be an int")
    deadline = fields.get("deadline_s")
    if deadline is not None:
        if (isinstance(deadline, bool)
                or not isinstance(deadline, (int, float))
                or not deadline > 0):
            raise ConfigError(
                f"deadline_s {deadline!r} must be a positive "
                f"number of seconds")
    key = fields.get("submission_key")
    if key is not None:
        if (not isinstance(key, str) or not key
                or any(c.isspace() for c in key)):
            raise ConfigError(
                f"submission_key {key!r} must be a "
                f"non-empty string without whitespace")


# -- codec ----------------------------------------------------------------

def spec_to_dict(spec: CampaignSpec) -> Dict[str, Any]:
    """Serialize one spec (sparse: unset fields are omitted)."""
    out: Dict[str, Any] = {
        "spec_version": SPEC_VERSION,
        "experiment": spec.experiment.to_dict(),
        "tenant": spec.tenant,
        "priority": spec.priority,
    }
    if spec.engine is not None:
        out["engine"] = spec.engine
    if spec.jobs is not None:
        out["jobs"] = spec.jobs
    if spec.cache is not None:
        out["cache"] = spec.cache
    if spec.faults is not None:
        out["faults"] = spec.faults.payload()
    if spec.retry is not None:
        out["retry"] = spec.retry.payload()
    if spec.fail_fast is not None:
        out["fail_fast"] = spec.fail_fast
    if spec.deadline_s is not None:
        out["deadline_s"] = spec.deadline_s
    if spec.submission_key is not None:
        out["submission_key"] = spec.submission_key
    return out


def spec_from_dict(data: Dict[str, Any]) -> CampaignSpec:
    """Load a spec of any supported version.

    Fallback loader in the export-schema tradition: a document without a
    ``spec_version`` stamp is treated as v1 (the stamp has existed since
    the codec did, so only hand-written files hit this), a v1 document
    loads with the v2 fields (``deadline_s``, ``submission_key``)
    unset, and a document from a *newer* build is refused with a
    :class:`ConfigError` rather than loaded with fields silently
    dropped.  The retired ``"thread"`` engine loads as ``"serial"``; a
    ``breaker`` or ``fallback`` key raises :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"campaign spec must be a JSON object, "
                          f"got {type(data).__name__}")
    version = data.get("spec_version", 1)
    if version not in SUPPORTED_SPEC_VERSIONS:
        raise ConfigError(
            f"campaign spec version {version!r} is not supported by this "
            f"build (supported: {', '.join(map(str, SUPPORTED_SPEC_VERSIONS))})")
    if "breaker" in data or "fallback" in data:
        raise breaker_removed("campaign spec")
    if "experiment" not in data:
        raise ConfigError("campaign spec carries no experiment block")
    try:
        experiment = Experiment.from_dict(data["experiment"])
    except Exception as exc:
        raise ConfigError(f"campaign spec experiment is invalid: {exc}") \
            from exc
    jobs = data.get("jobs")
    engine = data.get("engine")
    if engine == "thread":
        engine = "serial"
    priority = data.get("priority", 0)
    try:
        priority = int(priority)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"priority {priority!r} must be an int") from exc
    return CampaignSpec(
        experiment=experiment,
        engine=engine,
        jobs=int(jobs) if jobs is not None else None,
        cache=(bool(data["cache"]) if "cache" in data else None),
        faults=(FaultConfig.from_payload(data["faults"])
                if "faults" in data else None),
        retry=(RetryPolicy.from_payload(data["retry"])
               if "retry" in data else None),
        fail_fast=(bool(data["fail_fast"]) if "fail_fast" in data else None),
        tenant=str(data.get("tenant", "default")),
        priority=priority,
        deadline_s=(float(data["deadline_s"])
                    if data.get("deadline_s") is not None else None),
        submission_key=(str(data["submission_key"])
                        if data.get("submission_key") is not None else None),
    )


def spec_to_json(spec: CampaignSpec, indent: int = 2) -> str:
    """The wire/journal/file rendering (stable key order)."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def spec_from_json(text: str) -> CampaignSpec:
    """Parse a serialized spec; ``ConfigError`` names what is wrong."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"campaign spec is not valid JSON: {exc}") from exc
    return spec_from_dict(data)
