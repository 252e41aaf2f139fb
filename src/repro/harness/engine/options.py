"""Run options: the one immutable bag of knobs behind ``run_campaign``.

Replaces the loose keyword arguments that used to thread through the
runner and ``SweepEngine.run`` — cache toggles, job
counts, profilers, and (new with the fault layer) the retry policy and
fault configuration all travel together in a frozen :class:`RunOptions`.

Retries happen in *simulated* time: the exponential backoff of
:class:`RetryPolicy` charges seconds against the per-cell budget and the
trace timeline without ever sleeping, so a fault-heavy campaign still
runs at full host speed and remains bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional

from ...errors import ConfigError
from ...sim.faults import FaultConfig
from ...trace.profiler import Profiler
from .watchdog import WatchdogPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...harness.journal import RunJournal
    from ..results import Measurement

__all__ = ["RetryPolicy", "RunOptions"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/backoff budget for one sweep cell.

    * ``max_attempts`` — total attempts per cell (1 = no retries);
    * ``backoff_base_s`` / ``backoff_factor`` — exponential backoff in
      simulated seconds: attempt *k*'s failure waits
      ``base * factor**(k-1)`` before attempt *k+1*;
    * ``max_cell_seconds`` — per-cell simulated-time budget covering
      failed attempts plus backoff; ``None`` means unbounded.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    max_cell_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts {self.max_attempts} < 1")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff factor must be >= 1")
        if self.max_cell_seconds is not None and self.max_cell_seconds <= 0:
            raise ConfigError("per-cell budget must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Simulated backoff after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ConfigError(f"attempt numbers are 1-based, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)

    def payload(self) -> dict:
        """Canonical JSON-serialisable form (journal / spec document)."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "max_cell_seconds": self.max_cell_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RetryPolicy":
        """Inverse of :meth:`payload` (the journal-restore path)."""
        budget = payload.get("max_cell_seconds")
        return cls(
            max_attempts=int(payload.get("max_attempts", 1)),
            backoff_base_s=float(payload.get("backoff_base_s", 0.5)),
            backoff_factor=float(payload.get("backoff_factor", 2.0)),
            max_cell_seconds=float(budget) if budget is not None else None,
        )

    def describe(self) -> str:
        if self.max_attempts == 1:
            return "no retries"
        budget = (f", budget {self.max_cell_seconds:g}s/cell"
                  if self.max_cell_seconds is not None else "")
        return (f"up to {self.max_attempts} attempts, backoff "
                f"{self.backoff_base_s:g}s x{self.backoff_factor:g}{budget}")


@dataclass(frozen=True)
class RunOptions:
    """Everything one ``run_campaign`` call may tune, in one place.

    Tri-state ``cache``/``jobs`` (``None`` = process default) keep
    the zero-configuration path identical to passing no options at all.
    Construct with keywords — the dataclass is frozen, and positional
    construction is considered private.
    """

    cache: Optional[bool] = None
    jobs: Optional[int] = None
    profiler: Optional[Profiler] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: FaultConfig = field(default_factory=FaultConfig)
    fail_fast: bool = False
    #: Write-ahead journal for this run (crash-safe campaigns).  ``None``
    #: keeps the classic, unjournaled engine behaviour.
    journal: Optional["RunJournal"] = None
    #: Fingerprint -> measurement replay map from a prior run's journal;
    #: cells found here are served without touching cache or simulator.
    replay: Optional[Mapping[str, "Measurement"]] = None
    #: Explicit run identity; defaults to the journal's (if any).
    run_id: Optional[str] = None
    #: Process-engine supervision (hang deadlines, pool respawn bounds).
    #: Parent-side scaffolding only: never fingerprinted or journaled,
    #: so the policy cannot change result bytes.
    watchdog: WatchdogPolicy = field(default_factory=WatchdogPolicy)

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError(f"jobs {self.jobs} < 1")

    def with_profiler(self, profiler: Optional[Profiler]) -> "RunOptions":
        """Copy with ``profiler`` swapped in (``None`` leaves it alone)."""
        if profiler is None:
            return self
        return replace(self, profiler=profiler)

    def payload(self) -> dict:
        """The resilience knobs as a JSON-serialisable dict.

        Written into the journal's ``run-open`` record so resume can
        restore exactly the fault/retry configuration that shaped the
        original run (those knobs decide *which* cells fail, so byte-
        identical resume must reuse them, not the current environment).
        """
        return {
            "faults": self.faults.payload(),
            "retry": self.retry.payload(),
            "fail_fast": self.fail_fast,
        }

    @property
    def resilient(self) -> bool:
        """Whether any fault/retry machinery is active for this run."""
        return (self.faults.enabled or self.retry.max_attempts > 1
                or self.fail_fast)
