"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while the
subclasses keep error handling precise in tests and in the CLI.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "UnsupportedConfigurationError",
    "MachineModelError",
    "IRVerificationError",
    "LintError",
    "AuditError",
    "LoweringError",
    "KernelValidationError",
    "ExperimentError",
    "ConfigError",
    "CacheError",
    "JournalError",
    "FaultError",
    "CellFailure",
    "RetryExhaustedError",
    "WorkerLost",
    "RunInterrupted",
    "ServiceError",
    "AdmissionError",
    "OverloadError",
    "DeadlineExpired",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class UnsupportedConfigurationError(ReproError):
    """A (programming model, device, precision) combination is unsupported.

    Mirrors the paper's support matrix: e.g. Python/Numba on AMD GPUs is
    deprecated, and Numba cannot generate FP16 random inputs.  Table III
    treats such combinations as efficiency 0 rather than an error, so the
    harness catches this exception and records the gap.
    """

    def __init__(self, model: str, target: str, reason: str = ""):
        self.model = model
        self.target = target
        self.reason = reason
        msg = f"{model} is not supported on {target}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class MachineModelError(ReproError):
    """Invalid or inconsistent machine specification."""


class IRVerificationError(ReproError):
    """A kernel IR failed structural verification (e.g. after a bad pass)."""


class LintError(IRVerificationError):
    """A kernel or pass failed static-analysis legality gating.

    Raised by :class:`repro.ir.passes.PassPipeline` when a pass's declared
    preconditions do not hold (an illegal interchange, a forced
    vectorisation of a strict-FP reduction, ...).  Subclasses
    :class:`IRVerificationError` so existing broad catches keep working,
    and carries the structured diagnostics so callers can read the stable
    code(s) and the offending kernel instead of parsing the message:

    * ``diagnostics`` — the error-severity :class:`repro.ir.lint.Diagnostic`
      objects that failed the gate;
    * ``codes`` — their stable codes (e.g. ``("L002",)``);
    * ``kernel`` — the name of the kernel being transformed;
    * ``context`` — who ran the pipeline (e.g. ``"Julia on AMD EPYC 7A53"``).
    """

    def __init__(self, message: str, diagnostics=(), kernel: str = "",
                 context: str = ""):
        self.diagnostics = tuple(diagnostics)
        self.codes = tuple(d.code for d in self.diagnostics)
        self.kernel = kernel
        self.context = context
        super().__init__(message)


class AuditError(ReproError):
    """The performance-portability auditor found an internal contradiction.

    Raised by :mod:`repro.ir.audit` when its independent re-derivation of a
    static quantity disagrees with the analytic model it is cross-checked
    against (e.g. a stride classification that does not reproduce
    :func:`repro.gpu.coalescing.analyze_coalescing`'s transaction count).
    This is never a property of the audited kernel — it means the auditor
    and the simulator have drifted apart and the static verdicts can no
    longer be trusted, so the audit aborts instead of reporting them.
    """


class LoweringError(ReproError):
    """A programming-model frontend could not lower the kernel."""


class KernelValidationError(ReproError):
    """A runnable kernel produced numerically wrong results."""


class ExperimentError(ReproError):
    """An experiment definition or run is inconsistent."""


class ConfigError(ReproError):
    """Invalid environment-style configuration value."""


def breaker_removed(source: str) -> ConfigError:
    """The error for an input that still names the removed lane breaker
    or fallback ladder.

    A breaker run served failing cells from other models or devices, so
    it measured something a plain run does not; such inputs are refused,
    never loaded as if they were plain.
    """
    return ConfigError(
        f"{source} names the lane breaker / fallback ladder, which was "
        f"removed: a cell that fails counts as e = 0, as in Table III; "
        f"rerun without breaker/fallback settings")


class CacheError(ReproError):
    """The sweep-result cache was used incorrectly (e.g. a malformed key).

    Corrupt or stale *entries* never raise: any unreadable, stale or
    semantically broken file is self-healed — evicted, counted, and the
    cell recomputed — so one bad byte on disk can never kill a campaign.
    This error is reserved for caller bugs such as malformed fingerprints.
    """


class JournalError(ReproError):
    """A run journal is unreadable, inconsistent or from different code.

    Raised when loading a write-ahead journal whose structure cannot be
    trusted: a checksum failure *before* the tail (torn tails are
    recovered silently, mid-file corruption is not), a missing run-open
    record, or a campaign fingerprint that no longer matches what the
    current code would produce for the recorded experiment — resuming
    such a run could not be byte-identical, so it is refused.
    """


class RunInterrupted(ReproError):
    """A journaled sweep was interrupted (SIGINT/SIGTERM) and finalized.

    Raised by :meth:`repro.harness.engine.SweepEngine.run` after a
    graceful shutdown: completed cells are safely in the write-ahead
    journal, a ``run-close`` record marks the run ``interrupted``, and
    the campaign can be completed with ``repro run --resume <run_id>``.

    * ``run_id`` — the journaled run's identity;
    * ``completed`` / ``total`` — cells finished vs. planned.
    """

    def __init__(self, message: str, run_id: str = "", completed: int = 0,
                 total: int = 0):
        self.run_id = run_id
        self.completed = completed
        self.total = total
        super().__init__(message)


class FaultError(ReproError):
    """An injected node fault hit one attempt of a sweep cell.

    Models the transient failures real campaigns on Crusher/Wombat contend
    with (OOM kills, hung kernels, thermal jitter spikes).  Carries the
    structured fault so the engine's retry loop can account simulated time
    and classify the failure:

    * ``fault`` — the :class:`repro.sim.faults.Fault` that fired;
    * ``cell`` — the ``model@shape`` cell coordinates;
    * ``attempt`` — which attempt (1-based) the fault hit.
    """

    def __init__(self, message: str, fault=None, cell: str = "",
                 attempt: int = 0):
        self.fault = fault
        self.cell = cell
        self.attempt = attempt
        super().__init__(message)


class CellFailure(ReproError):
    """One sweep cell failed permanently.

    Raised out of :meth:`repro.harness.engine.SweepEngine.run` only under
    ``fail_fast``; otherwise the engine isolates the failure, records the
    cell as a degraded ``failed`` measurement (the paper's e=0 accounting)
    and the sweep continues.

    * ``cell`` — the ``model@shape`` cell coordinates;
    * ``attempts`` — how many attempts were made;
    * ``reason`` — human-readable cause (last fault, error class, budget).
    """

    def __init__(self, message: str, cell: str = "", attempts: int = 0,
                 reason: str = ""):
        self.cell = cell
        self.attempts = attempts
        self.reason = reason
        super().__init__(message)


class ServiceError(ReproError):
    """The campaign service refused or failed a request.

    Covers daemon-side faults (an unreachable socket, a malformed wire
    request, an unknown campaign id) as distinct from the usage errors
    :class:`ConfigError` models — the CLI maps these to exit code 1.
    """


class AdmissionError(ServiceError):
    """A campaign submission was rejected by admission control.

    The scheduler's quota layer refused to queue the campaign — the
    tenant is at its per-tenant limit or the daemon at its global one.
    Not a malformed request: resubmitting after queued campaigns drain
    will succeed, which is why it is distinct from :class:`ConfigError`.

    * ``tenant`` — the fair-share account that hit the limit;
    * ``limit`` — the quota that was exceeded.
    """

    def __init__(self, message: str, tenant: str = "", limit: int = 0):
        self.tenant = tenant
        self.limit = limit
        super().__init__(message)


class OverloadError(ServiceError):
    """The service shed a request under load; retry after a delay.

    Raised (and sent over the wire as HTTP 429/503 with a
    ``Retry-After`` header) when the daemon is saturated — the scheduler
    backlog is near the admission ceiling, the scheduler loop has
    stopped granting, or the daemon is draining.  Not a refusal of the
    *request*: resubmitting the identical document after ``retry_after_s``
    is the expected reaction, which is why
    :class:`~repro.service.client.ClientPolicy` retries exactly this
    class (plus connection refusal) and nothing else.

    * ``retry_after_s`` — the daemon's backlog-derived hint for when to
      come back (seconds, >= 1).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        self.retry_after_s = float(retry_after_s)
        super().__init__(message)


class DeadlineExpired(ServiceError):
    """A campaign's request deadline lapsed before its cells finished.

    The service never aborts mid-cell: at the first cell boundary past
    ``deadline_s`` the campaign fails through the ordinary degraded
    path — every remaining cell is journaled as a ``failed`` (e = 0)
    measurement and the campaign lands in the terminal ``expired``
    state, visible in ``repro status`` and raised as this class by
    :meth:`~repro.service.client.ServiceClient.wait`.

    * ``campaign_id`` — the expired campaign;
    * ``deadline_s`` — the budget that lapsed.
    """

    def __init__(self, message: str, campaign_id: str = "",
                 deadline_s: float = 0.0):
        self.campaign_id = campaign_id
        self.deadline_s = float(deadline_s)
        super().__init__(message)


class RetryExhaustedError(CellFailure):
    """A cell kept faulting until the retry policy gave up.

    Subclass of :class:`CellFailure`: exhaustion (max attempts reached or
    the per-cell simulated-time budget spent) is one way a cell fails
    permanently, so broad ``except CellFailure`` handlers keep working.
    """


class WorkerLost(CellFailure):
    """A process-pool worker vanished or hung past its deadline.

    Raised out of the process engine only under ``fail_fast`` when the
    watchdog exhausts its redrive budget for a suspect cell (or its pool
    respawn budget for the run); otherwise the cell is isolated as a
    degraded ``failed`` measurement like any other permanent failure.
    Subclass of :class:`CellFailure` so existing handlers keep working.
    """
