"""Sweep execution engine: one cell core, two execution paths, caching.

The substrate under ``run_campaign``, the figures, Table III,
``repro report`` and the campaign service: every (model, shape) cell of
a sweep is fingerprinted, served from the on-disk :class:`ResultCache`
when possible, and executed otherwise — inline (the default) or fanned
out over a process pool, with a deterministic merge that keeps engine
output bit-identical to the serial reference loop.  The per-cell state
machine lives once, in :mod:`repro.harness.engine.cell`.

Process-wide defaults: :func:`default_engine` and
:func:`default_run_options` are built on first use from the one pass
over the ``REPRO_*`` run settings, :func:`repro.config.resolve_run_settings`
(``REPRO_CACHE``, ``REPRO_JOBS`` and ``REPRO_ENGINE`` select the engine;
the fault, retry, breaker and watchdog settings form the options), and
the ``reset_*`` functions drop them so the next use reads the settings
again.  ``REPRO_CACHE_DIR`` relocates the cache (default
``$XDG_CACHE_HOME/repro/results``).
"""

from __future__ import annotations

from typing import Optional

from .cache import (CacheStats, LOCK_GRACE_SECONDS, ResultCache,
                    TMP_GRACE_SECONDS, default_cache_dir)
from .executor import ENGINE_MODES, CellRecord, SweepEngine, SweepReport
from .fingerprint import (
    CONSTANTS_VERSION,
    campaign_fingerprint,
    cell_fingerprint,
    fingerprint_payload,
)
from .options import RetryPolicy, RunOptions
from .watchdog import WatchdogPolicy
from .worker import CellTask, RunPayload, execute_cell_payload

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "TMP_GRACE_SECONDS",
    "LOCK_GRACE_SECONDS",
    "WatchdogPolicy",
    "CellRecord",
    "CellTask",
    "ENGINE_MODES",
    "RunPayload",
    "execute_cell_payload",
    "SweepEngine",
    "SweepReport",
    "CONSTANTS_VERSION",
    "campaign_fingerprint",
    "cell_fingerprint",
    "fingerprint_payload",
    "RetryPolicy",
    "RunOptions",
    "default_engine",
    "reset_default_engine",
    "default_run_options",
    "set_default_run_options",
    "reset_default_run_options",
]

_default_engine: Optional[SweepEngine] = None


def default_engine() -> SweepEngine:
    """The process-wide engine, built from the run settings on first use."""
    global _default_engine
    if _default_engine is None:
        from ...config import resolve_run_settings
        settings = resolve_run_settings()
        _default_engine = SweepEngine(
            cache=None if settings["cache"] is False else ResultCache(),
            max_workers=settings["jobs"],
            mode=settings["engine"] or "serial")
    return _default_engine


def reset_default_engine() -> None:
    """Drop the process-wide engine so the next use re-reads the env."""
    global _default_engine
    _default_engine = None


_default_run_options: Optional[RunOptions] = None


def default_run_options() -> RunOptions:
    """The process-wide :class:`RunOptions`, from the run settings on
    first use.  ``repro report`` and the figure builders call
    ``run_campaign`` with no explicit options; this is what they get,
    so a campaign inherits ``REPRO_FAULTS``-family knobs (or a CLI
    override installed via :func:`set_default_run_options`) everywhere."""
    global _default_run_options
    if _default_run_options is None:
        from ...config import resolve_run_options
        _default_run_options = resolve_run_options()
    return _default_run_options


def set_default_run_options(options: Optional[RunOptions]) -> None:
    """Replace the process-wide options (``None`` resets to lazy re-init)."""
    global _default_run_options
    _default_run_options = options


def reset_default_run_options() -> None:
    """Drop the process-wide options so the next use re-reads the env."""
    set_default_run_options(None)
