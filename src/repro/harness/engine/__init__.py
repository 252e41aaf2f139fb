"""Sweep execution engine: one cell core, two execution paths, caching.

The substrate under ``run_campaign``, the figures, Table III,
``repro report`` and the campaign service: every (model, shape) cell of
a sweep is fingerprinted, served from the on-disk :class:`ResultCache`
when possible, and executed otherwise — inline (the default) or fanned
out over a process pool, with a deterministic merge that keeps engine
output bit-identical to the serial reference loop.  The per-cell state
machine lives once, in :mod:`repro.harness.engine.cell`.

Process-wide configuration (read once, on first use):

* ``REPRO_CACHE=off`` disables the result cache;
* ``REPRO_CACHE_DIR`` relocates it (default
  ``$XDG_CACHE_HOME/repro/results``);
* ``REPRO_JOBS=N`` caps the process-pool width (``1`` forces serial);
* ``REPRO_ENGINE=process`` fans cache-missed cells out over a
  ``ProcessPoolExecutor`` so ``--jobs`` scales past one core
  (``serial``, the default, runs them inline);
* ``REPRO_FAULTS`` / ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` /
  ``REPRO_MAX_CELL_SECONDS`` / ``REPRO_FAIL_FAST`` configure the
  resilience layer (see :class:`RunOptions`);
* ``REPRO_WATCHDOG`` tunes process-engine supervision — hang deadlines
  and pool respawn/redrive bounds (see :class:`WatchdogPolicy`).
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
    "set_default_engine",
    "reset_default_engine",
    "default_run_options",
    "set_default_run_options",
    "reset_default_run_options",
]

_default_engine: Optional[SweepEngine] = None


def default_engine() -> SweepEngine:
    """The process-wide engine, built from the environment on first use."""
    global _default_engine
    if _default_engine is None:
        _default_engine = SweepEngine.from_env()
    return _default_engine


def set_default_engine(engine: Optional[SweepEngine]) -> None:
    """Replace the process-wide engine (``None`` resets to lazy re-init)."""
    global _default_engine
    _default_engine = engine


def reset_default_engine() -> None:
    """Drop the process-wide engine so the next use re-reads the env."""
    set_default_engine(None)


_default_run_options: Optional[RunOptions] = None


def default_run_options() -> RunOptions:
    """The process-wide :class:`RunOptions`, from the environment on
    first use.  ``repro report`` and the figure builders call
    ``run_campaign`` with no explicit options; this is what they get,
    so a campaign inherits ``REPRO_FAULTS``-family knobs (or a CLI
    override installed via :func:`set_default_run_options`) everywhere."""
    global _default_run_options
    if _default_run_options is None:
        _default_run_options = RunOptions.from_env()
    return _default_run_options


def set_default_run_options(options: Optional[RunOptions]) -> None:
    """Replace the process-wide options (``None`` resets to lazy re-init)."""
    global _default_run_options
    _default_run_options = options


def reset_default_run_options() -> None:
    """Drop the process-wide options so the next use re-reads the env."""
    set_default_run_options(None)
