"""Parent-side supervision policy for the process engine.

An inline cell shares the parent's address space, so a crash there
*is* a crash of the run.  The process engine is different: a
worker can vanish without unwinding — SIGKILL'd by the OOM killer, a
segfault in a native extension, a ``kill -9`` from an operator — and
``concurrent.futures`` surfaces that as ``BrokenProcessPool`` on every
pending future at once.  A worker can also simply *hang* (a livelocked
kernel simulation, an NFS stall), which surfaces as nothing at all.

:class:`WatchdogPolicy` is the knob bundle the parent uses to turn both
failure shapes into recoverable events: a per-cell wall-clock deadline
for hang detection, a bound on how many times the pool may be killed
and respawned, and a bound on how many times any one suspect cell is
re-driven before it is failed through the normal degraded-cell path
(the paper's e = 0 accounting).  The policy is parent-side scaffolding,
not methodology: it never enters cell fingerprints or the journal's
options payload, so enabling it cannot change result bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...errors import ConfigError

__all__ = ["WatchdogPolicy"]


@dataclass(frozen=True)
class WatchdogPolicy:
    """How the process engine supervises its worker pool.

    ``cell_timeout_s`` is the hang deadline: how long the parent waits
    on the oldest outstanding cell before declaring the pool wedged
    (``None`` disables hang detection; crash detection via
    ``BrokenProcessPool`` needs no deadline and is always on while
    ``enabled``).  ``max_respawns`` bounds pool kill/rebuild cycles per
    run; ``max_redrives`` bounds how many times one cell is resubmitted
    after being the suspect of a crash or timeout.
    """

    #: Wall-clock deadline for the oldest outstanding cell (None = off).
    cell_timeout_s: Optional[float] = None
    #: Pool kill/respawn cycles allowed before unfinished cells fail.
    max_respawns: int = 3
    #: Resubmissions allowed per suspect cell before it fails degraded.
    max_redrives: int = 2
    #: Master switch; ``False`` restores the unsupervised PR-7 engine.
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigError("watchdog timeout must be positive")
        if self.max_respawns < 0 or self.max_redrives < 0:
            raise ConfigError("watchdog respawns/redrives must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "WatchdogPolicy":
        """Policy from a ``REPRO_WATCHDOG`` / ``--watchdog`` spec string.

        Grammar (same comma-separated ``key=value`` shape as
        ``REPRO_FAULTS``):

        * ``"off"`` — disable supervision entirely;
        * a bare number (``"30"``) — shorthand for ``timeout=30``;
        * ``"timeout=30,respawns=2,redrives=1"`` — any subset of the
          keys ``timeout`` (seconds, or ``off``), ``respawns``,
          ``redrives``.
        """
        text = (spec or "").strip()
        if not text or text.lower() == "on":
            return cls()
        if text.lower() in ("off", "0", "false", "no"):
            return cls(enabled=False)
        try:
            return cls(cell_timeout_s=float(text))
        except ValueError:
            pass
        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(
                    f"watchdog spec {spec!r}: expected key=value, "
                    f"got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "timeout":
                    parsed: object = (None if value.lower() == "off"
                                      else float(value))
                    field = "cell_timeout_s"
                elif key == "respawns":
                    parsed = int(value)
                    field = "max_respawns"
                elif key == "redrives":
                    parsed = int(value)
                    field = "max_redrives"
                else:
                    raise ConfigError(
                        f"watchdog spec {spec!r}: unknown key {key!r} "
                        f"(expected timeout/respawns/redrives)")
            except ValueError:
                raise ConfigError(
                    f"watchdog spec {spec!r}: bad value for {key!r}: "
                    f"{value!r}") from None
            if field in kwargs:
                raise ConfigError(
                    f"watchdog spec {spec!r}: duplicate key {key!r}")
            kwargs[field] = parsed
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line human rendering for logs and ``--engine-stats``."""
        if not self.enabled:
            return "off"
        timeout = ("none" if self.cell_timeout_s is None
                   else f"{self.cell_timeout_s:g}s")
        return (f"timeout={timeout}, respawns<={self.max_respawns}, "
                f"redrives<={self.max_redrives}")
