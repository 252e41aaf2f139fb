"""Environment-style run configuration.

The paper controls every experiment through environment variables
(``OMP_NUM_THREADS``, ``OMP_PROC_BIND``, ``JULIA_EXCLUSIVE``,
``NUMBA_NUM_THREADS``, ``NUMBA_OPT``...).  :class:`RunConfig` reproduces
that surface: a flat mapping of variable names to strings, with typed
accessors and per-model views.  Programming-model frontends consult it to
decide thread counts and pinning policy — including the paper's observation
that Numba exposes *no* pinning knob at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from .errors import ConfigError

__all__ = ["RunConfig", "KNOWN_VARIABLES", "resolve_campaign_spec"]

#: Environment variables with meaning to at least one programming model,
#: mirroring Tables I/II and Appendix A of the paper.
KNOWN_VARIABLES: Dict[str, str] = {
    "OMP_NUM_THREADS": "OpenMP/Kokkos-OpenMP thread count",
    "OMP_PROC_BIND": "OpenMP thread binding policy (true/false/close/spread)",
    "OMP_PLACES": "OpenMP thread placement (threads/cores/sockets)",
    "JULIA_NUM_THREADS": "Julia thread count (immutable per run)",
    "JULIA_EXCLUSIVE": "pin Julia threads to cores in strict order (0/1)",
    "NUMBA_NUM_THREADS": "Numba thread count",
    "NUMBA_OPT": "Numba optimisation level (default 3)",
    "KOKKOS_DEVICES": "Kokkos backend selected at compile time",
    "KOKKOS_ARCH": "Kokkos target architecture",
    "JULIA_CUDA_USE_BINARYBUILDER": "use system CUDA instead of artifacts",
    # Sweep-engine knobs (repro.harness.engine), not part of the paper's
    # surface but configured the same environment-variable way.
    "REPRO_CACHE": "sweep result cache on/off (default on)",
    "REPRO_CACHE_DIR": "sweep result cache directory",
    "REPRO_JOBS": "sweep engine worker-pool width (1 = serial)",
    "REPRO_ENGINE": "sweep executor: serial (default) or process",
    "REPRO_FAULTS": "fault-injection spec (e.g. rate=0.2,seed=7,always=numba@512)",
    "REPRO_RETRIES": "retries per sweep cell after a fault (default 0)",
    "REPRO_BACKOFF": "base simulated backoff seconds between retries",
    "REPRO_MAX_CELL_SECONDS": "per-cell simulated-time budget for retries",
    "REPRO_FAIL_FAST": "abort the sweep on the first permanent cell failure",
    "REPRO_BREAKER": "circuit-breaker spec (e.g. threshold=3,cooldown=300)",
    "REPRO_FALLBACK": "fallback-ladder spec (e.g. numba@gpu=numba@cpu+reference)",
    "REPRO_RUNS_DIR": "run-journal registry directory",
    "REPRO_JOURNAL": "write-ahead run journal on/off (default on)",
    "REPRO_WATCHDOG": "process-pool watchdog spec (e.g. "
                      "timeout=30,respawns=2,redrives=1; 'off' disables)",
    "REPRO_CHAOS_PLAN": "armed chaos-plan file for crash-fault drills "
                        "(normally unset)",
    # Campaign-service knobs (repro.service): tenancy defaults for
    # `repro submit` and the daemon socket location.
    "REPRO_TENANT": "fair-share tenant campaigns bill to (default 'default')",
    "REPRO_PRIORITY": "campaign priority within the tenant queue (default 0)",
    "REPRO_SERVICE_SOCKET": "campaign-service Unix socket path",
    "REPRO_DEADLINE": "campaign wall-clock deadline in seconds "
                      "(expired campaigns degrade, default none)",
    "REPRO_SUBMISSION_KEY": "idempotency key for `repro submit` retries "
                            "(default none)",
    "REPRO_CLIENT_RETRIES": "client retries on 429/503/connect-refused "
                            "(default 0)",
}

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on", "close", "spread"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off", ""})


@dataclass
class RunConfig:
    """A bag of environment-variable style settings for one experiment run.

    Unknown variables are accepted (real launch scripts carry plenty of
    noise) but :meth:`validate` flags typos of known variables by fuzzy
    matching, which is the usual way pinning silently fails on real systems.
    """

    env: Dict[str, str] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_os_environ(cls) -> "RunConfig":
        """Snapshot the real process environment (known variables only)."""
        return cls({k: v for k, v in os.environ.items() if k in KNOWN_VARIABLES})

    @classmethod
    def openmp(cls, threads: int, pin: bool = True) -> "RunConfig":
        """The paper's C/OpenMP launch configuration (Fig. 8)."""
        cfg = cls({"OMP_NUM_THREADS": str(threads)})
        if pin:
            cfg.env["OMP_PROC_BIND"] = "true"
            cfg.env["OMP_PLACES"] = "threads"
        return cfg

    @classmethod
    def julia(cls, threads: int, exclusive: bool = True) -> "RunConfig":
        """The paper's Julia launch configuration (JULIA_EXCLUSIVE=1)."""
        cfg = cls({"JULIA_NUM_THREADS": str(threads)})
        if exclusive:
            cfg.env["JULIA_EXCLUSIVE"] = "1"
        return cfg

    @classmethod
    def numba(cls, threads: int) -> "RunConfig":
        """Numba launch configuration.

        Note there is deliberately no pinning option: "there is currently no
        mechanism for setting a thread binding/pinning policy" (Sec. III-A).
        """
        return cls({"NUMBA_NUM_THREADS": str(threads), "NUMBA_OPT": "3"})

    # -- typed accessors --------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.env.get(name, default)

    def get_int(self, name: str, default: int) -> int:
        raw = self.env.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}={raw!r} is not an integer") from exc
        if value <= 0:
            raise ConfigError(f"{name}={value} must be positive")
        return value

    def get_float(self, name: str,
                  default: Optional[float] = None) -> Optional[float]:
        """Positive-float accessor; the default passes through untyped so
        callers can use ``None`` for "unset"."""
        raw = self.env.get(name)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}={raw!r} is not a number") from exc
        if value <= 0:
            raise ConfigError(f"{name}={value} must be positive")
        return value

    def get_bool(self, name: str, default: bool = False) -> bool:
        raw = self.env.get(name)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise ConfigError(f"{name}={raw!r} is not a boolean value")

    # -- semantic views ---------------------------------------------------

    def threads_for(self, model_family: str, hardware_threads: int) -> int:
        """Thread count a given model family would use on this config.

        ``model_family`` is one of ``"openmp"``, ``"julia"``, ``"numba"``.
        Falls back to all hardware threads, which is what each runtime does
        by default on a dedicated node.
        """
        var = {
            "openmp": "OMP_NUM_THREADS",
            "kokkos": "OMP_NUM_THREADS",
            "julia": "JULIA_NUM_THREADS",
            "numba": "NUMBA_NUM_THREADS",
        }.get(model_family)
        if var is None:
            raise ConfigError(f"unknown model family {model_family!r}")
        return self.get_int(var, hardware_threads)

    def pinning_for(self, model_family: str) -> bool:
        """Whether threads are pinned for the given model family.

        Numba always returns False: the API has no pinning mechanism, which
        the paper identifies as one cause of its NUMA-sensitive slowdown.
        """
        if model_family in ("openmp", "kokkos"):
            return self.get_bool("OMP_PROC_BIND", False)
        if model_family == "julia":
            return self.get_bool("JULIA_EXCLUSIVE", False)
        if model_family == "numba":
            return False
        raise ConfigError(f"unknown model family {model_family!r}")

    # -- hygiene ----------------------------------------------------------

    def validate(self) -> list:
        """Return warnings for suspicious entries (unknown near-miss names)."""
        warnings = []
        known = set(KNOWN_VARIABLES)
        for name in self.env:
            if name in known:
                continue
            for candidate in known:
                if _close_match(name, candidate):
                    warnings.append(
                        f"unknown variable {name!r}: did you mean {candidate!r}?"
                    )
                    break
        return warnings

    def merged(self, other: Mapping[str, str]) -> "RunConfig":
        """New config with ``other`` layered on top."""
        merged = dict(self.env)
        merged.update(other)
        return RunConfig(merged)

    def __iter__(self) -> Iterator[str]:
        return iter(self.env)

    def __len__(self) -> int:
        return len(self.env)


def resolve_campaign_spec(experiment, cli: Optional[Mapping[str, object]] = None,
                          environ: Optional[Mapping[str, str]] = None):
    """THE precedence pass: CLI flags > ``REPRO_*`` env vars > defaults.

    Every way of requesting a campaign — ``repro run`` flags, ``repro
    submit``, the daemon's wire API, library calls — funnels through
    this one function so the precedence rules live in exactly one place:

    1. **CLI** — a non-``None`` entry in ``cli`` wins outright.  Keys
       mirror the run-subcommand flags: ``faults``, ``retries``,
       ``max_cell_seconds``, ``fail_fast`` (``True`` only; ``False``
       means "flag not given"), ``breaker``, ``fallback``, ``cache``,
       ``jobs``, ``engine`` (``serial``/``thread``/``process``),
       ``tenant``, ``priority``, ``deadline``, ``submission_key``.
    2. **Environment** — the ``REPRO_*`` family documented in
       :data:`KNOWN_VARIABLES` fills anything the CLI left unset.
    3. **Defaults** — fields neither layer set stay ``None`` in the
       spec, which means "inherit the process-wide default" at run time
       (tenant defaults to ``"default"``, priority to ``0``).

    Composite knobs resolve *per component*: ``--retries 3`` with
    ``REPRO_BACKOFF=2`` yields a retry policy with the CLI's attempt
    count and the environment's backoff, matching the historical
    behaviour of layering CLI flags over ``RunOptions.from_env()``.

    Returns a :class:`repro.service.spec.CampaignSpec` (imported lazily
    to keep this module dependency-free at import time).
    """
    from .harness.engine.options import RetryPolicy
    from .harness.health import BreakerPolicy, FallbackLadder
    from .service.spec import CampaignSpec
    from .sim.faults import FaultConfig

    cli = dict(cli or {})
    cfg = RunConfig({k: v for k, v in (environ if environ is not None
                                       else os.environ).items()
                     if k in KNOWN_VARIABLES})

    def pick(key: str, env_var: str):
        if cli.get(key) is not None:
            return cli[key]
        return cfg.get(env_var)

    faults_spec = pick("faults", "REPRO_FAULTS")
    faults = None
    if faults_spec is not None:
        faults = (faults_spec if isinstance(faults_spec, FaultConfig)
                  else FaultConfig.parse(str(faults_spec)))

    retries = cli.get("retries")
    if retries is None:
        raw = cfg.get("REPRO_RETRIES")
        if raw is not None:
            try:
                retries = int(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"REPRO_RETRIES={raw!r} is not an integer") from exc
    if retries is not None and retries < 0:
        raise ConfigError(f"retries {retries} must be >= 0")
    backoff = cfg.get_float("REPRO_BACKOFF", None)
    budget = cli.get("max_cell_seconds")
    if budget is None:
        budget = cfg.get_float("REPRO_MAX_CELL_SECONDS", None)
    retry = None
    if retries is not None or backoff is not None or budget is not None:
        retry = RetryPolicy(
            max_attempts=(retries + 1 if retries is not None else 1),
            backoff_base_s=(backoff if backoff is not None else 0.5),
            max_cell_seconds=budget,
        )

    fail_fast = True if cli.get("fail_fast") else None
    if fail_fast is None and "REPRO_FAIL_FAST" in cfg.env:
        fail_fast = cfg.get_bool("REPRO_FAIL_FAST", False)

    breaker_spec = pick("breaker", "REPRO_BREAKER")
    breaker = None
    if breaker_spec is not None:
        breaker = (breaker_spec if isinstance(breaker_spec, BreakerPolicy)
                   else BreakerPolicy.parse(str(breaker_spec)))
    fallback_spec = pick("fallback", "REPRO_FALLBACK")
    fallback = None
    if fallback_spec is not None:
        fallback = (fallback_spec if isinstance(fallback_spec, FallbackLadder)
                    else FallbackLadder.parse(str(fallback_spec)))

    cache = cli.get("cache")
    if cache is None and "REPRO_CACHE" in cfg.env:
        cache = cfg.get_bool("REPRO_CACHE", True)

    jobs = cli.get("jobs")
    if jobs is None and "REPRO_JOBS" in cfg.env:
        jobs = cfg.get_int("REPRO_JOBS", 1)

    engine = cli.get("engine")
    if engine is None:
        engine = cfg.get("REPRO_ENGINE")

    tenant = cli.get("tenant") or cfg.get("REPRO_TENANT") or "default"

    priority = cli.get("priority")
    if priority is None:
        raw = cfg.get("REPRO_PRIORITY")
        if raw is not None:
            try:
                priority = int(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"REPRO_PRIORITY={raw!r} is not an integer") from exc

    deadline = cli.get("deadline")
    if deadline is None:
        deadline = cfg.get_float("REPRO_DEADLINE", None)

    submission_key = cli.get("submission_key")
    if submission_key is None:
        submission_key = cfg.get("REPRO_SUBMISSION_KEY")

    return CampaignSpec(
        experiment=experiment,
        engine=engine,
        jobs=jobs,
        cache=cache,
        faults=faults,
        retry=retry,
        fail_fast=fail_fast,
        breaker=breaker,
        fallback=fallback,
        tenant=str(tenant),
        priority=int(priority) if priority is not None else 0,
        deadline_s=float(deadline) if deadline is not None else None,
        submission_key=(str(submission_key)
                        if submission_key is not None else None),
    )


def _close_match(a: str, b: str) -> bool:
    """Cheap edit-distance-1-ish comparison for typo detection."""
    a, b = a.upper(), b.upper()
    if a == b:
        return True
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) == 1
    shorter, longer = (a, b) if len(a) < len(b) else (b, a)
    for i in range(len(longer)):
        if longer[:i] + longer[i + 1:] == shorter:
            return True
    return False
