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

__all__ = ["RunConfig", "KNOWN_VARIABLES", "resolve_campaign_spec",
           "resolve_run_options", "resolve_run_settings"]

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
    # surface but configured the same environment-variable way.  The run
    # settings among them are read once, by resolve_run_settings, where an
    # empty value means unset; the deployment paths (REPRO_CACHE_DIR,
    # REPRO_RUNS_DIR, REPRO_SERVICE_SOCKET) and REPRO_CHAOS_PLAN are read
    # where they are used, and an empty one means unset there too.
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

    def get_int(self, name: str, default: Optional[int],
                minimum: Optional[int] = 1) -> Optional[int]:
        """Integer accessor; values below ``minimum`` (default: positive
        only; ``None`` accepts any integer) are rejected."""
        raw = self.env.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}={raw!r} is not an integer") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(
                f"{name}={value} must be "
                + ("positive" if minimum == 1 else f">= {minimum}"))
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

    def get_bool(self, name: str,
                 default: Optional[bool] = False) -> Optional[bool]:
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


#: Settings of :func:`resolve_run_settings` that configure this process
#: rather than the campaign, so they never enter a spec.
_PROCESS_SETTINGS = ("watchdog", "journal", "client_retries")


def resolve_run_settings(cli: Optional[Mapping[str, object]] = None,
                         environ: Optional[Mapping[str, str]] = None,
                         ) -> Dict[str, object]:
    """THE precedence pass: CLI flags > ``REPRO_*`` env vars > defaults.

    Every run setting of :data:`KNOWN_VARIABLES` is read here and
    nowhere else: :func:`resolve_campaign_spec`, :func:`resolve_run_options`
    and the process-wide engine all build from this one pass.

    1. **CLI** — a non-``None`` entry in ``cli`` wins outright, without
       the variable being read.  Keys mirror the run-subcommand flags:
       ``faults``, ``retries``, ``max_cell_seconds``, ``fail_fast``
       (``True`` only; ``False`` means "flag not given"), ``breaker``,
       ``fallback``, ``cache``, ``jobs``, ``engine``
       (``serial``/``process``), ``tenant``, ``priority``, ``deadline``,
       ``submission_key``, ``watchdog``, ``journal``, ``client_retries``.
    2. **Environment** — the ``REPRO_*`` variables fill anything the CLI
       left unset.  An empty value means unset; any other value is
       parsed by :class:`RunConfig`'s typed accessors or the policy's
       grammar, and a bad one is a :class:`ConfigError`.
    3. **Defaults** — campaign fields neither layer set stay ``None``,
       which means "inherit the process-wide default" at run time
       (tenant defaults to ``"default"``, priority to ``0``); the
       watchdog defaults to :class:`WatchdogPolicy`'s, journaling to on,
       client retries to ``0``.

    Composite knobs resolve *per component*: ``--retries 3`` with
    ``REPRO_BACKOFF=2`` yields a retry policy with the CLI's attempt
    count and the environment's backoff.

    Returns the :class:`~repro.service.spec.CampaignSpec` fields (all
    but ``experiment``) plus ``watchdog``, ``journal`` and
    ``client_retries``, validated as a spec validates them.
    """
    from .harness.engine.options import RetryPolicy
    from .harness.engine.watchdog import WatchdogPolicy
    from .harness.health import BreakerPolicy, FallbackLadder
    from .service.spec import check_spec_fields
    from .sim.faults import FaultConfig

    cli = {k: v for k, v in (cli or {}).items() if v is not None}
    if not cli.get("fail_fast"):
        cli.pop("fail_fast", None)
    env = RunConfig({k: v for k, v in (os.environ if environ is None
                                       else environ).items()
                     if k in KNOWN_VARIABLES and v.strip()})

    def pick(key: str, var: str, read=env.get):
        return cli[key] if key in cli else read(var)

    def policy(key: str, var: str, cls):
        value = pick(key, var)
        if value is None or isinstance(value, cls):
            return value
        return cls.parse(str(value))

    retries = pick("retries", "REPRO_RETRIES",
                   lambda var: env.get_int(var, None, minimum=0))
    if retries is not None and retries < 0:
        raise ConfigError(f"retries {retries} must be >= 0")
    backoff = env.get_float("REPRO_BACKOFF")
    budget = pick("max_cell_seconds", "REPRO_MAX_CELL_SECONDS",
                  env.get_float)
    retry = None
    if retries is not None or backoff is not None or budget is not None:
        retry = RetryPolicy(
            max_attempts=(retries or 0) + 1,
            backoff_base_s=backoff if backoff is not None else 0.5,
            max_cell_seconds=budget,
        )
    client_retries = pick("client_retries", "REPRO_CLIENT_RETRIES",
                          lambda var: env.get_int(var, 0, minimum=0))
    if client_retries < 0:
        raise ConfigError(f"client retries {client_retries} must be >= 0")

    settings: Dict[str, object] = {
        "engine": pick("engine", "REPRO_ENGINE"),
        "jobs": pick("jobs", "REPRO_JOBS",
                     lambda var: env.get_int(var, None)),
        "cache": pick("cache", "REPRO_CACHE",
                      lambda var: env.get_bool(var, None)),
        "faults": policy("faults", "REPRO_FAULTS", FaultConfig),
        "retry": retry,
        "fail_fast": pick("fail_fast", "REPRO_FAIL_FAST",
                          lambda var: env.get_bool(var, None)),
        "breaker": policy("breaker", "REPRO_BREAKER", BreakerPolicy),
        "fallback": policy("fallback", "REPRO_FALLBACK", FallbackLadder),
        "tenant": pick("tenant", "REPRO_TENANT") or "default",
        "priority": pick("priority", "REPRO_PRIORITY",
                         lambda var: env.get_int(var, 0, minimum=None)),
        "deadline_s": pick("deadline", "REPRO_DEADLINE", env.get_float),
        "submission_key": pick("submission_key", "REPRO_SUBMISSION_KEY"),
        "watchdog": (policy("watchdog", "REPRO_WATCHDOG", WatchdogPolicy)
                     or WatchdogPolicy()),
        "journal": pick("journal", "REPRO_JOURNAL",
                        lambda var: env.get_bool(var, True)),
        "client_retries": client_retries,
    }
    check_spec_fields(settings)
    return settings


def resolve_campaign_spec(experiment, cli: Optional[Mapping[str, object]] = None,
                          environ: Optional[Mapping[str, str]] = None):
    """The :class:`~repro.service.spec.CampaignSpec` for ``experiment``.

    Every way of requesting a campaign — ``repro run`` flags, ``repro
    submit``, library calls — resolves its settings through
    :func:`resolve_run_settings` (same ``cli``/``environ`` arguments),
    so the precedence rules live in exactly one place.
    """
    from .service.spec import CampaignSpec

    settings = resolve_run_settings(cli, environ)
    for key in _PROCESS_SETTINGS:
        del settings[key]
    return CampaignSpec(experiment=experiment, **settings)


def resolve_run_options(cli: Optional[Mapping[str, object]] = None,
                        environ: Optional[Mapping[str, str]] = None):
    """The resilience and watchdog :class:`~repro.harness.engine.RunOptions`
    of :func:`resolve_run_settings`; unset knobs take their defaults.

    This is the process-wide default every spec overlays (see
    :func:`~repro.harness.engine.default_run_options`); cache and job
    count stay ``None``, since the process-wide engine carries those.
    """
    from .harness.engine.options import RunOptions

    settings = resolve_run_settings(cli, environ)
    return RunOptions(watchdog=settings["watchdog"], **{
        key: settings[key]
        for key in ("faults", "retry", "fail_fast", "breaker", "fallback")
        if settings[key] is not None})


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
