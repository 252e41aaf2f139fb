"""Deterministic fault injection for sweep campaigns.

The paper's portability metric already encodes graceful degradation —
Table III counts unsupported (model, architecture) cells as e_i = 0
rather than aborting the study — and real campaigns on Crusher/Wombat
contend with node flakiness on top: OOM kills, hung kernels that time
out, thermal jitter spikes.  This module models those failure classes so
the sweep engine's retry/degraded-mode machinery can be exercised (and
tested) reproducibly.

Everything is keyed deterministic, exactly like
:mod:`repro.sim.variability`: whether attempt *k* of a given cell faults,
and with which :class:`FaultKind`, is a pure function of the fault seed
and the cell coordinates.  Same seed ⇒ same faults ⇒ same retry counts ⇒
byte-identical results — the property the engine's determinism tests pin.

Faults live in *simulated* time: each failed attempt charges its class
cost (a timeout burns its full hang budget, an OOM dies quickly) against
the retry policy's per-cell budget, without ever sleeping for real.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.types import MatrixShape
from ..errors import ConfigError
from .variability import rng_for

__all__ = ["FaultKind", "Fault", "FaultConfig", "FaultInjector",
           "FAULT_COSTS"]


class FaultKind(enum.Enum):
    """Failure class of one injected fault."""

    OOM = "oom"                   # allocation failure; dies almost instantly
    TIMEOUT = "timeout"           # hung kernel; burns its full hang budget
    JITTER_SPIKE = "jitter-spike"  # thermal throttle; attempt discarded


#: Simulated seconds one failed attempt of each class burns before the
#: harness notices and reclaims the cell.
FAULT_COSTS: Dict[FaultKind, float] = {
    FaultKind.OOM: 0.002,
    FaultKind.TIMEOUT: 30.0,
    FaultKind.JITTER_SPIKE: 1.5,
}


@dataclass(frozen=True)
class Fault:
    """One injected fault: which class hit which attempt of which cell."""

    kind: FaultKind
    cell: str
    attempt: int
    cost_s: float
    permanent: bool = False

    def describe(self) -> str:
        flavour = "permanent" if self.permanent else "transient"
        return (f"injected {flavour} {self.kind.value} on {self.cell} "
                f"(attempt {self.attempt}, {self.cost_s:g}s simulated)")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault model of one campaign.

    ``rate`` is the per-attempt transient-fault probability; ``always``
    lists cells that fail *permanently* on every attempt (patterns
    ``model``, ``model@m`` or ``model@mxnxk``), modelling e.g. a kernel
    that reliably OOMs at one problem size.  ``enabled`` is derived: a
    default-constructed config injects nothing.
    """

    rate: float = 0.0
    seed: int = 2023
    kinds: Tuple[FaultKind, ...] = (FaultKind.OOM, FaultKind.TIMEOUT,
                                    FaultKind.JITTER_SPIKE)
    always: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if not self.kinds:
            raise ConfigError("fault config needs at least one fault kind")

    @property
    def enabled(self) -> bool:
        """Whether this config injects any faults at all."""
        return self.rate > 0.0 or bool(self.always)

    # -- parsing ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Parse a CLI/env spec like ``rate=0.2,seed=7,kinds=oom|timeout,
        always=numba@512+julia@1024``.

        A bare float (``"0.2"``) is shorthand for ``rate=0.2``.  ``always``
        patterns are ``+``-separated since ``,`` splits the option list.
        Duplicate keys are rejected (``rate=0.1,rate=0.9`` used to win
        silently with the last value) and ``rate`` must lie in [0, 1].
        """
        spec = spec.strip()
        if not spec:
            raise ConfigError("empty fault spec")
        kwargs: Dict[str, object] = {}
        try:
            kwargs["rate"] = float(spec)
            return cls(**kwargs)  # bare-float shorthand
        except ValueError:
            pass
        seen: set = set()
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"fault spec item {item!r} is not key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in seen:
                raise ConfigError(f"duplicate fault spec key {key!r}")
            seen.add(key)
            if key == "rate":
                try:
                    rate = float(value)
                except ValueError as exc:
                    raise ConfigError(f"fault rate {value!r} is not a number") from exc
                if not 0.0 <= rate <= 1.0:
                    raise ConfigError(
                        f"fault rate {rate:g} outside [0, 1]; give a "
                        f"per-attempt probability")
                kwargs["rate"] = rate
            elif key == "seed":
                try:
                    kwargs["seed"] = int(value)
                except ValueError as exc:
                    raise ConfigError(f"fault seed {value!r} is not an integer") from exc
            elif key == "kinds":
                try:
                    kwargs["kinds"] = tuple(FaultKind(k.strip())
                                            for k in value.split("|") if k.strip())
                except ValueError as exc:
                    known = ", ".join(k.value for k in FaultKind)
                    raise ConfigError(
                        f"unknown fault kind in {value!r}; known: {known}") from exc
            elif key == "always":
                kwargs["always"] = tuple(p.strip() for p in value.split("+")
                                         if p.strip())
            else:
                raise ConfigError(
                    f"unknown fault spec key {key!r}; "
                    "known: rate, seed, kinds, always")
        return cls(**kwargs)

    # -- identity ---------------------------------------------------------

    def payload(self) -> dict:
        """Canonical JSON-serialisable form (fingerprint / export block)."""
        return {
            "rate": self.rate,
            "seed": self.seed,
            "kinds": [k.value for k in self.kinds],
            "always": list(self.always),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultConfig":
        """Inverse of :meth:`payload` (the journal-restore path)."""
        return cls(
            rate=float(payload.get("rate", 0.0)),
            seed=int(payload.get("seed", 2023)),
            kinds=tuple(FaultKind(k) for k in payload.get(
                "kinds", [k.value for k in FaultKind])),
            always=tuple(payload.get("always", ())),
        )

    def describe(self) -> str:
        if not self.enabled:
            return "faults disabled"
        parts = [f"rate={self.rate:g}", f"seed={self.seed}"]
        if self.always:
            parts.append("always=" + "+".join(self.always))
        return "faults: " + ", ".join(parts)


def _pattern_matches(pattern: str, model: str, shape: MatrixShape) -> bool:
    """``model`` / ``model@m`` / ``model@mxnxk`` cell-pattern matching."""
    name, _, size = pattern.partition("@")
    if name != model:
        return False
    if not size:
        return True
    if "x" in size:
        try:
            m, n, k = (int(p) for p in size.split("x"))
        except ValueError:
            return False
        return (shape.m, shape.n, shape.k) == (m, n, k)
    try:
        return shape.m == int(size)
    except ValueError:
        return False


class FaultInjector:
    """Stateless, deterministic probe: does attempt *k* of a cell fault?

    One injector per engine run.  The probe draws from a generator keyed
    on ``(fault seed, experiment id, cell, attempt)`` — independent of
    the variability model's streams, so injecting faults never changes
    the timing samples of the attempts that succeed.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    def probe(self, exp_id: str, model: str, shape: MatrixShape,
              attempt: int, lane: str = "") -> Optional[Fault]:
        """The fault hitting this attempt, or ``None`` if it runs clean.

        ``lane`` namespaces the draw: fallback serves (breaker routing)
        pass the serving lane so their fault stream is disjoint from the
        native lane's — rerouting a cell must never change which faults
        any *other* attempt sees.  The default empty lane keeps native
        attempts on exactly the pre-health-layer streams.
        """
        cell = f"{model}@{shape}"
        stream = f"{cell}:{lane}" if lane else cell
        for pattern in self.config.always:
            if _pattern_matches(pattern, model, shape):
                kind = self._kind_for(exp_id, stream, attempt)
                return Fault(kind=kind, cell=cell, attempt=attempt,
                             cost_s=FAULT_COSTS[kind], permanent=True)
        if self.config.rate <= 0.0:
            return None
        rng = rng_for(self.config.seed, f"fault:{exp_id}:{stream}:{attempt}")
        if float(rng.uniform()) >= self.config.rate:
            return None
        kind = self._kind_for(exp_id, stream, attempt)
        return Fault(kind=kind, cell=cell, attempt=attempt,
                     cost_s=FAULT_COSTS[kind])

    def _kind_for(self, exp_id: str, stream: str, attempt: int) -> FaultKind:
        rng = rng_for(self.config.seed,
                      f"fault-kind:{exp_id}:{stream}:{attempt}")
        return self.config.kinds[int(rng.integers(len(self.config.kinds)))]
