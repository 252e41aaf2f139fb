"""Trace events: the nvprof-style record of what the simulator executed.

The paper corroborated that Kokkos and Numba were really running on the
GPU with nvprof (Sec. IV-B); the tracer plays the same role here — every
simulated kernel launch, transfer and parallel region leaves an event, so
tests and users can verify activity rather than trusting a single number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["EventKind", "TraceEvent"]


class EventKind(enum.Enum):
    """Category of a trace span (nvprof row analogue)."""

    KERNEL = "kernel"            # GPU kernel execution
    MEMCPY_H2D = "memcpy-h2d"
    MEMCPY_D2H = "memcpy-d2h"
    PARALLEL_REGION = "parallel-region"  # CPU worksharing region
    JIT_COMPILE = "jit-compile"
    API = "api"                  # launch overhead / driver calls
    CELL = "cell"                # sweep-engine cell (wall-clock span)
    CACHE_HIT = "cache-hit"      # result served from the sweep cache
    CACHE_MISS = "cache-miss"    # result computed and stored
    FAULT = "fault"              # injected node fault hit one attempt
    RETRY = "retry"              # backoff before re-attempting a cell
    REPLAY = "replay"            # result replayed from a run journal


@dataclass(frozen=True)
class TraceEvent:
    """One timed span on the simulated timeline."""

    kind: EventKind
    name: str
    start_s: float
    duration_s: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s < 0 or self.start_s < 0:
            raise ValueError("event times must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s
