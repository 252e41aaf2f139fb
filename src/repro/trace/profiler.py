"""The profiler: collects trace events on a monotonically advancing clock."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .events import EventKind, TraceEvent

__all__ = ["Profiler"]


class Profiler:
    """Accumulates :class:`TraceEvent` spans on a simulated clock.

    The clock only moves via :meth:`record` (append a span of known
    duration) or :meth:`advance` (idle time), so the timeline is always
    consistent: no overlapping spans, no time travel.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._now: float = 0.0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def record(self, kind: EventKind, name: str, duration_s: float,
               **metadata: Any) -> TraceEvent:
        """Append a span starting at the current clock; advances the clock."""
        ev = TraceEvent(kind=kind, name=name, start_s=self._now,
                        duration_s=duration_s, metadata=dict(metadata))
        self._events.append(ev)
        self._now += duration_s
        return ev

    def record_at(self, kind: EventKind, name: str, start_s: float,
                  duration_s: float, **metadata: Any) -> TraceEvent:
        """Append a span at an explicit start time.

        For externally-timed spans — e.g. the sweep engine's wall-clock
        cell records, which overlap under the process-pool fan-out — where
        the append-at-now contract of :meth:`record` would stack
        concurrent spans end to end.  The clock never moves backwards: it
        advances to the span's end if that lies beyond it.
        """
        ev = TraceEvent(kind=kind, name=name, start_s=start_s,
                        duration_s=duration_s, metadata=dict(metadata))
        self._events.append(ev)
        self._now = max(self._now, ev.end_s)
        return ev

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot move the clock backwards")
        self._now += seconds

    def clear(self) -> None:
        self._events.clear()
        self._now = 0.0

    # -- queries --------------------------------------------------------------

    def total_time(self, kind: Optional[EventKind] = None) -> float:
        return sum(e.duration_s for e in self._events
                   if kind is None or e.kind is kind)

    def count(self, kind: Optional[EventKind] = None) -> int:
        return sum(1 for e in self._events
                   if kind is None or e.kind is kind)

    def by_name(self) -> Dict[str, float]:
        """Total duration grouped by event name (the nvprof summary view)."""
        out: Dict[str, float] = {}
        for e in self._events:
            out[e.name] = out.get(e.name, 0.0) + e.duration_s
        return out

    @contextmanager
    def scope(self) -> Iterator["Profiler"]:
        """Context manager yielding self (reads naturally at call sites)."""
        yield self
