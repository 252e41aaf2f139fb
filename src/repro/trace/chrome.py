"""Chrome trace-event export.

Serialises a profiler's events to the Trace Event Format consumed by
``chrome://tracing`` / Perfetto, so simulated timelines can be inspected
in the same UI people use for real GPU traces.  Complete events (``ph:
"X"``) with microsecond timestamps; one row (tid) per event kind, mirroring
how nvprof lays out kernels vs memcpys.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .events import EventKind, TraceEvent

__all__ = ["to_chrome_trace", "chrome_trace_json"]

#: Stable row assignment per event kind.
_TID: Dict[EventKind, int] = {
    EventKind.API: 0,
    EventKind.JIT_COMPILE: 1,
    EventKind.MEMCPY_H2D: 2,
    EventKind.MEMCPY_D2H: 3,
    EventKind.KERNEL: 4,
    EventKind.PARALLEL_REGION: 5,
    EventKind.CELL: 6,
    EventKind.CACHE_HIT: 7,
    EventKind.CACHE_MISS: 7,
    EventKind.FAULT: 8,
    EventKind.RETRY: 9,
    EventKind.REPLAY: 7,
}

_THREAD_NAMES = {
    0: "API",
    1: "JIT",
    2: "MemCpy (H2D)",
    3: "MemCpy (D2H)",
    4: "Compute (kernels)",
    5: "Compute (parallel regions)",
    6: "Sweep cells",
    7: "Result cache",
    8: "Faults",
    9: "Retries",
}


def to_chrome_trace(events: Sequence[TraceEvent],
                    process_name: str = "repro-sim") -> List[dict]:
    """Convert events to a list of Chrome trace-event dicts."""
    out: List[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 0,
        "args": {"name": process_name},
    }]
    used_tids = sorted({_TID[e.kind] for e in events})
    for tid in used_tids:
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": _THREAD_NAMES[tid]},
        })
    for e in events:
        out.append({
            "name": e.name,
            "cat": e.kind.value,
            "ph": "X",
            "pid": 1,
            "tid": _TID[e.kind],
            "ts": e.start_s * 1e6,       # microseconds
            "dur": e.duration_s * 1e6,
            "args": {k: _jsonable(v) for k, v in e.metadata.items()},
        })
    return out


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return repr(value)


def chrome_trace_json(events: Sequence[TraceEvent],
                      process_name: str = "repro-sim") -> str:
    """The JSON string chrome://tracing loads directly."""
    return json.dumps({"traceEvents": to_chrome_trace(events, process_name),
                       "displayTimeUnit": "ms"})
