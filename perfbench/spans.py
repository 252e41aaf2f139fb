"""Wall-clock spans around each layer of ``repro``, recorded from outside.

A :class:`Recorder` keeps spans in memory: name, start, end, parent span
and campaign id, with times from ``CLOCK_MONOTONIC`` so spans recorded in
the load generator and in a traced daemon line up.  :func:`install`
replaces each layer's public function at every place a caller binds it
(the defining module and every ``repro`` module that imported the name),
so no call escapes; nothing under ``src/`` is edited.

Self time is a span's duration minus the part of its interval that its
children cover.  Spans opened on a thread with no open span (the sweep
engine's pool threads) adopt the open ``engine.run`` span as parent, so
its self time is the engine's own bookkeeping, not the cells it waits
for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Recorder", "install", "load_spans", "summarize", "now_ns",
           "union_ns"]


def now_ns() -> int:
    """``CLOCK_MONOTONIC`` in nanoseconds: one clock for every process."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span store; spans are ``[name, start, end, parent, cid, tag]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = True
        #: Campaign id for spans on threads that set none of their own.
        self.campaign = ""
        #: Open span adopted as parent by spans on threads with an empty stack.
        self.anchor: Optional[list] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self) -> str:
        stack = self._stack()
        return stack[-1][0] if stack else ""

    def open(self, name: str, cid: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.anchor
        if cid is None:
            cid = getattr(self._local, "campaign", None) or self.campaign
        span = [name, now_ns(), 0, parent, cid, ""]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list, tag: str = "") -> None:
        span[2] = now_ns()
        span[5] = tag
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def set_thread_campaign(self, cid: Optional[str]) -> Optional[str]:
        previous = getattr(self._local, "campaign", None)
        self._local.campaign = cid
        return previous

    def rows(self) -> List[list]:
        """Closed spans with the parent replaced by its row index (-1: root)."""
        closed = [s for s in self.spans if s[2]]
        index = {id(s): i for i, s in enumerate(closed)}
        return [[s[0], s[1], s[2],
                 index.get(id(s[3]), -1) if s[3] is not None else -1,
                 s[4], s[5]] for s in closed]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows(), fh)


def load_spans(path: str) -> List[list]:
    with open(path) as fh:
        return json.load(fh)


# -- wrappers ---------------------------------------------------------------

def _traced(rec: Recorder, fn: Callable, name: str, *,
            tag: Optional[Callable[[Any], str]] = None,
            campaign: Optional[Callable[..., str]] = None,
            anchor: bool = False,
            name_of: Optional[Callable[[], str]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        cid = campaign(*args, **kwargs) if campaign is not None else None
        previous = rec.set_thread_campaign(cid) if cid is not None else None
        span = rec.open(name_of() if name_of is not None else name, cid)
        adopted = anchor and rec.anchor is None
        if adopted:
            rec.anchor = span
        outcome = "error"
        try:
            result = fn(*args, **kwargs)
            outcome = tag(result) if tag is not None else ""
            return result
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        finally:
            if adopted:
                rec.anchor = None
            rec.close(span, outcome)
            if cid is not None:
                rec.set_thread_campaign(previous)
    return wrapper


def _import_all_repro() -> None:
    """Import every ``repro`` module so every binding of a layer exists."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name not in sys.modules \
                and not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _patch_function(module: str, attr: str, wrapper_of: Callable) -> None:
    original = getattr(sys.modules[module], attr)
    wrapper = wrapper_of(original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(cls: type, attr: str, wrapper_of: Callable) -> None:
    setattr(cls, attr, wrapper_of(cls.__dict__[attr]))


def _cache_get_tag(result: Any) -> str:
    return "miss" if result is None else "hit"


def _cache_put_tag(result: Any) -> str:
    return "stored" if result else "skipped"


def _step_tag(result: Any) -> str:
    return "grant" if result else "idle"


def _submit_tag(result: Any) -> str:
    return result[0] if isinstance(result, tuple) else str(result)


def _arg1(_self: Any, campaign_id: str, *_a: Any, **_k: Any) -> str:
    return str(campaign_id)


def _execution_campaign(execution: Any, *_a: Any, **_k: Any) -> str:
    return execution.campaign.campaign_id


#: Module-level functions: (span name, defining module, attribute).
FUNCTIONS = (
    ("sched.thread_sim", "repro.sched.thread_sim", "simulate_parallel_region"),
    ("sim.cpu", "repro.sim.executor", "simulate_cpu_kernel"),
    ("sim.roofline", "repro.sim.roofline", "estimate_dram_traffic"),
    ("gpu.warp_sim", "repro.gpu.warp_sim", "simulate_gpu_kernel"),
    ("ir.analysis", "repro.ir.analysis", "instruction_mix"),
    ("ir.analysis", "repro.ir.analysis", "reference_info"),
    ("engine.fingerprint", "repro.harness.engine.fingerprint",
     "cell_fingerprint"),
    ("harness.render", "repro.harness.report", "render_result_set"),
    ("harness.decode", "repro.harness.export", "measurement_from_dict"),
    ("harness.table3", "repro.harness.figures", "table3"),
)


def install(rec: Recorder) -> None:
    """Wrap every traced layer of ``repro`` (and ``os.fsync``) for ``rec``."""
    _import_all_repro()
    from repro.harness.engine.cache import ResultCache
    from repro.harness.engine.executor import SweepEngine
    from repro.harness.journal.journal import RunJournal
    from repro.ir.passes.base import PassPipeline
    from repro.models.base import ProgrammingModel
    from repro.service.campaign import CampaignExecution
    from repro.service.client import ServiceClient
    from repro.service.service import CampaignService
    from repro.sim.fluid import FluidSimulation
    from repro.sim.variability import VariabilityModel

    def plain(name: str, **kw: Any) -> Callable:
        return lambda fn: _traced(rec, fn, name, **kw)

    for name, module, attr in FUNCTIONS:
        _patch_function(module, attr, plain(name))

    _patch_method(FluidSimulation, "run", plain("sim.fluid"))
    _patch_method(VariabilityModel, "samples", plain("sim.variability"))
    _patch_method(PassPipeline, "run", plain("ir.passes"))
    _patch_method(SweepEngine, "run", plain("engine.run", anchor=True))
    _patch_method(ResultCache, "get", plain("cache.get", tag=_cache_get_tag))
    _patch_method(ResultCache, "put", plain("cache.put", tag=_cache_put_tag))
    _patch_method(RunJournal, "append", plain("journal.append"))

    pending = [ProgrammingModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("lower_cpu", "lower_gpu"):
            if attr in cls.__dict__:
                _patch_method(cls, attr, plain("models.lower"))

    # Daemon side of the service.
    _patch_method(CampaignService, "step",
                  plain("service.step", tag=_step_tag))
    _patch_method(CampaignService, "submit_idempotent",
                  plain("service.accept", tag=_submit_tag))
    _patch_method(CampaignExecution, "step",
                  plain("service.campaign_step",
                        campaign=_execution_campaign))

    # Client side of the service.
    _patch_method(ServiceClient, "submit",
                  plain("service.client.submit", tag=_submit_tag))
    _patch_method(ServiceClient, "wait",
                  plain("service.client.wait", campaign=_arg1))
    _patch_method(ServiceClient, "report",
                  plain("service.client.report", campaign=_arg1))
    _patch_method(ServiceClient, "campaign",
                  plain("service.client.poll", campaign=_arg1))
    _patch_method(ServiceClient, "_request_once",
                  plain("service.client.request"))

    # fsyncs issued inside a journal append are the journal's; the rest
    # (atomic sidecar writes) are counted apart.
    os.fsync = _traced(rec, os.fsync, "os.fsync", name_of=lambda: (
        "journal.fsync" if rec.top_name() == "journal.append"
        else "os.fsync"))


# -- aggregation ------------------------------------------------------------

def union_ns(intervals: List[tuple]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def summarize(rows: List[list]) -> Dict[str, Dict[str, Any]]:
    """Per span name: ``count``, ``outer`` (calls not nested in a span of
    the same name), ``total_ns``, ``self_ns`` and a ``tags`` histogram."""
    children: Dict[int, List[tuple]] = {}
    for name, start, end, parent, _cid, _tag in rows:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Dict[str, Any]] = {}
    for i, (name, start, end, parent, _cid, tag) in enumerate(rows):
        entry = out.setdefault(name, {"count": 0, "outer": 0, "total_ns": 0,
                                      "self_ns": 0, "tags": {}})
        duration = end - start
        covered = union_ns([(max(s, start), min(e, end))
                            for s, e in children.get(i, ())
                            if min(e, end) > max(s, start)])
        entry["count"] += 1
        if parent < 0 or rows[parent][0] != name:
            entry["outer"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - covered
        entry["tags"][tag] = entry["tags"].get(tag, 0) + 1
    return out
