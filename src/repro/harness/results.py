"""Measurement records and result sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.types import MatrixShape, Precision
from ..errors import ExperimentError
from .experiment import Experiment
from .stats import mean, stdev

__all__ = ["Measurement", "ResultSet"]


@dataclass(frozen=True)
class Measurement:
    """Timing of one (model, size) cell of an experiment.

    ``times_s`` holds every repetition *including* the warm-up at index 0;
    reported numbers follow the paper's methodology and exclude it.
    ``supported=False`` cells carry no samples, only the reason (e.g.
    "Numba's AMD GPU target is deprecated").  ``failed=True`` marks a
    cell that *should* have run but permanently failed (injected faults,
    exhausted retries, an isolated execution error); such cells also set
    ``supported=False`` so no consumer ever reads samples from them, and
    Table III's accounting charges them as e = 0 like the paper does for
    unsupported cells.
    """

    model: str
    display: str
    shape: MatrixShape
    precision: Precision
    times_s: Tuple[float, ...] = ()
    warmup_count: int = 1
    supported: bool = True
    note: str = ""
    bound: str = ""
    failed: bool = False

    @property
    def status(self) -> str:
        """Per-cell status: ``"ok"``, ``"unsupported"`` or ``"failed"``."""
        if self.failed:
            return "failed"
        return "ok" if self.supported else "unsupported"

    @property
    def kernel_times(self) -> Tuple[float, ...]:
        return self.times_s[self.warmup_count:]

    @property
    def seconds(self) -> float:
        """The reported time: mean of post-warm-up repetitions."""
        if not self.supported:
            raise ExperimentError(f"{self.model} unsupported: {self.note}")
        return mean(self.kernel_times)

    @property
    def gflops(self) -> float:
        return self.shape.flops / self.seconds / 1e9

    @property
    def stdev_seconds(self) -> float:
        return stdev(self.kernel_times)

    def summary(self) -> str:  # pragma: no cover - cosmetic
        if self.failed:
            return f"{self.display} @{self.shape}: FAILED ({self.note})"
        if not self.supported:
            return f"{self.display} @{self.shape}: unsupported ({self.note})"
        return (f"{self.display} @{self.shape}: {self.gflops:.1f} GFLOP/s "
                f"({self.seconds * 1e3:.2f} ms +/- {self.stdev_seconds * 1e3:.2f})")


@dataclass
class ResultSet:
    """All measurements of one experiment."""

    experiment: Experiment
    measurements: List[Measurement] = field(default_factory=list)

    def add(self, m: Measurement) -> None:
        self.measurements.append(m)

    # -- lookups --------------------------------------------------------------

    def models(self) -> List[str]:
        seen: List[str] = []
        for m in self.measurements:
            if m.model not in seen:
                seen.append(m.model)
        return seen

    def sizes(self) -> List[int]:
        seen: List[int] = []
        for m in self.measurements:
            if m.shape.m not in seen:
                seen.append(m.shape.m)
        return sorted(seen)

    def shapes(self) -> List[MatrixShape]:
        """Every distinct problem shape, sorted by (m, n, k)."""
        seen: List[MatrixShape] = []
        for m in self.measurements:
            if m.shape not in seen:
                seen.append(m.shape)
        return sorted(seen, key=lambda s: (s.m, s.n, s.k))

    def cell_by_shape(self, model: str, shape: MatrixShape) -> Measurement:
        """Exact lookup by the full (model, MatrixShape) key."""
        for m in self.measurements:
            if m.model == model and m.shape == shape:
                return m
        raise KeyError(f"no measurement for ({model}, {shape})")

    def cell(self, model: str,
             size: Union[int, MatrixShape]) -> Measurement:
        """Look up one cell by full shape, or by size for square sweeps.

        An integer ``size`` means "the square sweep point m=n=k=size"; for
        a sweep that never mixes shapes with the same leading dimension it
        also matches the single rectangular cell with ``shape.m == size``.
        When several distinct shapes share an ``m`` (e.g. the E17 aspect
        sweep) an integer key is ambiguous and raises ``KeyError`` instead
        of silently returning the first match — use :meth:`cell_by_shape`.
        """
        if isinstance(size, MatrixShape):
            return self.cell_by_shape(model, size)
        matches = [m for m in self.measurements
                   if m.model == model and m.shape.m == size]
        if not matches:
            raise KeyError(f"no measurement for ({model}, {size})")
        distinct = {m.shape for m in matches}
        if len(distinct) == 1:
            return matches[0]
        square = MatrixShape.square(size)
        for m in matches:
            if m.shape == square:
                return m
        raise KeyError(
            f"ambiguous size {size} for {model}: shapes "
            f"{sorted(map(str, distinct))}; use cell_by_shape()")

    def supported(self, model: str) -> bool:
        return any(m.supported for m in self.measurements if m.model == model)

    # -- degraded-mode queries ----------------------------------------------

    def failed(self, model: str) -> bool:
        """Whether any cell of this model permanently failed."""
        return any(m.failed for m in self.measurements if m.model == model)

    def failed_cells(self) -> List[Measurement]:
        """Every permanently failed cell, in insertion order."""
        return [m for m in self.measurements if m.failed]

    @property
    def degraded(self) -> bool:
        """Whether this sweep lost at least one cell to failures."""
        return any(m.failed for m in self.measurements)

    def status_counts(self) -> Dict[str, int]:
        """Cell counts per status — the degraded-mode report headline."""
        out = {"ok": 0, "unsupported": 0, "failed": 0}
        for m in self.measurements:
            out[m.status] += 1
        return out

    def series(self, model: str) -> Tuple[List[int], List[float]]:
        """(sizes, GFLOP/s) for one model, skipping unsupported cells."""
        xs: List[int] = []
        ys: List[float] = []
        for shape in self.shapes():
            try:
                m = self.cell_by_shape(model, shape)
            except KeyError:
                continue
            if m.supported:
                xs.append(shape.m)
                ys.append(m.gflops)
        return xs, ys

    # -- efficiency -------------------------------------------------------------

    def efficiency_series(self, model: str, reference: str) -> List[float]:
        """Per-shape efficiency e(shape) = perf(model) / perf(reference).

        Failed cells contribute 0.0 — the cell was attempted and produced
        nothing, the paper's e = 0 accounting for lost coverage — whereas
        *unsupported* cells are skipped entirely (they never belonged in
        the mean, matching how Table III derives one number per panel).
        """
        out: List[float] = []
        for shape in self.shapes():
            try:
                mm = self.cell_by_shape(model, shape)
                mr = self.cell_by_shape(reference, shape)
            except KeyError:
                continue
            if not mr.supported:
                continue
            if mm.failed:
                out.append(0.0)
            elif mm.supported:
                out.append(mm.gflops / mr.gflops)
        return out

    def mean_efficiency(self, model: str, reference: str) -> Optional[float]:
        """The e_i(a) of Eq. (2): mean over the sweep; None if unsupported."""
        series = self.efficiency_series(model, reference)
        if not series:
            return None
        return mean(series)

    # -- export -----------------------------------------------------------------

    def to_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for m in self.measurements:
            rows.append({
                "experiment": self.experiment.exp_id,
                "model": m.model,
                "size": m.shape.m,
                "n": m.shape.n,
                "k": m.shape.k,
                "precision": m.precision.value,
                "supported": m.supported,
                "status": m.status,
                "gflops": round(m.gflops, 2) if m.supported else None,
                "seconds": m.seconds if m.supported else None,
                "note": m.note,
            })
        return rows
