"""Text rendering: tables and ASCII charts for figures.

No plotting dependency is available offline, so figures render as ASCII
line charts — adequate for the study's purpose (relative ordering and
curve shape) and diffable in CI.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .results import ResultSet

__all__ = ["ascii_table", "ascii_chart", "efficiency_table", "render_result_set"]

_MARKERS = "ox+*#@%&"


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with column auto-sizing."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out: List[str] = []
    for ridx, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if ridx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def ascii_chart(series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
                width: int = 64, height: int = 16,
                ylabel: str = "GFLOP/s", xlabel: str = "matrix size") -> str:
    """Plot several (x, y) series on one ASCII grid."""
    pts = [(x, y) for xs, ys in series.values() for x, y in zip(xs, ys)]
    if not pts:
        return "(no data)"
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymax = max(p[1] for p in pts)
    ymin = 0.0
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        mark = _MARKERS[idx % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = int((x - xmin) / xspan * (width - 1))
            row = height - 1 - int((y - ymin) / yspan * (height - 1))
            grid[row][col] = mark

    lines = []
    for r, rowchars in enumerate(grid):
        yval = ymax - r * yspan / (height - 1)
        prefix = f"{yval:9.0f} |" if r % 4 == 0 or r == height - 1 else " " * 9 + " |"
        lines.append(prefix + "".join(rowchars))
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(" " * 10 + f" {xmin:.0f}{' ' * max(1, width - 16)}{xmax:.0f}")
    legend = "   ".join(f"{_MARKERS[i % len(_MARKERS)]} {name}"
                        for i, name in enumerate(series))
    lines.append(f"  [{ylabel} vs {xlabel}]  {legend}")
    return "\n".join(lines)


def efficiency_table(rs: ResultSet, reference: str) -> str:
    """Per-size efficiency of every model against ``reference`` — the
    ratio curves behind the paper's 'constant overhead' observations."""
    models = [m for m in rs.models() if m != reference and rs.supported(m)]
    if not models:
        return "(no portable models supported)"
    headers = ["size"] + [rs.cell(m, rs.sizes()[0]).display for m in models]
    rows: List[List[object]] = []
    for size in rs.sizes():
        ref_cell = rs.cell(reference, size)
        if not ref_cell.supported:
            continue
        row: List[object] = [size]
        for model in models:
            cell = rs.cell(model, size)
            row.append(f"{cell.gflops / ref_cell.gflops:.3f}"
                       if cell.supported else "n/a")
        rows.append(row)
    mean_row: List[object] = ["mean e"]
    for model in models:
        e = rs.mean_efficiency(model, reference)
        mean_row.append(f"{e:.3f}" if e is not None else "n/a")
    rows.append(mean_row)
    return (f"efficiency vs {rs.cell(reference, rs.sizes()[0]).display}\n"
            + ascii_table(headers, rows))


def render_result_set(rs: ResultSet, chart: bool = True) -> str:
    """Table + chart for one experiment panel.

    Degraded sweeps stay renderable: permanently failed cells show as
    ``FAIL`` and a banner summarises the lost coverage (the paper's
    e = 0 accounting), instead of the report crashing mid-campaign.
    """
    exp = rs.experiment
    headers = ["size"] + [rs.cell(m, rs.sizes()[0]).display for m in rs.models()]
    rows: List[List[object]] = []
    for size in rs.sizes():
        row: List[object] = [size]
        for model in rs.models():
            m = rs.cell(model, size)
            if m.supported:
                row.append(f"{m.gflops:.0f}")
            else:
                row.append("FAIL" if m.failed else "n/a")
        rows.append(row)
    parts = [exp.describe()]
    if rs.degraded:
        counts = rs.status_counts()
        parts.append(f"  DEGRADED: {counts['failed']} of "
                     f"{len(rs.measurements)} cells failed "
                     f"(reported as e=0)")
    parts += ["", ascii_table(headers, rows)]
    if chart:
        series = {}
        for model in rs.models():
            xs, ys = rs.series(model)
            if xs:
                series[rs.cell(model, xs[0]).display] = (xs, ys)
        if series:
            parts += ["", ascii_chart(series)]
    unsupported = [
        f"  note: {rs.cell(model, rs.sizes()[0]).display} unsupported - "
        f"{rs.cell(model, rs.sizes()[0]).note}"
        for model in rs.models()
        if not rs.supported(model) and not rs.failed(model)
    ]
    parts += unsupported
    parts += [
        f"  note: {m.display} @{m.shape} failed - {m.note}"
        for m in rs.failed_cells()
    ]
    return "\n".join(parts)
