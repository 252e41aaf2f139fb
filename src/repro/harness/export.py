"""Structured export of results: JSON and CSV.

Lets downstream users regenerate the paper's plots in their own tooling
(the repository itself renders ASCII only, since no plotting library is
assumed).  The schema is stable and round-trip tested:
``result_set_from_dict(result_set_to_dict(rs))`` reconstructs an equal
:class:`~repro.harness.results.ResultSet`, sample for sample.  The same
(de)serialisers back the sweep engine's on-disk result cache.

Schema history:

* v1 — original export; measurements carried ``size`` (the leading
  dimension only) and no ``precision``, so non-square shapes and
  mixed-precision sweeps were not reconstructible.
* v2 — adds per-measurement ``precision`` and the full ``shape`` (m, n,
  k), plus ``include_transfers`` on the experiment block.  v1 documents
  are still accepted by the loader: precision falls back to the
  experiment's, shapes are assumed square.
* v3 — degraded-mode plumbing: each cell record carries a ``status``
  (``"ok"`` / ``"unsupported"`` / ``"failed"``) and the document a
  top-level ``degraded`` flag.  v1/v2 documents load with every cell's
  ``failed`` defaulting to False (those schemas predate the fault
  layer, so nothing in them can be a failed cell).
* v4 — adds the document-level ``substituted`` flag, always ``false``
  since the lane breaker and fallback ladder were removed.  A v4 cell
  that still carries ``substituted_from`` came from a breaker run, which
  measured something a plain run does not, so the loader refuses it.
"""

from __future__ import annotations

import json
from typing import Any, Dict
import csv
import io

from ..core.types import MatrixShape, Precision
from ..errors import ExperimentError
from .experiment import Experiment
from .figures import Table3Result
from .results import Measurement, ResultSet

__all__ = ["result_set_to_dict", "result_set_from_dict",
           "result_set_to_json", "result_set_from_json",
           "result_set_to_csv", "write_result_set_artifact",
           "measurement_to_dict", "measurement_from_dict",
           "table3_to_dict", "table3_to_json",
           "SCHEMA_VERSION", "SUPPORTED_SCHEMAS"]

SCHEMA_VERSION = 4

#: Schema versions :func:`result_set_from_dict` can load.
SUPPORTED_SCHEMAS = (1, 2, 3, 4)


def measurement_to_dict(m: Measurement) -> Dict[str, Any]:
    """Full-fidelity dict of one measurement (schema v4 cell record)."""
    return {
        "model": m.model,
        "display": m.display,
        "size": m.shape.m,
        "shape": {"m": m.shape.m, "n": m.shape.n, "k": m.shape.k},
        "precision": m.precision.value,
        "supported": m.supported,
        "status": m.status,
        "note": m.note,
        "bound": m.bound,
        "times_s": list(m.times_s),
        "warmup_count": m.warmup_count,
        "gflops": m.gflops if m.supported else None,
        "seconds_mean": m.seconds if m.supported else None,
    }


def measurement_from_dict(data: Dict[str, Any],
                          default_precision: Precision = Precision.FP64,
                          ) -> Measurement:
    """Inverse of :func:`measurement_to_dict`.

    Accepts v1/v2 cell records too: without a ``shape`` block the shape
    is taken to be square of ``size``; without ``precision`` the caller's
    ``default_precision`` (the experiment-level setting) applies; without
    a ``status`` (pre-v3) no cell can be ``failed``.
    """
    if "shape" in data:
        sh = data["shape"]
        shape = MatrixShape(int(sh["m"]), int(sh["n"]), int(sh["k"]))
    else:
        shape = MatrixShape.square(int(data["size"]))
    raw_precision = data.get("precision")
    precision = (Precision.parse(raw_precision) if raw_precision
                 else default_precision)
    return Measurement(
        model=data["model"],
        display=data.get("display", data["model"]),
        shape=shape,
        precision=precision,
        times_s=tuple(float(t) for t in data.get("times_s", ())),
        warmup_count=int(data.get("warmup_count", 1)),
        supported=bool(data.get("supported", True)),
        note=data.get("note", ""),
        bound=data.get("bound", ""),
        failed=data.get("status") == "failed",
    )


def result_set_to_dict(rs: ResultSet) -> Dict[str, Any]:
    """Full-fidelity dict: experiment metadata + every sample."""
    exp = rs.experiment
    return {
        "schema": SCHEMA_VERSION,
        "experiment": {
            "id": exp.exp_id,
            "title": exp.title,
            "node": exp.node_name,
            "device": exp.device.value,
            "precision": exp.precision.value,
            "models": list(exp.models),
            "sizes": list(exp.sizes),
            "threads": exp.threads,
            "reps": exp.reps,
            "warmup": exp.warmup,
            "seed": exp.seed,
            "include_transfers": exp.include_transfers,
        },
        "degraded": rs.degraded,
        # Kept so v4 documents stay byte-stable; no cell is substituted.
        "substituted": False,
        "measurements": [measurement_to_dict(m) for m in rs.measurements],
    }


def result_set_from_dict(data: Dict[str, Any]) -> ResultSet:
    """Inverse of :func:`result_set_to_dict`.

    Raises :class:`~repro.errors.ExperimentError` on unknown schema
    versions so stale cache entries and foreign documents fail loudly,
    and on a cell served by the removed fallback ladder.
    """
    schema = data.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ExperimentError(
            f"unsupported result-set schema {schema!r}; "
            f"this build reads {SUPPORTED_SCHEMAS}")
    exp_data = data["experiment"]
    experiment = Experiment(
        exp_id=exp_data["id"],
        title=exp_data.get("title", exp_data["id"]),
        node_name=exp_data["node"],
        device=_device_from_value(exp_data.get("device", "cpu")),
        precision=Precision.parse(exp_data.get("precision", "fp64")),
        models=tuple(exp_data["models"]),
        sizes=tuple(int(s) for s in exp_data["sizes"]),
        threads=exp_data.get("threads"),
        reps=int(exp_data.get("reps", 10)),
        warmup=int(exp_data.get("warmup", 1)),
        seed=int(exp_data.get("seed", 2023)),
        include_transfers=bool(exp_data.get("include_transfers", False)),
    )
    rs = ResultSet(experiment)
    for mdata in data.get("measurements", ()):
        if mdata.get("substituted_from"):
            raise ExperimentError(
                f"cell {mdata.get('model')}@{mdata.get('size')} was served "
                f"by the removed fallback ladder (substituted_from "
                f"{mdata['substituted_from']!r}); a breaker run measured "
                f"something a plain run does not, so it is not loaded")
        rs.add(measurement_from_dict(mdata,
                                     default_precision=experiment.precision))
    return rs


def _device_from_value(value: str):
    from ..core.types import DeviceKind
    return DeviceKind(value)


def result_set_to_json(rs: ResultSet, indent: int = 2) -> str:
    """JSON string form of :func:`result_set_to_dict`."""
    return json.dumps(result_set_to_dict(rs), indent=indent, sort_keys=False)


def result_set_from_json(text: str) -> ResultSet:
    """Inverse of :func:`result_set_to_json`."""
    return result_set_from_dict(json.loads(text))


def write_result_set_artifact(path: str, rs: ResultSet) -> str:
    """Atomically write ``rs`` as a digest-carrying JSON artifact.

    The file embeds a SHA-256 content digest over the document (the
    ``digest`` key, excluded from its own hash), written via temp file +
    ``os.replace`` so a kill mid-export never leaves a truncated
    artifact.  ``repro fsck <path>`` verifies the digest later;
    :func:`result_set_from_dict` ignores the extra key, so digested
    artifacts load exactly like plain exports.  Returns the digest.
    """
    from ..ioutil import write_json_artifact
    return write_json_artifact(path, result_set_to_dict(rs))


def result_set_to_csv(rs: ResultSet) -> str:
    """Flat per-cell CSV (one row per model x shape)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["experiment", "model", "size", "n", "k", "precision",
                     "supported", "gflops", "seconds_mean", "seconds_stdev",
                     "note", "status"])
    for m in rs.measurements:
        writer.writerow([
            rs.experiment.exp_id,
            m.model,
            m.shape.m,
            m.shape.n,
            m.shape.k,
            m.precision.value,
            m.supported,
            f"{m.gflops:.3f}" if m.supported else "",
            f"{m.seconds:.6e}" if m.supported else "",
            f"{m.stdev_seconds:.3e}" if m.supported else "",
            m.note,
            m.status,
        ])
    return buf.getvalue()


def table3_to_dict(t3: Table3Result) -> Dict[str, Any]:
    """Structured form of Table III: one row per (model, precision)."""
    out: Dict[str, Any] = {"schema": SCHEMA_VERSION, "rows": [],
                           "degraded_cells": list(t3.degraded_cells),
                           "substituted_cells": []}
    for row in t3.rows:
        out["rows"].append({
            "model": row.model,
            "precision": row.precision.value,
            "efficiencies": dict(row.efficiencies),
            "phi": row.phi,
        })
    return out


def table3_to_json(t3: Table3Result, indent: int = 2) -> str:
    """JSON string form of :func:`table3_to_dict`."""
    return json.dumps(table3_to_dict(t3), indent=indent)
