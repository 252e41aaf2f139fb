"""Cell fingerprints: the cache key of one (experiment, model, shape) cell.

A fingerprint must cover *everything* a :func:`repro.harness.runner.run_measurement`
call reads, so that equal fingerprints imply bit-identical measurements:

* the experiment identity and methodology knobs (``exp_id`` seeds the
  variability stream; node, device, precision, threads, reps, warmup,
  seed and ``include_transfers`` all change the samples);
* the cell coordinates (model name, full m/n/k shape);
* :data:`CONSTANTS_VERSION`, the version of the simulator's cost-model
  constants.  Bump it whenever machine specs, kernel cost models or the
  variability model change, and every stale cache entry self-invalidates
  on the next lookup.

The key is a SHA-256 over a canonical JSON rendering, so it is stable
across processes, platforms and dict orderings.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..._version import __version__
from ...core.types import MatrixShape
from ...sim.faults import FaultConfig
from ..experiment import Experiment

__all__ = ["CONSTANTS_VERSION", "campaign_fingerprint", "cell_fingerprint",
           "fingerprint_payload"]

#: Version of the simulator's cost-model constants baked into every
#: fingerprint.  Bump on any change to machine specs, kernel cost models,
#: transfer estimates or the variability model.
CONSTANTS_VERSION = "2026.1"


def fingerprint_payload(experiment: Experiment, model_name: str,
                        shape: MatrixShape,
                        faults: Optional[FaultConfig] = None) -> dict:
    """The canonical, JSON-serialisable identity of one sweep cell.

    An *enabled* fault configuration joins the payload: a degraded
    campaign keys its cells separately, so its entries can never shadow —
    or be shadowed by — fault-free results, and a retried-then-recovered
    store can never poison a clean warm run.  A disabled (or absent)
    config adds nothing, keeping pre-fault-layer fingerprints stable.
    The retry policy is deliberately **not** part of the identity: it
    decides only whether a cell gets measured at all, never the measured
    values, and failed cells are not cached.
    """
    payload = _base_payload(experiment, model_name, shape)
    if faults is not None and faults.enabled:
        payload["faults"] = faults.payload()
    return payload


def _base_payload(experiment: Experiment, model_name: str,
                  shape: MatrixShape) -> dict:
    return {
        "constants": CONSTANTS_VERSION,
        "package": __version__,
        "experiment": experiment.exp_id,
        "node": experiment.node_name,
        "device": experiment.device.value,
        "precision": experiment.precision.value,
        "model": model_name,
        "shape": [shape.m, shape.n, shape.k],
        "threads": experiment.threads,
        "reps": experiment.reps,
        "warmup": experiment.warmup,
        "seed": experiment.seed,
        "include_transfers": experiment.include_transfers,
    }


def cell_fingerprint(experiment: Experiment, model_name: str,
                     shape: MatrixShape,
                     faults: Optional[FaultConfig] = None) -> str:
    """Hex SHA-256 fingerprint of one (experiment, model, shape) cell."""
    payload = fingerprint_payload(experiment, model_name, shape, faults)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def campaign_fingerprint(experiment: Experiment,
                         faults: Optional[FaultConfig] = None) -> str:
    """Hex SHA-256 identity of a whole campaign, for the run journal.

    Covers the full experiment manifest, the fault model (when enabled)
    and :data:`CONSTANTS_VERSION` — everything that decides what a sweep
    computes.  A journal whose recorded campaign fingerprint no longer matches cannot be resumed
    byte-identically, so resume refuses it.
    """
    payload = {
        "constants": CONSTANTS_VERSION,
        "package": __version__,
        "experiment": experiment.to_dict(),
    }
    if faults is not None and faults.enabled:
        payload["faults"] = faults.payload()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
