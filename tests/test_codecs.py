"""One codec per policy: round trips, and the stored bytes they produce.

Spec documents and ``run-open`` journal records are durable formats: a
journal written by one build must resume under the next.  The golden
test pins both byte for byte for a run that sets every policy.
"""

import hashlib
import json

import pytest

from repro.core.types import DeviceKind, Precision
from repro.errors import ConfigError
from repro.harness.engine import RunOptions, SweepEngine
from repro.harness.engine.options import RetryPolicy
from repro.harness.experiment import Experiment
from repro.harness.runner import run_campaign
from repro.ioutil import canonical_json
from repro.service.spec import (CampaignSpec, spec_from_json, spec_to_dict,
                                spec_to_json)
from repro.sim.faults import FaultConfig, FaultKind


@pytest.mark.parametrize("policy", [
    RetryPolicy(),
    RetryPolicy(max_attempts=4, backoff_base_s=0.25, backoff_factor=3.0,
                max_cell_seconds=60.0),
    RetryPolicy(max_attempts=2, backoff_base_s=0.0),
])
def test_retry_policy_round_trips(policy):
    assert RetryPolicy.from_payload(policy.payload()) == policy


@pytest.mark.parametrize("config", [
    FaultConfig(),
    FaultConfig(rate=0.2, seed=7),
    FaultConfig(rate=1.0, seed=0, kinds=(FaultKind.TIMEOUT,),
                always=("numba@512", "julia@1024x1024x512")),
])
def test_fault_config_round_trips(config):
    assert FaultConfig.from_payload(config.payload()) == config


def _golden_spec():
    exp = Experiment(exp_id="golden", title="codec golden",
                     node_name="Crusher", device=DeviceKind.CPU,
                     precision=Precision.FP64, models=("julia", "numba"),
                     sizes=(256,), threads=64, reps=3)
    return CampaignSpec(
        experiment=exp, engine="serial", jobs=2, cache=False,
        faults=FaultConfig(rate=0.25, seed=7, always=("numba@256",)),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.25,
                          max_cell_seconds=60.0),
        fail_fast=False, tenant="ci", priority=3, deadline_s=600.0,
        submission_key="golden-1")


#: The golden spec's document in canonical JSON, as earlier builds wrote
#: it; the digest pins ``spec_to_json``'s indented rendering too.
GOLDEN_SPEC = (
    '{"cache":false,'
    '"deadline_s":600.0,"engine":"serial","experiment":{"device":"cpu",'
    '"exp_id":"golden","include_transfers":false,"models":["julia","numba"],'
    '"node":"Crusher","precision":"fp64","reps":3,"seed":2023,"sizes":[256],'
    '"threads":64,"title":"codec golden","warmup":1},"fail_fast":false,'
    '"faults":{"always":["numba@256"],"kinds":["oom","timeout",'
    '"jitter-spike"],"rate":0.25,"seed":7},"jobs":2,"priority":3,'
    '"retry":{"backoff_base_s":0.25,"backoff_factor":2.0,"max_attempts":3,'
    '"max_cell_seconds":60.0},"spec_version":2,'
    '"submission_key":"golden-1","tenant":"ci"}')
GOLDEN_SPEC_JSON_SHA256 = (
    "f232dfcf332e2fa0633247930498eeefe45ad474e6c4d214167d9e94f03ce119")

#: The ``run-open`` record's ``options`` payload of the golden run.
GOLDEN_RUN_OPEN_OPTIONS = (
    '{"fail_fast":false,'
    '"faults":{"always":["numba@256"],"kinds":["oom","timeout",'
    '"jitter-spike"],"rate":0.25,"seed":7},"retry":{"backoff_base_s":0.25,'
    '"backoff_factor":2.0,"max_attempts":3,"max_cell_seconds":60.0}}')
GOLDEN_CAMPAIGN = (
    "5d2af34e3a0c09203028653616633289762e8a5cd157ffc6721d073dba9606f4")

#: The golden spec as builds with the lane breaker wrote it: the same
#: document plus ``breaker`` and ``fallback`` members.
BREAKER_ERA_GOLDEN_SPEC = (
    '{"breaker":{"cooldown_s":60.0,"threshold":2},"cache":false,'
    '"deadline_s":600.0,"engine":"serial","experiment":{"device":"cpu",'
    '"exp_id":"golden","include_transfers":false,"models":["julia","numba"],'
    '"node":"Crusher","precision":"fp64","reps":3,"seed":2023,"sizes":[256],'
    '"threads":64,"title":"codec golden","warmup":1},"fail_fast":false,'
    '"fallback":{"rungs":[["numba@cpu",["julia@cpu","reference"]]]},'
    '"faults":{"always":["numba@256"],"kinds":["oom","timeout",'
    '"jitter-spike"],"rate":0.25,"seed":7},"jobs":2,"priority":3,'
    '"retry":{"backoff_base_s":0.25,"backoff_factor":2.0,"max_attempts":3,'
    '"max_cell_seconds":60.0},"spec_version":2,'
    '"submission_key":"golden-1","tenant":"ci"}')


def test_spec_document_bytes_are_pinned():
    spec = _golden_spec()
    assert canonical_json(spec_to_dict(spec)) == GOLDEN_SPEC
    text = spec_to_json(spec)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SPEC_JSON_SHA256
    assert spec_from_json(text) == spec


def test_run_open_options_bytes_are_pinned(tmp_path):
    from repro.harness.journal import RunRegistry
    registry = RunRegistry(str(tmp_path / "runs"))
    journal = registry.create()
    run_campaign(_golden_spec(), engine=SweepEngine(cache=None),
                 options=RunOptions(journal=journal))
    journal.close()
    with open(registry.path_for(journal.run_id)) as fh:
        record = json.loads(fh.readline())
    assert record["type"] == "run-open"
    assert canonical_json(record["data"]["options"]) == GOLDEN_RUN_OPEN_OPTIONS
    assert record["data"]["campaign"] == GOLDEN_CAMPAIGN


def test_breaker_era_spec_is_refused():
    with pytest.raises(ConfigError, match="breaker"):
        spec_from_json(BREAKER_ERA_GOLDEN_SPEC)


def test_export_with_a_substituted_cell_is_refused():
    # A v4 export of a breaker run: one cell was served by another lane.
    # Loading it as a plain result set would report that lane's samples
    # under the model that failed, so the loader refuses it.
    from repro.errors import ExperimentError
    from repro.harness.export import result_set_from_dict, result_set_to_dict
    rs = run_campaign(_golden_spec(), engine=SweepEngine(cache=None))
    doc = result_set_to_dict(rs)
    assert doc["schema"] == 4 and doc["substituted"] is False
    assert result_set_from_dict(doc).measurements == rs.measurements
    doc["substituted"] = True
    doc["measurements"][0].update(status="substituted",
                                  substituted_from="julia@gpu",
                                  served_by="julia@cpu", ladder_hops=1)
    with pytest.raises(ExperimentError, match="substituted_from"):
        result_set_from_dict(doc)
