"""Round-trip tests for the export schema (v2) and its v1 legacy loader."""

import json

import pytest

from repro.core.types import DeviceKind, MatrixShape, Precision
from repro.errors import ExperimentError
from repro.harness import (
    Experiment,
    ResultSet,
    run_campaign,
    run_measurement,
)
from repro.harness.export import (
    SCHEMA_VERSION,
    measurement_from_dict,
    measurement_to_dict,
    result_set_from_dict,
    result_set_from_json,
    result_set_to_csv,
    result_set_to_dict,
    result_set_to_json,
)
from repro.models import model_by_name
from repro.service import CampaignSpec


def cpu_exp(**kw):
    defaults = dict(
        exp_id="exp-rt", title="round trip", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("c-openmp", "julia"), sizes=(256, 512), threads=64, reps=5,
    )
    defaults.update(kw)
    return Experiment(**defaults)


class TestRoundTrip:
    def test_dict_round_trip_reconstructs_everything(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp()))
        loaded = result_set_from_dict(result_set_to_dict(rs))
        assert loaded.experiment == rs.experiment
        assert loaded.measurements == rs.measurements

    def test_json_round_trip_is_byte_identical(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp()))
        text = result_set_to_json(rs)
        assert result_set_to_json(result_set_from_json(text)) == text

    def test_gpu_round_trip_with_unsupported_cell(self):
        exp = Experiment(
            exp_id="exp-rt-gpu", title="t", node_name="Crusher",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("hip", "numba"), sizes=(512,))
        rs = run_campaign(CampaignSpec(experiment=exp))
        loaded = result_set_from_json(result_set_to_json(rs))
        assert loaded.measurements == rs.measurements
        numba = loaded.cell("numba", 512)
        assert not numba.supported and numba.times_s == ()

    def test_non_square_shapes_survive(self):
        exp = cpu_exp(models=("c-openmp",), sizes=(512,))
        model = model_by_name("c-openmp")
        wide = MatrixShape(512, 2048, 128)
        deep = MatrixShape(512, 128, 2048)
        rs = ResultSet(exp)
        rs.add(run_measurement(model, exp, wide))
        rs.add(run_measurement(model, exp, deep))
        loaded = result_set_from_dict(result_set_to_dict(rs))
        assert [m.shape for m in loaded.measurements] == [wide, deep]
        assert loaded.measurements == rs.measurements

    def test_measurement_precision_is_per_cell(self):
        """A cell whose precision differs from the experiment's survives."""
        exp = cpu_exp(models=("julia",), sizes=(256,))
        model = model_by_name("julia")
        fp32_exp = cpu_exp(models=("julia",), sizes=(256,),
                           precision=Precision.FP32)
        m = run_measurement(model, fp32_exp, MatrixShape.square(256))
        rs = ResultSet(exp)
        rs.add(m)
        loaded = result_set_from_dict(result_set_to_dict(rs))
        assert loaded.measurements[0].precision is Precision.FP32

    def test_include_transfers_round_trips(self):
        exp = Experiment(
            exp_id="exp-rt-tx", title="t", node_name="Wombat",
            device=DeviceKind.GPU, precision=Precision.FP64,
            models=("cuda",), sizes=(512,), include_transfers=True)
        loaded = result_set_from_dict(result_set_to_dict(run_campaign(CampaignSpec(experiment=exp))))
        assert loaded.experiment.include_transfers is True


class TestMeasurementDict:
    def test_schema_fields_present(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp(models=("julia",), sizes=(256,))))
        data = measurement_to_dict(rs.measurements[0])
        assert data["precision"] == "fp64"
        assert data["shape"] == {"m": 256, "n": 256, "k": 256}
        assert data["size"] == 256  # v1 compatibility field

    def test_round_trip_single_measurement(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp(models=("julia",), sizes=(256,))))
        m = rs.measurements[0]
        assert measurement_from_dict(measurement_to_dict(m)) == m


class TestLegacySchema:
    def _v1_doc(self):
        return {
            "schema": 1,
            "experiment": {
                "id": "legacy", "title": "v1 doc", "node": "Crusher",
                "device": "cpu", "precision": "fp32",
                "models": ["c-openmp"], "sizes": [256],
                "threads": 64, "reps": 5, "warmup": 1, "seed": 7,
            },
            "measurements": [{
                "model": "c-openmp", "display": "C/OpenMP", "size": 256,
                "supported": True, "note": "", "bound": "compute",
                "times_s": [0.002, 0.001, 0.001, 0.001, 0.001, 0.001],
                "warmup_count": 1,
            }],
        }

    def test_v1_accepted_with_fallbacks(self):
        loaded = result_set_from_dict(self._v1_doc())
        m = loaded.measurements[0]
        assert m.shape == MatrixShape.square(256)  # square assumed
        assert m.precision is Precision.FP32       # experiment's precision
        assert loaded.experiment.include_transfers is False

    def test_unknown_schema_rejected(self):
        doc = self._v1_doc()
        doc["schema"] = 99
        with pytest.raises(ExperimentError, match="schema"):
            result_set_from_dict(doc)

    def test_missing_schema_rejected(self):
        doc = self._v1_doc()
        del doc["schema"]
        with pytest.raises(ExperimentError):
            result_set_from_dict(doc)


class TestCsv:
    def test_csv_carries_full_shape_and_precision(self):
        exp = cpu_exp(models=("c-openmp",), sizes=(512,))
        model = model_by_name("c-openmp")
        rs = ResultSet(exp)
        rs.add(run_measurement(model, exp, MatrixShape(512, 2048, 128)))
        out = result_set_to_csv(rs)
        header, row = out.strip().splitlines()
        assert header == ("experiment,model,size,n,k,precision,supported,"
                          "gflops,seconds_mean,seconds_stdev,note,status")
        fields = row.split(",")
        assert fields[2:6] == ["512", "2048", "128", "fp64"]
        assert fields[-1] == "ok"

    def test_current_schema_version_exported(self):
        rs = run_campaign(CampaignSpec(experiment=cpu_exp(models=("julia",), sizes=(256,))))
        assert json.loads(result_set_to_json(rs))["schema"] == SCHEMA_VERSION == 4
