"""Tests for the gnuplot export and config-driven CLI runs."""

import json
import os

import pytest

from repro.core.types import DeviceKind, Precision
from repro.harness import Experiment, run_campaign
from repro.harness.gnuplot import to_dat, to_gnuplot_script, write_gnuplot_bundle
from repro.service import CampaignSpec


@pytest.fixture(scope="module")
def results():
    exp = Experiment(
        exp_id="gp-test", title="gnuplot test", node_name="Crusher",
        device=DeviceKind.GPU, precision=Precision.FP64,
        models=("hip", "julia", "numba"), sizes=(512, 1024), reps=5)
    return run_campaign(CampaignSpec(experiment=exp))


class TestDat:
    def test_header_and_rows(self, results):
        dat = to_dat(results)
        lines = dat.strip().splitlines()
        assert lines[0].startswith("# size")
        assert len(lines) == 3  # header + 2 sizes

    def test_unsupported_as_missing_marker(self, results):
        dat = to_dat(results)
        # numba has no AMD backend: its column is '?' on every row
        for line in dat.strip().splitlines()[1:]:
            assert line.split()[-1] == "?"

    def test_numeric_columns_parse(self, results):
        for line in to_dat(results).strip().splitlines()[1:]:
            size, hip, julia, numba = line.split()
            assert int(size) in (512, 1024)
            assert float(hip) > 0 and float(julia) > 0


class TestScript:
    def test_series_per_model(self, results):
        script = to_gnuplot_script(results, "gp-test.dat")
        assert script.count("using 1:") == 3
        assert "set datafile missing '?'" in script
        assert "'HIP'" in script and "'Julia'" in script

    def test_custom_output(self, results):
        script = to_gnuplot_script(results, "x.dat", out_filename="fig.png")
        assert "set output 'fig.png'" in script


class TestBundle:
    def test_writes_both_files(self, results, tmp_path):
        dat, gp = write_gnuplot_bundle(results, str(tmp_path))
        assert os.path.exists(dat) and os.path.exists(gp)
        assert open(dat).read().startswith("# size")


class TestConfigRun:
    def test_cli_config_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        cfg = {"exp_id": "from-config", "node": "Crusher",
               "models": ["c-openmp"], "sizes": [256], "reps": 5}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "from-config,c-openmp,256" in out

    def test_cli_config_rejects_typo(self, tmp_path, capsys):
        from repro.cli import main
        from repro.errors import ExperimentError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"exp_id": "x", "node": "Crusher",
                                    "models": ["julia"], "sises": [256]}))
        with pytest.raises(ExperimentError):
            main(["run", "--config", str(path)])
