"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "9"])

    def test_engine_choices(self, capsys):
        args = build_parser().parse_args(["run", "--engine", "serial"])
        assert args.engine == "serial"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--engine", "thread"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'serial'" in err and "'process'" in err

    @pytest.mark.parametrize("flag", ["--breaker", "--fallback"])
    def test_removed_breaker_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--models", "julia", "--sizes", "256", flag, "3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_machines(self, capsys):
        rc, out = run_cli(capsys, "machines")
        assert rc == 0
        assert "Crusher" in out and "Wombat" in out
        assert "MI250X" in out and "A100" in out

    def test_models_support_matrix(self, capsys):
        rc, out = run_cli(capsys, "models")
        assert rc == 0
        assert "Python/Numba" in out
        assert "~16" in out  # Julia's degraded FP16 on the AMD CPU

    def test_productivity(self, capsys):
        rc, out = run_cli(capsys, "productivity")
        assert rc == 0
        assert "divergence" in out and "Julia" in out

    def test_table_1_and_2(self, capsys):
        rc, out = run_cli(capsys, "table", "1")
        assert rc == 0 and "ArmClang22" in out
        rc, out = run_cli(capsys, "table", "2")
        assert rc == 0 and "hipcc" in out

    def test_table_3(self, capsys):
        rc, out = run_cli(capsys, "table", "3")
        assert rc == 0
        assert "Phi_M" in out

    def test_fig_4(self, capsys):
        rc, out = run_cli(capsys, "fig", "4", "--no-chart")
        assert rc == 0
        assert "Fig. 4" in out and "double" in out and "single" in out

    def test_fig_with_chart(self, capsys):
        rc, out = run_cli(capsys, "fig", "6")
        assert rc == 0
        assert "GFLOP/s vs matrix size" in out

    def test_custom_run(self, capsys):
        rc, out = run_cli(capsys, "run", "--node", "wombat",
                          "--device", "gpu", "--precision", "single",
                          "--models", "cuda,julia", "--sizes", "512,1024",
                          "--reps", "5")
        assert rc == 0
        assert "CUDA" in out and "Julia" in out

    def test_custom_run_cpu_threads(self, capsys):
        rc, out = run_cli(capsys, "run", "--node", "crusher",
                          "--models", "c-openmp", "--sizes", "256",
                          "--threads", "16")
        assert rc == 0
        assert "256" in out

    def test_run_json_format(self, capsys):
        import json
        rc, out = run_cli(capsys, "run", "--models", "c-openmp",
                          "--sizes", "256", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["measurements"][0]["model"] == "c-openmp"

    def test_run_csv_format(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "c-openmp",
                          "--sizes", "256", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0].startswith("experiment,model")

    def test_kernel_command_cpu(self, capsys):
        rc, out = run_cli(capsys, "kernel", "julia")
        assert rc == 0
        assert "jki" not in out  # pseudo-code, not order string
        assert "parallel-threads" in out and "passes:" in out

    def test_kernel_command_gpu_shows_unroll(self, capsys):
        rc, out = run_cli(capsys, "kernel", "julia", "--device", "gpu",
                          "--target", "a100")
        assert rc == 0
        assert "unroll x2" in out
        rc, out = run_cli(capsys, "kernel", "cuda", "--device", "gpu")
        assert "unroll x4" in out

    def test_scaling_command(self, capsys):
        rc, out = run_cli(capsys, "scaling", "--model", "numba",
                          "--size", "1024", "--threads", "1,64")
        assert rc == 0
        assert "speedup" in out

    def test_roofline_command(self, capsys):
        rc, out = run_cli(capsys, "roofline", "--target", "a100",
                          "--size", "2048")
        assert rc == 0
        assert "ridge" in out

    def test_roofline_cpu_target(self, capsys):
        rc, out = run_cli(capsys, "roofline", "--target", "epyc-7a53",
                          "--size", "2048", "--models", "c-openmp,julia")
        assert rc == 0
        assert "C/OpenMP" in out

    def test_extension_model_usable_in_run(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "pyomp,numba",
                          "--sizes", "512")
        assert rc == 0
        assert "PyOMP" in out

    def test_run_efficiency_flag(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "c-openmp,julia",
                          "--sizes", "512,1024", "--efficiency", "c-openmp")
        assert rc == 0
        assert "efficiency vs C/OpenMP" in out and "mean e" in out

    def test_fig_efficiencies_flag(self, capsys):
        rc, out = run_cli(capsys, "fig", "7", "--no-chart", "--efficiencies")
        assert rc == 0
        assert "efficiency vs CUDA" in out

    def test_verify_command(self, capsys):
        rc, out = run_cli(capsys, "verify")
        assert rc == 0
        assert "verdict: REPRODUCED" in out

    def test_stream_command(self, capsys):
        rc, out = run_cli(capsys, "stream", "--target", "a100",
                          "--n", str(1 << 22))
        assert rc == 0
        assert "triad" in out and "CUDA" in out

    def test_stream_cpu_target(self, capsys):
        rc, out = run_cli(capsys, "stream", "--target", "ampere-altra",
                          "--n", str(1 << 22), "--models", "c-openmp,julia")
        assert rc == 0
        assert "Julia" in out

    def test_crossover_command(self, capsys):
        rc, out = run_cli(capsys, "crossover", "--node", "crusher",
                          "--model", "julia", "--precision", "half",
                          "--sizes", "512,1024")
        assert rc == 0
        assert "winner(e2e)" in out

    def test_report_command_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        rc, out = run_cli(capsys, "report", "--out", str(out_file))
        assert rc == 0
        assert "report written" in out
        assert "verdict: REPRODUCED" in out_file.read_text()

    def test_lint_command_clean(self, capsys):
        rc, out = run_cli(capsys, "lint")
        assert rc == 0
        assert "0 errors" in out
        assert "unsupported combinations skipped" in out

    def test_lint_command_filters(self, capsys):
        rc, out = run_cli(capsys, "lint", "--models", "julia",
                          "--device", "cpu", "--precision", "fp64")
        assert rc == 0
        assert "linted 2 lowerings" in out


class TestCacheCommands:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.harness.engine import reset_default_engine
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_engine()
        yield
        reset_default_engine()

    def test_cache_stats_smoke(self, capsys):
        rc, out = run_cli(capsys, "cache", "stats")
        assert rc == 0
        assert "cache dir:" in out and "entries:" in out
        assert "hits" in out and "misses" in out

    def test_run_populates_cache_then_clear(self, capsys):
        rc, _ = run_cli(capsys, "run", "--models", "c-openmp",
                        "--sizes", "256")
        assert rc == 0
        rc, out = run_cli(capsys, "cache", "stats")
        assert rc == 0 and "entries:    1" in out
        rc, out = run_cli(capsys, "cache", "clear")
        assert rc == 0 and "cleared 1" in out
        rc, out = run_cli(capsys, "cache", "stats")
        assert "entries:    0" in out

    def test_cache_dir_flag(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "cache", "stats",
                          "--dir", str(tmp_path / "elsewhere"))
        assert rc == 0
        assert str(tmp_path / "elsewhere") in out

    def test_run_engine_flags(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "c-openmp",
                          "--sizes", "256", "--no-cache", "--serial",
                          "--engine-stats")
        assert rc == 0
        assert "1 cells" in out and "[sim]" in out and "serial" in out
        # the stats block carries the full header: counts, wall clock,
        # execution mode, and the per-cell timing line
        assert "sweep cli-run: 1 cells (0 cached, 1 executed)" in out
        assert "ms wall" in out
        assert "c-openmp @256x256x256" in out

    def test_run_engine_stats_shows_cache_hits(self, capsys):
        run_cli(capsys, "run", "--models", "c-openmp", "--sizes", "256")
        rc, out = run_cli(capsys, "run", "--models", "c-openmp",
                          "--sizes", "256", "--engine-stats")
        assert rc == 0
        assert "[cache]" in out
        assert "(1 cached, 0 executed)" in out


class TestResilienceFlags:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.harness.engine import (
            reset_default_engine,
            reset_default_run_options,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_engine()
        reset_default_run_options()
        yield
        reset_default_engine()
        reset_default_run_options()

    def test_faulty_run_degrades_and_exits_zero(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "c-openmp,julia",
                          "--sizes", "256,512", "--no-cache",
                          "--faults", "always=julia@512")
        assert rc == 0
        assert "FAIL" in out
        assert "DEGRADED: 1 of 4 cells failed" in out

    def test_fail_fast_exits_nonzero(self, capsys):
        rc = main(["run", "--models", "c-openmp,julia",
                   "--sizes", "256,512", "--no-cache",
                   "--faults", "always=julia@512", "--fail-fast"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "aborted" in captured.err

    def test_retries_recover_transient_faults(self, capsys):
        rc, clean = run_cli(capsys, "run", "--models", "c-openmp,julia",
                            "--sizes", "256,512", "--no-cache")
        rc2, noisy = run_cli(capsys, "run", "--models", "c-openmp,julia",
                             "--sizes", "256,512", "--no-cache",
                             "--faults", "rate=0.4,seed=0", "--retries", "7")
        assert rc == rc2 == 0
        assert noisy == clean  # recovered run renders identically

    def test_engine_stats_show_attempts(self, capsys):
        rc, out = run_cli(capsys, "run", "--models", "c-openmp,julia",
                          "--sizes", "256,512", "--no-cache", "--serial",
                          "--engine-stats",
                          "--faults", "rate=0.4,seed=0", "--retries", "7")
        assert rc == 0
        assert "attempts" in out and "faults" in out

    def test_bad_fault_spec_is_usage_error(self, capsys):
        rc = main(["run", "--models", "c-openmp", "--sizes", "256",
                   "--faults", "nonsense=1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown fault spec key" in captured.err
