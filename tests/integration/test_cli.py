"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.engine import RESULTS_DIR


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["table2"],
            ["figure", "fig8"],
            ["predvbias", "int2006"],
            ["taxonomy"],
            ["sensitivity"],
            ["sideeffects"],
            ["ablations"],
            ["bench", "gcc"],
            ["timeline", "gcc"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_figure_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["--iterations", "100", "--seeds", "2", "table2"]
        )
        assert args.iterations == 100 and args.seeds == 2

    def test_robustness_flags(self):
        args = build_parser().parse_args(
            ["--job-timeout", "2.5", "--retries", "4",
             "--resume", "20260806-101500-abc123", "table2"]
        )
        assert args.job_timeout == 2.5
        assert args.retries == 4
        assert args.resume == "20260806-101500-abc123"
        args = build_parser().parse_args(["table2"])
        assert args.job_timeout is None
        assert args.retries is None
        assert args.resume is None


class TestExecution:
    @pytest.fixture(autouse=True)
    def _sandbox_results(self, tmp_path, monkeypatch):
        """Keep CLI runs out of the shared artifact cache; the run
        manifest follows the cache root into ``tmp_path``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / ".cache"))

    def test_manifest_follows_relocated_cache(self, tmp_path, capsys):
        """With ``REPRO_CACHE_DIR`` set, the run manifest lands beside
        that cache root and the checkout's results/ is left alone."""
        committed = RESULTS_DIR / "run_manifest.json"
        before = (
            (committed.read_bytes(), committed.stat().st_mtime_ns)
            if committed.exists() else None
        )
        assert main(["--iterations", "120", "bench", "omnetpp"]) == 0
        after = (
            (committed.read_bytes(), committed.stat().st_mtime_ns)
            if committed.exists() else None
        )
        assert after == before
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["totals"]["jobs"] >= 1
        assert str(tmp_path / "run_manifest.json") in capsys.readouterr().err

    def test_bench_command(self, capsys):
        assert main(["--iterations", "120", "bench", "omnetpp"]) == 0
        out = capsys.readouterr().out
        assert "omnetpp" in out and "speedup" in out

    def test_timeline_command(self, capsys):
        assert main(["--iterations", "80", "timeline", "gcc",
                     "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_taxonomy_command(self, capsys):
        assert main(["--iterations", "80", "taxonomy", "int2006"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    @pytest.mark.faults
    def test_failed_job_exits_nonzero(self, capsys, monkeypatch):
        """An injected crash must surface as a FAILED line and exit 1
        instead of a traceback (graceful degradation end to end)."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0@seed=1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        code = main(
            ["--iterations", "90", "--jobs", "1", "--no-cache",
             "bench", "omnetpp"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "omnetpp: FAILED" in out
        assert "InjectedCrash" in out
