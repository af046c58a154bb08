"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.metrics import load_report


class TestParser:
    def test_machines_command(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Server" in out or "processor" in out
        assert "KunLun" in out or "A" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--app", "wc"]) == 0
        out = capsys.readouterr().out
        assert "splitter" in out
        assert "Te (cycles)" in out

    def test_optimize_small(self, capsys):
        # 1 socket keeps the run fast.
        assert (
            main(
                [
                    "optimize",
                    "--app",
                    "fd",
                    "--sockets",
                    "1",
                    "--compress-ratio",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "RLAS plan" in out
        assert "replication" in out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--app", "fd", "--sockets", "1"]) == 0
        out = capsys.readouterr().out
        assert "measured throughput" in out

    def test_run_command(self, capsys):
        assert main(["run", "wc", "--events", "200"]) == 0
        out = capsys.readouterr().out
        assert "Engine run" in out

    def test_run_bounded_queues(self, capsys):
        assert main(["run", "wc", "--events", "200", "--queue-capacity", "128"]) == 0
        out = capsys.readouterr().out
        assert "sink received: 2000 tuples" in out

    def test_run_process_backend(self, capsys):
        assert (
            main(
                [
                    "run",
                    "wc",
                    "--events",
                    "200",
                    "--backend",
                    "process",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sink received: 2000 tuples" in out

    def test_run_emits_metrics_report(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main(["run", "wc", "--events", "200", "--emit-metrics", str(target)]) == 0
        report = load_report(target)
        assert report.kind == "engine-run"
        assert report.meta["app"] == "wc"
        assert any(n.endswith(".tuples_in") for n in report.counters())
        histograms = report.histograms()
        assert any(n.endswith(".process_ns") for n in histograms)
        stats = next(h for n, h in histograms.items() if n.endswith(".process_ns"))
        assert {"p50", "p95", "p99"} <= set(stats)

    def test_failed_run_reports_the_same_meta_keys(self, tmp_path, capsys):
        clean, failed = tmp_path / "clean.json", tmp_path / "failed.json"
        run = ["run", "wc", "--events", "200", "--emit-metrics"]
        assert main([*run, str(clean)]) == 0
        crash = ["--inject-faults", "seed=3,kinds=crash,n=1,at=50"]
        assert main([*run, str(failed), *crash, "--recovery-policy", "fail-fast"]) == 1
        clean_meta, failed_meta = load_report(clean).meta, load_report(failed).meta
        assert failed_meta["failed"] is True
        assert set(failed_meta) == set(clean_meta) | {"failed", "error"}
        shared = set(clean_meta) - {"failed", "error"}
        assert {k: failed_meta[k] for k in shared} == {k: clean_meta[k] for k in shared}

    def test_optimize_emits_metrics_report(self, tmp_path, capsys):
        target = tmp_path / "opt.json"
        assert (
            main(
                [
                    "optimize",
                    "--app",
                    "fd",
                    "--sockets",
                    "1",
                    "--compress-ratio",
                    "3",
                    "--emit-metrics",
                    str(target),
                ]
            )
            == 0
        )
        report = load_report(target)
        assert report.kind == "optimize"
        assert report.counters()["rlas.bnb.nodes_expanded"] > 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--app", "nope"])

    def test_tf_mode_choices(self):
        args = build_parser().parse_args(["optimize", "--tf-mode", "worst"])
        assert args.tf_mode == "worst"
