"""CLI integration: ``--telemetry`` knob and ``repro report``.

The contract under test: enabling telemetry changes what lands in the
telemetry directory and on stderr — never stdout, never the persisted
experiment artifacts — and ``repro report`` renders a recorded run in
both text and json.
"""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.telemetry import RunManifest


class TestParser:
    def test_telemetry_flag_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["table2"]).telemetry is None
        assert parser.parse_args(["table2", "--telemetry"]).telemetry == ".telemetry"
        assert parser.parse_args(
            ["table2", "--telemetry", "runs/x"]).telemetry == "runs/x"

    def test_every_subcommand_accepts_telemetry(self):
        parser = build_parser()
        for command in ("info", "fig1", "fig3", "fig5", "table1", "table2",
                        "fig6", "fig7", "faults", "scaling", "deploy",
                        "cache", "lint", "report"):
            args = parser.parse_args([command, "--telemetry", "t"])
            assert args.telemetry == "t"

    def test_report_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["report"])
        assert args.dir == ".telemetry"
        assert args.output_format == "text"
        args = parser.parse_args(["report", "runs/x", "--format", "json"])
        assert args.dir == "runs/x"
        assert args.output_format == "json"
        args = parser.parse_args(["report", "runs/x", "--format", "trace"])
        assert args.output_format == "trace"


class TestStdoutIdentity:
    def test_table2_stdout_identical_with_and_without_telemetry(
        self, tmp_path, capsys
    ):
        assert main(["table2"]) == 0
        baseline = capsys.readouterr()
        assert main(["table2", "--telemetry", str(tmp_path / "tel")]) == 0
        instrumented = capsys.readouterr()
        assert instrumented.out == baseline.out
        assert baseline.err == ""
        assert "[telemetry]" in instrumented.err

    def test_session_closed_after_run(self, tmp_path, capsys):
        from repro import telemetry

        main(["table2", "--telemetry", str(tmp_path / "tel")])
        capsys.readouterr()
        assert telemetry.active() is None


class TestFig7Report:
    @pytest.fixture(scope="class")
    def fig7_run(self, tmp_path_factory):
        """One fast fig7 run recorded to a telemetry directory."""
        root = tmp_path_factory.mktemp("fig7-telemetry")
        previous = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = str(root / "cache")
        try:
            tel_dir = str(root / "tel")
            code = main(["fig7", "--fast", "--telemetry", tel_dir])
        finally:
            if previous is None:
                del os.environ["REPRO_CACHE"]
            else:
                os.environ["REPRO_CACHE"] = previous
        assert code == 0
        return tel_dir

    def test_text_report_renders_manifest_spans_metrics(
        self, fig7_run, capsys
    ):
        assert main(["report", fig7_run]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "fig7" in out
        assert "cli.fig7" in out
        assert "campaign.trial_group" in out
        assert "mvm.count" in out

    def test_json_report_validates_and_counts_mvms(self, fig7_run, capsys):
        assert main(["report", fig7_run, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert RunManifest.validate(doc["manifest"]) == []
        assert doc["manifest"]["command"] == "fig7"
        counters = doc["manifest"]["metrics"]["counters"]
        assert counters["mvm.count"] > 0
        assert counters["mvm.elements"] > counters["mvm.count"]
        assert any(name.startswith("store.") for name in counters)
        names = [s["name"] for s in doc["spans"]]
        assert names[0] == "cli.fig7"
        # The --fast grid (sigmas 0 and 0.1, 2 trials, trial batch 1):
        # one group for the sigma = 0 realization, one per trial at
        # sigma = 0.1, plus the network's prepare cell.
        assert names.count("campaign.trial_group") == 3
        assert names.count("scheduler.cell") == 4

    def test_manifest_fingerprint_excludes_execution_knobs(self, fig7_run):
        """The telemetry directory is not part of the run identity: two
        runs differing only in where they log fingerprint identically."""
        parser = build_parser()
        with open(os.path.join(fig7_run, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 0

        def fingerprint(argv):
            from repro.store import spec_hash

            args = parser.parse_args(argv)
            config = {key: value for key, value in vars(args).items()
                      if key not in ("command", "telemetry")}
            return spec_hash(config)

        assert manifest["config_fingerprint"] == fingerprint(
            ["fig7", "--fast", "--telemetry", "elsewhere"])


class TestTraceReport:
    @pytest.fixture
    def traced_run(self, tmp_path):
        """A saved session with two stitched traces and an SLO record."""
        from repro.telemetry.clock import perf
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(command="serve", seed=0)
        for _ in range(2):
            trace_id = session.new_trace_id()
            root = session.tracer.start_span(
                "serve.request", trace_id=trace_id
            )
            session.tracer.record_span(
                "serve.parse", perf(), perf(), parent=root,
                trace_id=trace_id,
            )
            session.tracer.end_span(root)
        session.tracer.record_span("serve.drain", perf(), perf())
        session.manifest.slo = {
            "admitted": 2,
            "admitted_p99_ms": 4.2,
            "deadline_budget_ms": 50.0,
            "within_budget": True,
        }
        directory = str(tmp_path / "tel")
        session.save(directory)
        return directory

    def test_trace_format_groups_by_trace_id(self, traced_run, capsys):
        assert main(["report", traced_run, "--format", "trace"]) == 0
        out = capsys.readouterr().out
        assert "2 trace(s)" in out
        assert out.count("trace ") == 2
        assert out.count("serve.request") == 2
        assert "(untraced) — 1 span(s)" in out
        assert "serve.drain" in out

    def test_trace_format_renders_slo_footer(self, traced_run, capsys):
        assert main(["report", traced_run, "--format", "trace"]) == 0
        out = capsys.readouterr().out
        assert "SLO: admitted 2 request(s), p99 4.2 ms" in out
        assert "within budget" in out

    def test_trace_format_without_slo(self, tmp_path, capsys):
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession(command="table2", seed=0)
        directory = str(tmp_path / "tel")
        session.save(directory)
        assert main(["report", directory, "--format", "trace"]) == 0
        out = capsys.readouterr().out
        assert "0 trace(s)" in out
        assert "SLO: no serving SLO recorded" in out


class TestReportErrors:
    def test_missing_directory_exits_nonzero(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "report error" in capsys.readouterr().out

    def test_corrupt_manifest_exits_nonzero(self, tmp_path, capsys):
        directory = tmp_path / "tel"
        directory.mkdir()
        (directory / "manifest.json").write_text("{not json")
        assert main(["report", str(directory)]) == 1
        assert "report error" in capsys.readouterr().out
