"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_basic_ring(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--family", "ring", "--sites", "31",
            "--alpha", "0.9",
        )
        assert code == 0
        assert "optimal quorums" in out
        assert "q_r=2" in out  # known optimum for ring-31 at alpha=.9

    def test_complete_low_alpha_majority(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--family", "complete", "--sites", "20",
            "--alpha", "0.25",
        )
        assert code == 0
        assert "q_r=10" in out

    def test_write_floor_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--family", "ring", "--sites", "101",
            "--alpha", "0.75", "--write-floor", "0.05",
        )
        assert code == 0
        assert "write floor     : 0.05" in out

    def test_infeasible_floor_clean_error(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--family", "ring", "--sites", "101",
            "--alpha", "0.75", "--write-floor", "0.99",
        )
        assert code == 2
        assert "error:" in err
        assert "best achievable" in err

    def test_bus_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--family", "bus", "--sites", "15",
            "--alpha", "0.5",
        )
        assert code == 0


class TestSimulate:
    def test_majority(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--chords", "2", "--scale", "test", "--seed", "3",
        )
        assert code == 0
        assert "availability(ACC)" in out
        assert "95% CI" in out

    def test_explicit_quorum(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--chords", "0", "--scale", "test",
            "--protocol", "quorum", "--read-quorum", "2",
        )
        assert code == 0
        assert "q_r=2" in out

    def test_quorum_requires_read_quorum(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--protocol", "quorum",
                               "--scale", "test")
        assert code == 2
        assert err.startswith("error: --read-quorum is required")

    def test_rowa_and_primary(self, capsys):
        for protocol in ("rowa", "primary"):
            code, out, _ = run_cli(
                capsys, "simulate", "--chords", "0", "--scale", "test",
                "--protocol", protocol,
            )
            assert code == 0


class TestReports:
    """One report section each, through ``campaign --only``."""

    def test_figure(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--only", "FIG-2", "--scale", "test",
        )
        assert code == 0
        assert "availability vs read quorum" in out
        assert "convergence spread" in out

    def test_rw_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--only", "TAB-RW", "--scale", "test",
        )
        assert code == 0
        assert "regime" in out
        assert "topology-2" in out

    def test_write_constraint(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--only", "TAB-WC", "--scale", "test",
        )
        assert code == 0
        assert "floor A_w" in out


class TestVotesAndShootout:
    def test_votes_hillclimb(self, capsys):
        code, out, _ = run_cli(
            capsys, "votes", "--sites", "6", "--chords", "1",
            "--flaky-every", "3", "--samples", "300",
        )
        assert code == 0
        assert "vote vector" in out
        assert "hillclimb" in out

    def test_votes_exhaustive_tiny(self, capsys):
        code, out, _ = run_cli(
            capsys, "votes", "--sites", "4", "--chords", "0",
            "--total-votes", "4", "--method", "exhaustive",
            "--samples", "200",
        )
        assert code == 0
        assert "exhaustive" in out

    def test_shootout(self, capsys):
        code, out, _ = run_cli(
            capsys, "shootout", "--chords", "1", "--scale", "test",
        )
        assert code == 0
        for name in ("majority", "rowa", "primary-copy", "dynamic-voting"):
            assert name in out
        assert "in 3 batches" in out


#: The header each ``--only`` ID prints its section under.
_SECTION_TITLES = {
    **{f"FIG-{n}": f"Figure {n}" for n in range(2, 9)},
    "TAB-WC": "section 5.4 write-constraint example (Topology 2)",
    "TAB-RW": "section 5.5",
}


def _report_sections(text):
    """A printed campaign report as (header, {section title: section text})."""
    header, *sections = text.removesuffix("\n").split("\n\n--- ")
    return header, dict(section.split(" ---\n", 1) for section in sections)


class TestCampaign:
    @pytest.fixture(scope="class")
    def full_reports(self):
        """The whole test-scale report, without and with ``--full``."""
        import contextlib
        import io

        reports = {}
        for extra in ((), ("--full",)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["campaign", "--scale", "test", "--seed", "3",
                             *extra]) == 0
            reports[bool(extra)] = out.getvalue()
        return reports

    def test_campaign_runs(self, capsys):
        code, out, _ = run_cli(capsys, "campaign", "--scale", "test")
        assert code == 0
        assert "--- Figure 2 ---" in out
        assert "--- section 5.5 ---" in out

    @pytest.mark.parametrize("only", [
        *([section] for section in _SECTION_TITLES),
        ["TAB-RW", "FIG-3"],
    ], ids="+".join)
    def test_only_prints_the_full_reports_sections(self, only, full_reports,
                                                   capsys):
        full = "FIG-8" in only
        code, out, err = run_cli(capsys, "campaign", "--scale", "test",
                                 "--seed", "3", "--only", *only,
                                 *(["--full"] if full else []))
        assert (code, err) == (0, "")
        header, sections = _report_sections(out)
        whole_header, whole_sections = _report_sections(full_reports[full])
        assert header == whole_header
        # Report order, whatever order --only names them in.
        assert list(sections) == [title for title in whole_sections
                                  if title in {_SECTION_TITLES[s] for s in only}]
        for title, text in sections.items():
            assert text == whole_sections[title]

    def test_write_constraint_runs_one_topology(self, capsys, monkeypatch):
        import repro.experiments.campaign as campaign

        real = campaign.figure_data
        calls = []

        def counting(**kwargs):
            calls.append(kwargs["chords"])
            return real(**kwargs)

        monkeypatch.setattr(campaign, "figure_data", counting)
        code, out, _ = run_cli(capsys, "campaign", "--scale", "test",
                               "--only", "TAB-WC")
        assert code == 0
        assert calls == [2]
        assert "floor A_w" in out and "--- Figure" not in out

    def test_fully_connected_section_needs_full(self, capsys):
        code, out, err = run_cli(capsys, "campaign", "--scale", "test",
                                 "--only", "FIG-8")
        assert code == 2
        assert err.startswith("error: no campaign section FIG-8")
        assert len(err.splitlines()) == 1
        assert out == ""


class TestChaos:
    def test_clean_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--scenario", "partition", "--scale", "test",
            "--batches", "1",
        )
        assert code == 0
        assert "verdict        : PASS" in out
        assert "quarantined" in out

    def test_broken_assignment_fails_with_violations(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--scenario", "partition", "--scale", "test",
            "--batches", "1", "--broken", "--show-violations", "2",
        )
        assert code == 1
        assert "verdict        : FAIL" in out
        assert "quorum-intersection" in out

    def test_simulate_accepts_keep_going(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scale", "test", "--keep-going",
        )
        assert code == 0
        assert "availability" in out


class TestServe:
    """The serve exit contract: 0 clean, 1 SLO/invariant, 2 usage error."""

    SMALL = ("serve", "--sites", "7", "--chords", "1", "--accesses", "2000",
             "--clients", "8", "--seed", "3")

    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL, "--scenario", "none")
        assert code == 0
        assert "verdict        : PASS" in out
        assert "reconciliation : exact" in out

    def test_chaos_run_reports_reassignment(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL, "--scenario", "correlated")
        assert code == 0
        assert "reassignments" in out
        assert "invariants     : 0 violations" in out

    def test_unreachable_slo_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.SMALL, "--scenario", "correlated",
            "--min-availability", "1",
        )
        assert code == 1
        assert "verdict        : FAIL" in out

    @pytest.mark.parametrize("value", ["nan", "2", "-0.1"])
    def test_min_availability_outside_unit_interval_exits_two(self, capsys,
                                                             value):
        code, out, err = run_cli(
            capsys, *self.SMALL, f"--min-availability={value}")
        assert code == 2
        assert out == ""  # rejected before any request is served
        assert err.count("error:") == 1 and "--min-availability" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "-1e-9"])
    def test_negative_or_nan_p99_gate_exits_two(self, capsys, value):
        code, out, err = run_cli(capsys, *self.SMALL, f"--max-p99={value}")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "--max-p99" in err

    def test_invalid_read_quorum_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, *self.SMALL, "--read-quorum", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_oversized_read_quorum_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, *self.SMALL, "--read-quorum", "100",
        )
        assert code == 2
        assert "error:" in err

    def test_duration_short_preset(self, capsys):
        code, out, _ = run_cli(
            capsys, "serve", "--duration-short", "--sites", "7",
            "--chords", "1", "--scenario", "none", "--seed", "1",
        )
        assert code == 0
        assert "requests       : 20000" in out

    P99_GATE = ("serve", "--accesses", "20000", "--clients", "2",
                "--seed", "30024")

    def test_p99_gate_reads_exact_quantiles(self, capsys):
        # 1 of ~17k granted requests waited, so p50 = p99 = 0 exactly and
        # a 1e-6 s gate must pass, and so must a gate of exactly 0.
        code, out, _ = run_cli(capsys, *self.P99_GATE, "--max-p99", "1e-6")
        assert code == 0
        assert "p50=0  p99=0  max=3.52" in out
        assert "verdict        : PASS" in out
        code, out, _ = run_cli(capsys, *self.P99_GATE, "--max-p99", "0")
        assert code == 0
        assert "verdict        : PASS" in out

    def test_telemetry_export_includes_serving_counters(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, *self.SMALL, "--scenario", "correlated",
            "--telemetry-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "metrics.prom").exists()
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_serve_requests_total" in prom
        mcode, mout, _ = run_cli(
            capsys, "metrics", str(tmp_path / "events.jsonl")
        )
        assert mcode == 0
        assert "retry pressure" in mout


def _subcommands():
    """The parser's subcommands, name -> sub-parser."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands


def _seeded_commands():
    """Every subcommand with a ``--seed`` option, with its required args."""
    required = {"profile": ["enumeration"], "shard": ["--family", "ring"]}
    return [
        [name, *required.get(name, [])]
        for name, sub in sorted(_subcommands().items())
        if any("--seed" in action.option_strings for action in sub._actions)
    ]


class TestErrorPaths:
    """Malformed invocations must exit 2 with a clean one-line error."""

    @pytest.mark.parametrize("argv", _seeded_commands(), ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "argument --seed: must be a non-negative integer" in (
            capsys.readouterr().err)

    def test_simulate_rejects_zero_workers(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scale", "test", "--workers", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_simulate_rejects_negative_workers(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scale", "test", "--workers", "-3",
        )
        assert code == 2
        assert "error:" in err

    def test_chaos_rejects_zero_workers(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--scale", "test", "--batches", "1",
            "--workers", "0",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--scale", "test"],
        ["chaos", "--scale", "test", "--batches", "1"],
        ["profile", "simulate"],
        ["shard", "--family", "ring", "--sites", "5", "--items", "10",
         "--batches", "1", "--accesses", "50", "--warmup", "10"],
    ], ids=lambda argv: argv[0])
    def test_nonpositive_workers_rejected(self, argv, workers, capsys, tmp_path):
        if argv[0] == "profile":
            argv = [*argv, "--out", str(tmp_path / "profile")]
        code, out, err = run_cli(capsys, *argv, "--workers", workers)
        assert code == 2
        assert err == f"error: n_workers must be positive, got {workers}\n"
        assert "workers=" not in out

    @pytest.mark.parametrize("width", ["0", "-0.01", "nan"])
    def test_unreachable_target_half_width_rejected(self, width, capsys):
        code, out, err = run_cli(capsys, "simulate", "--scale", "test",
                                 "--target-half-width", width)
        assert code == 2
        assert err.startswith("error: target_half_width must be positive")
        assert len(err.splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("command", ["simulate", "chaos"])
    def test_quorum_protocol_needs_read_quorum(self, command, capsys):
        code, out, err = run_cli(capsys, command, "--scale", "test",
                                 "--protocol", "quorum")
        assert code == 2
        assert err == ("error: --read-quorum is required with "
                       "--protocol quorum\n")
        assert out == ""

    @pytest.mark.parametrize("command", ["simulate", "chaos"])
    @pytest.mark.parametrize("protocol", ["majority", "rowa"])
    def test_read_quorum_without_quorum_protocol_rejected(
            self, command, protocol, capsys):
        code, out, err = run_cli(capsys, command, "--scale", "test",
                                 "--protocol", protocol, "--read-quorum", "3")
        assert code == 2
        assert err == ("error: --read-quorum applies only to --protocol "
                       f"quorum, not {protocol!r}\n")
        assert out == ""

    @pytest.mark.parametrize("p", ["nan", "1.5", "-0.1"])
    def test_votes_rejects_a_non_probability(self, p, capsys):
        code, out, err = run_cli(capsys, "votes", "--sites", "4", "--p", p)
        assert code == 2
        assert err.startswith("error: site reliability values must be in [0, 1]")
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_negative_violation_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "chaos", "--scale", "test",
                                 "--broken", "--max-violations", "-1")
        assert code == 2
        assert err == "error: max_records must be non-negative, got -1\n"
        assert out == ""

    @pytest.mark.parametrize("argv,complaint", [
        (["--write-floor", "2"],
         "write availability floor must be in [0, 1], got 2.0"),
        (["--write-floor", "-0.5"],
         "write availability floor must be in [0, 1], got -0.5"),
        (["--write-floor", "nan"],
         "write availability floor must be in [0, 1], got nan"),
        (["--alpha", "2", "--write-floor", "0.1"],
         "alpha must be in [0, 1], got 2.0"),
    ], ids=["floor-2", "floor-negative", "floor-nan", "alpha-2"])
    def test_write_constraint_outside_unit_interval_rejected(
            self, argv, complaint, capsys):
        code, out, err = run_cli(capsys, "optimize", "--sites", "21", *argv)
        assert code == 2
        assert err.startswith(f"error: {complaint}")
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_negative_flaky_every_rejected(self, capsys):
        code, out, err = run_cli(capsys, "votes", "--flaky-every", "-1")
        assert code == 2
        assert err == "error: --flaky-every must be non-negative, got -1\n"
        assert out == ""

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_vote_samples_rejected(self, samples, capsys):
        code, out, err = run_cli(capsys, "votes", "--samples", samples)
        assert code == 2
        assert err == f"error: n_samples must be positive, got {samples}\n"
        assert out == ""

    def test_metrics_missing_path_is_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metrics", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no telemetry stream" in err
        assert "--telemetry" in err

    def test_metrics_non_utf8_stream_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "metrics", str(path))
        assert code == 2
        assert err == (f"error: {path}: telemetry stream is not UTF-8 text "
                       "(byte 0: invalid start byte)\n")
        assert out == ""

    def test_metrics_missing_directory_resolves_events_file(self, capsys,
                                                            tmp_path):
        # A directory without events.jsonl (e.g. a mistyped --telemetry-dir)
        # must name the file it looked for, not traceback.
        code, _, err = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 2
        assert "events.jsonl" in err

    @pytest.mark.parametrize("bad,complaint", [
        ('{"type": "histogram", "name": "h", "buckets": [1]}', "no 'series'"),
        ('{"type": "span", "name": "s", "start": 0, "wall": 1, "cpu": 1}',
         "no 'span_id'"),
        ('{"type": "phase", "name": "p", "count": 1, "cpu": 0.5}', "no 'wall'"),
        ('{"type": "audit_total", "op": "read", "reason": "granted"}',
         "no 'volume'"),
        ('{"type": "counter", "name": "c", "series": '
         '[{"labels": {}, "value": "x"}]}', "'value' must be a number"),
        ('[1, 2]', "not an object"),
        ('{"type": "meta", "schema": "two"}', "'schema' must be an integer"),
    ], ids=["histogram-no-series", "span-no-id", "phase-no-wall",
            "audit-total-no-volume", "counter-value-string", "array-line",
            "schema-string"])
    def test_metrics_malformed_stream_is_clean_error(self, capsys, tmp_path,
                                                     bad, complaint):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "meta", "schema": 2, "meta": {}}\n' + bad + "\n")
        code, out, err = run_cli(capsys, "metrics", str(path))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{path}:2:" in err and complaint in err
        assert out == ""

    def test_metrics_unreadable_stream_is_clean_error(self, capsys, tmp_path):
        # DIR/events.jsonl exists but is a directory: the OSError from
        # opening it is a usage error (2), not a divergence (1).
        (tmp_path / "events.jsonl").mkdir()
        code, out, err = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "events.jsonl" in err
        assert out == ""

    def test_unwritable_telemetry_dir_is_clean_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(
            capsys, "simulate", "--chords", "2", "--scale", "test",
            "--seed", "3", "--telemetry-dir", str(blocker / "telemetry"),
        )
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "telemetry" in err

    def test_interrupt_is_clean_error(self, capsys, monkeypatch):
        import repro.verification

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.verification, "run_profile", interrupted)
        code, _, err = run_cli(capsys, "verify", "--profile", "quick")
        assert code == 2
        assert err == "error: interrupted\n"


ROOT = Path(__file__).resolve().parents[1]


def run_into_a_closed_pipe(args):
    """Run ``python ARGS`` with standard output a pipe nobody reads: its
    read end is closed before the child starts, so its first write fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
        os.pathsep + inherited if inherited else ""))
    try:
        return subprocess.run([sys.executable, *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=300)
    finally:
        os.close(write_end)


class TestClosedStdout:
    """``repro ... | head -2`` and ``python examples/X.py | head`` end clean."""

    def test_a_command_ends_with_exit_0_and_nothing_on_stderr(self):
        done = run_into_a_closed_pipe(
            ["-m", "repro", "campaign", "--only", "FIG-4", "--scale", "test"])
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize("script", sorted(
        path.name for path in (ROOT / "examples").glob("*.py")))
    def test_an_example_ends_with_exit_0_and_nothing_on_stderr(self, script):
        done = run_into_a_closed_pipe([f"examples/{script}"])
        assert (done.returncode, done.stderr) == (0, "")

    def test_a_broken_pipe_elsewhere_is_still_an_error(self, capsys, monkeypatch):
        import repro.verification

        def broken(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(repro.verification, "run_profile", broken)
        code, _, err = run_cli(capsys, "verify", "--profile", "quick")
        assert code == 2
        assert err == "error: [Errno 32] Broken pipe\n"


class TestVerify:
    """Exit-code contract: 0 = pass, 1 = divergence, 2 = config error."""

    def _fake_report(self, passed):
        class FakeReport:
            def summary(self, drift_top=5):
                return "fake verification summary"

        report = FakeReport()
        report.passed = passed
        return report

    def test_pass_maps_to_exit_zero(self, capsys, monkeypatch):
        import repro.verification

        monkeypatch.setattr(
            repro.verification, "run_profile",
            lambda profile, bug=None, golden=True: self._fake_report(True),
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "fake verification summary" in out

    def test_divergence_maps_to_exit_one(self, capsys, monkeypatch):
        import repro.verification

        monkeypatch.setattr(
            repro.verification, "run_profile",
            lambda profile, bug=None, golden=True: self._fake_report(False),
        )
        code, _, _ = run_cli(capsys, "verify")
        assert code == 1

    def test_unknown_bug_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--inject-bug", "no-such-bug")
        assert code == 2
        assert "unknown bug injection" in err

    def test_unknown_profile_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--profile", "exhaustive"])

    def test_regenerate_golden_writes_corpus(self, capsys, monkeypatch,
                                             tmp_path):
        import repro.verification

        target = tmp_path / "corpus.json"
        monkeypatch.setattr(
            repro.verification, "write_corpus",
            lambda: (target.write_text("{}"), target)[1],
        )
        code, out, _ = run_cli(capsys, "verify", "--regenerate-golden")
        assert code == 0
        assert "regenerated" in out
        assert target.exists()

    @pytest.mark.slow
    def test_real_quick_profile_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--profile", "quick")
        assert code == 0
        assert "0 failed" in out
        assert "engine pairs (11)" in out

    @pytest.mark.slow
    def test_real_injected_off_by_one_exits_one(self, capsys):
        # The acceptance demonstration: the same battery that passes on
        # main must fail loudly when a quorum threshold is off by one.
        code, out, _ = run_cli(
            capsys, "verify", "--profile", "quick", "--no-golden",
            "--inject-bug", "quorum-off-by-one",
        )
        assert code == 1
        assert "quorum-off-by-one" in out
        assert "FAIL" in out


class TestCache:
    def test_stats_cold(self, capsys):
        from repro.analytic import cache as density_cache

        density_cache.get_cache().clear()
        code, out, _ = run_cli(capsys, "cache")
        assert code == 0
        assert "density cache: enabled" in out
        assert "hits:    0" in out

    def test_exercise_reports_warm_hits(self, capsys):
        from repro.analytic import cache as density_cache

        density_cache.get_cache().clear()
        code, out, _ = run_cli(capsys, "cache", "--exercise")
        assert code == 0
        assert "closed_form" in out
        assert "enumeration" in out
        stats = density_cache.stats()
        assert stats.hits >= stats.misses  # second pass re-hit everything
        density_cache.get_cache().clear()


class TestProfile:
    def test_enumeration_writes_perfetto_trace(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "profile", "enumeration", "--sites", "8",
            "--out", "enum-profile",
        )
        assert code == 0
        trace = tmp_path / "enum-profile.trace.json"
        events = tmp_path / "enum-profile.events.jsonl"
        assert trace.exists() and events.exists()
        assert "tree digest" in out
        assert "enum." in out  # phase table names the kernel phases
        import json

        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_simulate_target_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "profile", "simulate", "--out", "sim-profile",
        )
        assert code == 0
        assert (tmp_path / "sim-profile.trace.json").exists()
        assert "critical path" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "frobnicate"])

    def test_event_stream_feeds_repro_metrics(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "profile", "enumeration", "--sites", "6",
                             "--out", "enum-profile")
        assert code == 0
        code, out, _ = run_cli(capsys, "metrics", "enum-profile.events.jsonl")
        assert code == 0
        assert "phases (top by cumulative wall time)" in out
        assert "enum.branch" in out and "target        : enumeration" in out

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_rejected(self, capsys, tmp_path, monkeypatch, top):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "profile", "enumeration", "--top", top)
        assert code == 2
        assert err == f"error: --top must be >= 1, got {top}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target,sites", [
        ("enumeration", 0), ("enumeration", 2),
        ("montecarlo", 0), ("montecarlo", 3),
        ("votes", 0), ("votes", 3),
        ("serve", 0), ("serve", 3),
    ])
    def test_sites_below_the_target_minimum_rejected(
            self, capsys, tmp_path, monkeypatch, target, sites):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "profile", target, "--sites", str(sites))
        assert code == 2
        assert err.count("error:") == 1 and "--sites" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestShard:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "shard", "--family", "ring", "--sites", "7",
            "--items", "12", "--alpha-classes", "0.3", "0.6", "0.9",
            "--accesses", "2000", "--warmup", "200", "--batches", "2",
        )
        assert code == 0
        assert "sharded run" in out
        assert "12 items" in out
        # Default votes and quorums: the alpha classes are the workload's,
        # the protocol sees one (votes, q_r) class.
        assert "quorum classes  : 1 for 12 items" in out
        assert "availability" in out
        assert "item ACC" in out
        assert "SURV" in out

    def test_optimize_reports_per_class_assignments(self, capsys):
        code, out, _ = run_cli(
            capsys, "shard", "--family", "ring", "--sites", "7",
            "--items", "9", "--alpha-classes", "0.3", "0.6", "0.9",
            "--optimize", "--accesses", "1000", "--warmup", "100",
            "--batches", "2",
        )
        assert code == 0
        assert "3 per-class runs for 9 items" in out
        classes = int(out.split("quorum classes  : ")[1].split()[0])
        assert 1 <= classes <= 3
        assert "class alpha=0.3" in out
        assert "class alpha=0.9" in out
        assert "q_r=" in out

    def test_bad_item_count_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "shard", "--family", "ring", "--items", "0",
        )
        assert code == 2
        assert "error:" in err
        assert "--items must be >= 1" in err

    def test_bad_exponent_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "shard", "--family", "ring", "--items", "4",
            "--exponent", "-2",
        )
        assert code == 2
        assert "error:" in err
        assert "exponent" in err

    def test_missing_family_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["shard", "--items", "5"])
        assert excinfo.value.code == 2

    def test_chunk_size_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["shard", "--family", "ring", "--chunk-size", "64"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --chunk-size" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_twelve_subcommands(self):
        assert sorted(_subcommands()) == [
            "cache", "campaign", "chaos", "metrics", "optimize", "profile",
            "serve", "shard", "shootout", "simulate", "verify", "votes"]

    @pytest.mark.parametrize("command", ["figure", "rw-table",
                                         "write-constraint"])
    def test_campaign_slices_are_not_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_scale_is_test_or_paper(self):
        scaled = {
            name: action.choices
            for name, sub in _subcommands().items()
            for action in sub._actions if "--scale" in action.option_strings
        }
        assert sorted(scaled) == ["campaign", "chaos", "shootout", "simulate"]
        assert set(map(tuple, scaled.values())) == {("test", "paper")}
