"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.topology == "mesh"
        assert args.speculation == "pessimistic"

    def test_sweep_runner_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs is None  # run_sweep: one worker per usable CPU
        assert build_parser().parse_args(["resilience"]).jobs is None
        assert args.no_cache is False
        assert args.cache_path is None
        assert args.progress is False

    @pytest.mark.parametrize("command", ["quality", "cost", "lint", "verify",
                                         "sweep", "faults", "resilience"])
    def test_store_flags_are_spelled_alike(self, command, tmp_path):
        parse = build_parser().parse_args
        args = parse([command])
        assert args.no_cache is False and args.cache_path is None
        args = parse([command, "--no-cache", "--cache-path", str(tmp_path)])
        assert args.no_cache is True and args.cache_path == str(tmp_path)

    def test_sweep_observability_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.metrics is None
        assert args.trace is None
        assert args.sample_every == 100

    def test_sweep_hardening_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.faults is None
        assert args.watchdog is None
        assert args.timeout is None
        assert args.retries == 0
        assert args.backoff == 1.0
        assert args.resume is False
        assert args.checkpoint is None

    @pytest.mark.parametrize("argv", [
        ["sweep", "--jobs", "0"],
        ["sweep", "--jobs", "-2"],
        ["sweep", "--timeout", "0"],
        ["sweep", "--timeout", "-5"],
        ["sweep", "--retries", "-1"],
        ["sweep", "--backoff", "-0.5"],
        # Used to exit 0 with a table of zeros (or of 1.000).
        ["simulate", "--cycles", "-5"],
        ["sweep", "--cycles", "0"],
        ["faults", "--cycles", "-1"],
        ["resilience", "--cycles", "0"],
        ["quality", "--samples", "0", "--rates", "0.5"],
        # Used to end in a ValueError traceback, exit 1.
        ["sweep", "--metrics", "obs-out", "--sample-every", "0"],
        # Used to print a saturation column from zero bisection steps.
        ["faults", "--iterations", "0"],
    ])
    def test_sweep_rejects_nonsensical_runner_values(self, argv, capsys):
        # Bad worker/hardening values must die at the argparse layer
        # (exit code 2) before any simulation work starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err

    @pytest.mark.parametrize("argv,attr,expected", [
        (["sweep", "--jobs", "4"], "jobs", 4),
        (["sweep", "--timeout", "2.5"], "timeout", 2.5),
        (["sweep", "--retries", "0"], "retries", 0),
        (["sweep", "--backoff", "0"], "backoff", 0.0),
    ])
    def test_sweep_accepts_boundary_runner_values(self, argv, attr, expected):
        args = build_parser().parse_args(argv)
        assert getattr(args, attr) == expected

    def test_bench_is_gone(self, capsys):
        # One measurement system: `python3 bench/run.py` (bench/README.md).
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        # argparse's own message, which is also the 14 commands in
        # `--help` order.
        assert (
            "invalid choice: 'bench' (choose from 'figures', 'transitions', "
            "'quality', 'cost', 'simulate', 'sweep', 'serve', 'work', "
            "'faults', 'resilience', 'lint', 'verify', 'report', 'perf')"
        ) in capsys.readouterr().err

    def test_faults_subcommand_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.archs == "sep_if,sep_of,wf"
        assert args.kind == "vcs"
        assert args.iterations == 5

    def test_report_args(self):
        args = build_parser().parse_args(["report", "somedir", "--top", "3"])
        assert args.dir == "somedir"
        assert args.top == 3


class TestCommands:
    def test_transitions(self, capsys):
        assert main(["transitions", "--topology", "fbfly", "--vcs-per-class", "4"]) == 0
        out = capsys.readouterr().out
        assert "96 / 256" in out

    def test_quality(self, capsys):
        rc = main(
            ["quality", "--target", "switch", "--samples", "50",
             "--rates", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sep_if" in out and "wf" in out

    def test_quality_vc(self, capsys):
        rc = main(
            ["quality", "--target", "vc", "--samples", "50", "--rates", "1.0"]
        )
        assert rc == 0
        assert "matching quality" in capsys.readouterr().out

    def test_simulate(self, capsys):
        rc = main(["simulate", "--rate", "0.05", "--cycles", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_sweep(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps.json"))
        rc = main(
            ["sweep", "--rates", "0.05,0.1", "--cycles", "300"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "zero-load" in out
        assert "cache:" in out

    def test_sweep_parallel_jobs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps.json"))
        rc = main(
            ["sweep", "--rates", "0.05,0.1", "--cycles", "300",
             "--jobs", "2", "--progress"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "zero-load" in captured.out
        assert "sweep done" in captured.err

    def test_sweep_shows_percentiles(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps.json"))
        rc = main(["sweep", "--rates", "0.05", "--cycles", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out

    def test_sweep_instrumented_and_report(self, capsys, tmp_path):
        obs_dir = tmp_path / "obs"
        trace = obs_dir / "trace.json"
        rc = main(
            ["sweep", "--rates", "0.05,0.1", "--cycles", "300",
             "--metrics", str(obs_dir), "--trace", str(trace),
             "--sample-every", "50", "--jobs", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        # Instrumented runs force serial/uncached with a visible note.
        assert "forces a serial run" in captured.err
        assert "disables the sweep cache" in captured.err
        assert (obs_dir / "metrics.jsonl").exists()
        assert (obs_dir / "sweep.jsonl").exists()
        assert (obs_dir / "manifest.json").exists()
        assert trace.exists()

        rc = main(["report", str(obs_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matching efficiency" in out
        assert "latency breakdown" in out

    @pytest.mark.parametrize("jobs,noted", [([], False), (["--jobs", "2"], True)])
    def test_instrumented_sweep_notes_only_an_explicit_jobs(
        self, jobs, noted, capsys, tmp_path
    ):
        # The default --jobs is the usable CPUs: an instrumented sweep
        # that never asked for workers runs serially without a word.
        from repro.obs.metrics import recent_warnings

        before = len(recent_warnings())
        rc = main(["sweep", "--rates", "0.05,0.1", "--cycles", "60",
                   "--metrics", str(tmp_path / "obs"), *jobs])
        assert rc == 0
        err = capsys.readouterr().err
        assert ("forces a serial run" in err) is noted
        codes = [w.code for w in recent_warnings()[before:]]
        assert ("instrumented_sweep_forced_serial" in codes) is noted

    def test_sweep_writes_manifest_next_to_cache(self, capsys, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps.json"))
        rc = main(["sweep", "--rates", "0.05", "--cycles", "300"])
        assert rc == 0
        assert (tmp_path / "sweeps.manifest.json").exists()

    def test_sweep_with_faults_is_deterministic(self, capsys, tmp_path):
        argv = ["sweep", "--rates", "0.05,0.1", "--cycles", "240",
                "--faults", "vcs=0.05,seed=3", "--no-cache"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "zero-load" in first

    def test_sweep_bad_fault_spec_rejected(self, capsys):
        rc = main(["sweep", "--faults", "gremlins=1"])
        assert rc == 2
        assert "bad --faults spec" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--pattern", "bogus"],
         "error: unknown traffic pattern 'bogus'"),
        (["sweep", "--pattern", "hotspot", "--hotspots", "9999", "--no-cache"],
         "error: hotspot terminal(s) [9999] out of range for a "
         "64-terminal network"),
        (["sweep", "--rates", "0.1,abc", "--no-cache"],
         "error: --rates must be a comma list of numbers, got '0.1,abc'"),
        (["quality", "--rates", ","],
         "error: --rates must be a comma list of numbers, got ','"),
        (["faults", "--rates", "0.0,lots", "--no-cache"],
         "error: --rates must be a comma list of numbers, got '0.0,lots'"),
        (["faults", "--pattern", "bogus", "--no-cache"],
         "error: unknown traffic pattern 'bogus'"),
        (["simulate", "--rate", "-1", "--cycles", "50"],
         "error: injection_rate must be >= 0, got -1.0"),
        (["sweep", "--rates", "0.1,-0.2", "--no-cache"],
         "error: injection_rate must be >= 0, got -0.2"),
        # No traffic stream can be seeded with a negative seed.
        (["simulate", "--seed", "-1", "--cycles", "50"],
         "error: seed must be >= 0, got -1"),
        (["sweep", "--seed", "-1", "--no-cache"],
         "error: seed must be >= 0, got -1"),
        (["faults", "--seed", "-1", "--rates", "0.05", "--no-cache"],
         "error: seed must be >= 0, got -1"),
        (["faults", "--rates", "2", "--no-cache"],
         "error: stuck_vc_rate must be in [0, 1], got 2.0"),
        (["resilience", "--seed", "-1", "--counts", "0,1", "--no-cache"],
         "error: seed must be >= 0, got -1"),
        (["sweep", "--faults", "vcs=0.05,seed=-1", "--no-cache"],
         "error: bad --faults spec: seed must be >= 0, got -1"),
        # An infinite offered load is no operating point.
        (["sweep", "--rates", "0.1,inf"],
         "error: injection_rate must be finite, got inf"),
        # quality's rates are request probabilities.
        (["quality", "--rates", "0.5,1.5"],
         "error: --rates are request probabilities in [0, 1], got 1.5"),
        (["quality", "--rates", "-0.1"],
         "error: --rates are request probabilities in [0, 1], got -0.1"),
        (["quality", "--rates", "nan"],
         "error: --rates are request probabilities in [0, 1], got nan"),
    ])
    def test_bad_input_is_one_error_line_and_exit_2(
        self, argv, message, capsys, monkeypatch
    ):
        # Rejected before any point runs, not by a traceback from the
        # first one.
        def no_simulation(*args, **kwargs):
            raise AssertionError("a point ran before the input was rejected")

        # Every caller resolves the simulator from its module when a
        # point has to run, so this one patch covers them all.
        monkeypatch.setattr(
            "repro.netsim.simulator.run_simulation", no_simulation
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        # Neither result store was touched.
        for var in ("REPRO_SWEEP_CACHE", "REPRO_COST_CACHE"):
            assert not os.path.exists(os.environ[var])

    def test_uncached_sweep_builds_no_manifest(self, capsys, monkeypatch):
        # With no cache and no --metrics there is nowhere to write one.
        def no_manifest(*args, **kwargs):
            raise AssertionError("built a manifest nothing writes")

        monkeypatch.setattr("repro.obs.telemetry.build_run_manifest", no_manifest)
        assert main(["sweep", "--rates", "0.05", "--cycles", "60",
                     "--no-cache"]) == 0
        assert "zero-load" in capsys.readouterr().out

    def test_sweep_resume_checkpoint_cycle(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        argv = ["sweep", "--rates", "0.05", "--cycles", "240", "--no-cache",
                "--resume", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        capsys.readouterr()
        # Clean completion removes the journal; a rerun starts fresh.
        assert not ckpt.exists()
        assert main(argv) == 0
        assert "zero-load" in capsys.readouterr().out

    def test_faults_command_smoke(self, capsys, tmp_path):
        rc = main(
            ["faults", "--archs", "sep_if", "--rates", "0.0", "--cycles",
             "120", "--iterations", "1", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "saturation throughput vs vcs fault rate" in out
        assert "sep_if" in out

    def test_faults_command_rejects_bad_arch(self, capsys):
        rc = main(["faults", "--archs", "quantum"])
        assert rc == 2
        assert "--archs" in capsys.readouterr().err

    def test_resilience_command_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "resilience.json"
        rc = main(
            ["resilience", "--counts", "0,1", "--cycles", "150",
             "--no-cache", "--require-full-delivery", "1",
             "--output", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ft_dor delivered" in out
        assert "full delivery holds" in out
        artifact = json.loads(out_path.read_text())
        assert artifact["schema"] == "repro/resilience/v1"

    def test_resilience_gate_fails_on_an_undeliverable_mode(
        self, capsys, tmp_path
    ):
        # Plain DOR cannot tolerate a permanent fault, so gating a
        # default-only campaign must exit nonzero ("ft_dor missing").
        rc = main(
            ["resilience", "--counts", "1", "--cycles", "150",
             "--modes", "default", "--no-cache",
             "--require-full-delivery", "1"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_resilience_rejects_bad_counts(self, capsys):
        rc = main(["resilience", "--counts", "three"])
        assert rc == 2
        assert "--counts" in capsys.readouterr().err

    def test_resilience_rejects_bad_mode(self, capsys):
        rc = main(["resilience", "--modes", "adaptive"])
        assert rc == 2
        assert "--modes" in capsys.readouterr().err

    def test_perf_report_renders_resilience_panel(self, capsys, tmp_path):
        out_path = tmp_path / "resilience.json"
        assert main(
            ["resilience", "--counts", "0", "--cycles", "150",
             "--no-cache", "--output", str(out_path)]
        ) == 0
        capsys.readouterr()
        html_path = tmp_path / "perf.html"
        rc = main(
            ["perf", "report", "--bench", str(tmp_path / "missing.json"),
             "--resilience", str(out_path), "--output", str(html_path)]
        )
        assert rc == 0
        html = html_path.read_text()
        assert "Resilience" in html
        assert "ft_dor routing" in html

    def test_perf_report_survives_a_non_artifact_resilience_file(
        self, capsys, tmp_path
    ):
        not_an_artifact = tmp_path / "r.json"
        not_an_artifact.write_text("[1, 2]")
        html_path = tmp_path / "perf.html"
        rc = main(["perf", "report", "--bench", str(tmp_path / "missing.json"),
                   "--resilience", str(not_an_artifact),
                   "--output", str(html_path)])
        assert rc == 0
        assert "unreadable resilience artifact" in html_path.read_text()

    def test_report_skips_what_a_killed_sweep_left_torn(self, capsys, tmp_path):
        metrics = tmp_path / "obs"
        assert main(["sweep", "--rates", "0.05,0.1", "--cycles", "100",
                     "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics)]) == 0
        whole = capsys.readouterr()
        assert whole.err == ""
        # SIGKILL mid-append: the last row is cut short.  The manifest is
        # written after the sweep, so a killed run may leave garbage too.
        log = metrics / "sweep.jsonl"
        log.write_bytes(log.read_bytes()[:-40])
        manifest = metrics / "manifest.json"
        manifest.write_text(manifest.read_text()[:25])
        assert main(["report", str(metrics)]) == 0
        torn = capsys.readouterr()
        assert sorted(torn.err.splitlines()) == [
            f"warning: skipped 1 unparsable line(s) in {log}",
            f"warning: skipped unparsable manifest {manifest}",
        ]
        # Everything that did parse is still reported.
        assert "run manifest" in whole.out and "run manifest" not in torn.out
        assert whole.out.split("\n\n", 1)[1] == torn.out

    def test_report_missing_dir(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path / "nope")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_report_empty_dir(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path)])
        assert rc == 2
        assert "no telemetry found" in capsys.readouterr().err

    def test_cost_switch(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "c.json"))
        argv = ["cost", "--target", "switch", "--vcs-per-class", "1"]
        rc = main(argv)
        assert rc == 0
        cold = capsys.readouterr()
        assert "nonspec" in cold.out and "pessimistic" in cold.out
        # The second run is answered from the store the variable names;
        # the table is the same and the accounting stays off stdout.
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out and "cache:" not in warm.out
        assert cold.err == f"cache: 0 hit(s), 1 computed ({tmp_path / 'c.json'})\n"
        assert warm.err == f"cache: 1 hit(s), 0 computed ({tmp_path / 'c.json'})\n"


class TestFiguresCommand:
    def test_figures_lists_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fid in ("fig4", "fig7", "fig13", "fig14", "claims"):
            assert fid in out


class TestLintCommand:
    @staticmethod
    def _bad_tree(tmp_path):
        """A synthetic source tree with one observer-guard violation."""
        pkg = tmp_path / "repro" / "netsim"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def step(self):\n    self.observer.cycle_end(self, 0)\n"
        )
        return tmp_path / "repro"

    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.netlists is False and args.source is False
        assert args.ratchet is None
        assert args.format == "text"
        assert args.baseline is None and args.write_baseline is None
        assert args.quick is False

    def test_quick_netlist_matrix_is_clean(self, capsys):
        assert main(["lint", "--netlists", "--quick"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_source_violation_fails_the_run(self, capsys, tmp_path):
        root = self._bad_tree(tmp_path)
        rc = main(["lint", "--source", "--src-root", str(root)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SRC-OBSERVER-GUARD" in out and "bad.py" in out

    def test_json_report_written_to_file(self, tmp_path):
        import json

        root = self._bad_tree(tmp_path)
        out_path = tmp_path / "findings.json"
        rc = main([
            "lint", "--source", "--src-root", str(root),
            "--format", "json", "--output", str(out_path),
        ])
        assert rc == 1
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "SRC-OBSERVER-GUARD"
        assert payload["meta"]["source_root"] == str(root)

    def test_baseline_suppresses_and_passes(self, capsys, tmp_path):
        import json

        root = self._bad_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "suppressions": [{
                "rule": "SRC-OBSERVER-GUARD",
                "scope": "repro/netsim/bad.py",
                "location": "*",
                "reason": "known",
            }],
        }))
        rc = main([
            "lint", "--source", "--src-root", str(root),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        assert "1 baseline-suppressed" in capsys.readouterr().out

    def test_write_baseline_round_trip(self, capsys, tmp_path):
        root = self._bad_tree(tmp_path)
        baseline = tmp_path / "new-baseline.json"
        rc = main([
            "lint", "--source", "--src-root", str(root),
            "--write-baseline", str(baseline),
        ])
        assert rc == 1  # findings are reported even while baselining
        rc = main([
            "lint", "--source", "--src-root", str(root),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        capsys.readouterr()

    def test_stale_notes_only_for_stages_that_ran(self, capsys, tmp_path):
        root = tmp_path / "repro"
        root.mkdir()
        (root / "clean.py").write_text("x = 1\n")
        shipped = Path(__file__).resolve().parents[1] / "lint-baseline.json"
        entries = json.loads(shipped.read_text())["suppressions"]
        assert [e["rule"] for e in entries] == ["DRC-CONST-FOLD"]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "suppressions": entries + [{
            "rule": "DRC-FLOATING", "scope": "no-such-netlist",
            "location": "*", "reason": "matches nothing",
        }]}))

        # The source linter cannot produce a DRC-* finding: the shipped
        # suppression is not stale just because netlists were not run.
        assert main(["lint", "--source", "--src-root", str(root),
                     "--baseline", str(baseline)]) == 0
        assert "stale" not in capsys.readouterr().err

        # The netlist DRC can: an entry matching no netlist is stale.
        assert main(["lint", "--netlists", "--quick", "--no-cache",
                     "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "stale baseline entry matched nothing" in err
        assert "no-such-netlist" in err

    def test_stale_notes_judge_only_netlists_the_run_checked(
        self, capsys, tmp_path
    ):
        entry = {"rule": "DRC-FLOATING", "scope": "vc_wf_rr_P5_2x1x1*",
                 "location": "*", "reason": "matches nothing"}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "suppressions": [entry]}))
        shipped = Path(__file__).resolve().parents[1] / "lint-baseline.json"

        # Under a 1000-cell cap the quick matrix skips its wavefront VC
        # allocator (~1600 cells), the only netlist the entry can match:
        # matching nothing proves nothing.  The shipped entry, whose
        # matches are all past the quick design point, is live too.
        for path in (baseline, shipped):
            assert main(["lint", "--netlists", "--quick", "--max-cells", "1000",
                         "--no-cache", "--baseline", str(path)]) == 0
            assert "stale" not in capsys.readouterr().err
        # At the default cap that netlist is checked, and it is clean.
        assert main(["lint", "--netlists", "--quick", "--no-cache",
                     "--baseline", str(baseline)]) == 0
        assert "stale baseline entry matched nothing" in capsys.readouterr().err

    def test_bad_baseline_is_a_usage_error(self, capsys, tmp_path):
        root = self._bad_tree(tmp_path)
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        rc = main([
            "lint", "--source", "--src-root", str(root),
            "--baseline", str(bad),
        ])
        assert rc == 2
        assert "bad baseline" in capsys.readouterr().err


class TestClosedStdout:
    """``repro <command> | head -1``: the reader going away is not an
    error worth a traceback."""

    @staticmethod
    def run_until_first_line(argv, cwd):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            return first, stderr, proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()

    def test_reader_closing_after_the_first_line(self, tmp_path):
        # ~180 kB of findings: more than a pipe holds, so the command is
        # still writing (blocked) when the reader closes -- no race.
        noisy = tmp_path / "repro" / "netsim" / "noisy.py"
        noisy.parent.mkdir(parents=True)
        noisy.write_text("import random\n" + "".join(
            f"x{i} = random.random()\n" for i in range(1200)
        ))
        first, stderr, status = self.run_until_first_line(
            ["lint", "--source", "--src-root", str(tmp_path / "repro")],
            tmp_path,
        )
        assert b"SRC-UNSEEDED-RANDOM" in first
        assert stderr == b""
        assert status == 141

    def test_short_output_read_to_the_first_line(self, tmp_path):
        # The whole listing may fit the pipe before the reader closes
        # (then the command simply succeeds); either way, no traceback.
        first, stderr, status = self.run_until_first_line(["figures"], tmp_path)
        assert first.startswith(b"Experiment index")
        assert stderr == b""
        assert status in (0, 141)
