"""Tests for the self-contained HTML dashboard (``repro perf report``)."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.perf_report import build_perf_report

#: The committed baseline of the repo benchmark (``sets`` + ``rows``
#: shape); read here, never written.
SELFCHECK = Path(__file__).resolve().parents[2] / "bench/results/selfcheck.json"

WORKLOADS = ("sweep_mesh_wf", "sweep_fbfly_sepif", "dispatch_smallpoints",
             "offline_figs")
END_TO_END = ("wall_s", "warm_wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def _result(traced=True):
    """A small ``runs``-shaped result file, as ``python3 bench/run.py
    --workload sweep_mesh_wf`` (+ ``--trace``) writes it."""
    runs = [{
        "workload": "sweep_mesh_wf", "seed": 3, "trace": 0, "correct": True,
        "attempted": 74, "failed": 2,
        "metrics": {"wall_s": 9.07, "warm_wall_s": 0.092, "setup_s": 0.05,
                    "cpu_s": 9.19, "peak_rss_mb": 56.1},
        "details": {"digest_state": "pinned", "failures": []},
    }]
    if traced:
        runs.append({
            "workload": "sweep_mesh_wf", "seed": 3, "trace": 1,
            "correct": True, "attempted": 2, "failed": 0,
            "metrics": {
                "netsim.cycles_per_s.reference.mesh_wf_r015": 384.0,
                "netsim.cycles_per_s.fast.mesh_wf_r015": 1808.0,
                "netsim.cycles_per_s.compiled.mesh_wf_r015": 2264.0,
                "netsim.cycles_per_s.compiled.mesh_wf_r045": None,
                "netsim.phase_s.sw_alloc.mesh_wf_r015": 0.3,
                "netsim.phase_s.vc_alloc.mesh_wf_r015": 0.1,
                "netsim.phase_s.traffic.mesh_wf_r015": 0.1,
                "netsim.phase_coverage.mesh_wf_r015": 0.998,
            },
            "details": {
                "replay_layer_self_s": {"netsim": 1.03, "eval": 0.004},
                "probe_errors": {"hw": "RuntimeError: boom"},
                "failures": [],
            },
        })
    return {
        "schema": "nocbench/result/v1",
        "fingerprint": {"git_sha": "2007fff0910c65d9c068685f4bf9dd9f54346518",
                        "git_dirty": True, "simulator_rev": 3,
                        "python_full": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                        "seed": 3, "seconds": 20.0, "smoke": False,
                        "started_at": "2026-10-04T18:09:05+0000"},
        "runs": runs,
    }


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _metrics_dir(tmp_path):
    d = tmp_path / "obs"
    d.mkdir()
    rows = [
        {"kind": "sweep_started", "total": 1, "ts": 0.0},
        {"kind": "point", "key": "k", "config": {}, "cached": True,
         "completed": 1, "total": 1, "cache_hits": 1, "elapsed_s": 0.1,
         "result": {"injection_rate": 0.05, "avg_latency": 20.0,
                    "p50": 18, "p95": 30, "p99": 41}},
        {"kind": "sweep_finished", "completed": 1, "total": 1,
         "cache_hits": 1, "simulated": 0, "failed": 0, "retries": 0,
         "elapsed_s": 0.1, "sims_per_sec": 10.0, "ts": 0.1},
    ]
    (d / "sweep.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows))
    metric_rows = [
        {"kind": "fault_counters", "cycle": 400, "ctx": {},
         "value": {"flits_dropped": 3, "credits_dropped": 1}},
        {"kind": "warning", "code": "watchdog_fired", "msg": "x"},
    ]
    (d / "metrics.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in metric_rows))
    return d


def _rows(html):
    """Cell texts of every table row of the page."""
    return [re.findall(r"<t[dh][^>]*>(.*?)</t[dh]>", row, flags=re.S)
            for row in re.findall(r"<tr>(.*?)</tr>", html, flags=re.S)]


class TestBuildPerfReport:
    def test_full_dashboard(self, tmp_path):
        html = build_perf_report(
            bench_path=_write(tmp_path / "result.json", _result()),
            metrics_dir=_metrics_dir(tmp_path))
        rows = _rows(html)
        assert ["workload", *END_TO_END, "failed / attempted",
                "runs (median shown)"] in rows
        assert ["sweep_mesh_wf", "9.07", "0.092", "0.05", "9.19", "56.1",
                "2 / 74", "1"] in rows
        assert "git 2007fff0910c+dirty, simulator rev 3" in html
        # The traced run: throughput per kernel (a failed probe's null
        # is a dash), one phase bar, self time per layer, probe errors.
        assert ["mesh_wf_r015", "384", "1,808", "2,264"] in rows
        assert ["mesh_wf_r045", "-", "-", "-"] in rows
        assert 'title="sw_alloc: 0.300s (60.0%)"' in html
        assert ["netsim", "1.030", "99.6%"] in rows
        assert "probe_error[hw]: RuntimeError: boom" in html
        assert "Fault counters" in html
        assert "flits_dropped" in html
        assert "watchdog_fired" in html
        assert "cache hit rate 100%" in html

    def test_committed_selfcheck_baseline_renders(self):
        before = SELFCHECK.read_bytes()
        html = build_perf_report(bench_path=SELFCHECK)
        assert SELFCHECK.read_bytes() == before
        table = {row[0]: row for row in _rows(html)}
        assert table["workload"][1:6] == list(END_TO_END)
        for workload in WORKLOADS:
            for side in "AB":
                row = table[f"{workload} (set {side})"]
                assert all(float(cell) > 0 for cell in row[1:6]), row
                assert row[6].startswith("0 / ") and row[7] == "10"
        assert "git 1ef165166834+dirty" in html
        # One traced run per workload and set, each with its phase bars.
        assert html.count("<h3>") == 8
        assert html.count('title="sw_alloc: ') == 16
        assert "probe_error" not in html

    def test_output_is_self_contained(self, tmp_path):
        html = build_perf_report(
            bench_path=_write(tmp_path / "b.json", _result()))
        # No external assets of any kind: no scripts, no remote URLs.
        assert "<script" not in html
        assert not re.search(r'(src|href)\s*=\s*["\']https?://', html)
        assert not re.search(r'<link\b', html)

    def test_missing_inputs_render_as_notes(self, tmp_path):
        html = build_perf_report(
            bench_path=_write(tmp_path / "b.json", _result()),
            metrics_dir=tmp_path / "missing-dir",
        )
        assert "skipped missing input" in html
        assert "missing-dir" in html

    def test_no_inputs_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no performance") as exc:
            build_perf_report(bench_path=tmp_path / "a.json",
                              metrics_dir=tmp_path / "b")
        assert "python3 bench/run.py" in str(exc.value)

    def test_untraced_result_prompts_for_trace_flag(self, tmp_path):
        html = build_perf_report(
            bench_path=_write(tmp_path / "b.json", _result(traced=False)))
        assert "bench/run.py --trace" in html

    @pytest.mark.parametrize("doc", [
        # What the retired `repro bench` wrote (the name is split so a
        # grep for the old schema finds no live reference).
        {"schema": "repro/" "kernel-bench/v1", "simulator_rev": 2, "points": []},
        [1, 2],
    ], ids=["old bench report", "not an object"])
    def test_other_schema_is_one_note_not_a_traceback(self, tmp_path, doc):
        html = build_perf_report(bench_path=_write(tmp_path / "b.json", doc))
        assert "unsupported schema" in html
        assert "nocbench/result/v1" in html
        assert "<table" not in html

    def test_torn_sweep_log_still_renders(self, tmp_path):
        # What a SIGKILLed `repro sweep --metrics` leaves behind.
        d = _metrics_dir(tmp_path)
        log = d / "sweep.jsonl"
        log.write_bytes(log.read_bytes()[:-40])
        html = build_perf_report(metrics_dir=d)
        assert "1 point(s), cache hit rate 100%" in html

    @pytest.mark.parametrize("text", ["[1, 2]", '{"schema": "other/v1"}',
                                      '{"schema": '])
    def test_non_artifact_resilience_file_is_a_note(self, tmp_path, text):
        bad = tmp_path / "r.json"
        bad.write_text(text)
        html = build_perf_report(resilience_path=bad)
        assert "unreadable resilience artifact" in html


class TestPerfReportCli:
    def test_writes_html(self, capsys, tmp_path):
        out = tmp_path / "perf.html"
        rc = main(["perf", "report",
                   "--bench", str(_write(tmp_path / "b.json", _result())),
                   "--output", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert out.read_text().startswith("<!doctype html>")

    def test_exits_2_without_artifacts(self, capsys, tmp_path):
        rc = main(["perf", "report",
                   "--bench", str(tmp_path / "a.json"),
                   "--output", str(tmp_path / "perf.html")])
        assert rc == 2
        assert "no performance artifacts" in capsys.readouterr().err
        assert not (tmp_path / "perf.html").exists()

    def test_torn_line_is_one_warning_on_stderr(self, capsys, tmp_path):
        d = _metrics_dir(tmp_path)
        log = d / "sweep.jsonl"
        log.write_bytes(log.read_bytes()[:-40])
        rc = main(["perf", "report", "--bench", str(tmp_path / "none.json"),
                   "--metrics", str(d), "--output", str(tmp_path / "p.html")])
        assert rc == 0
        err = capsys.readouterr().err
        assert err == f"warning: skipped 1 unparsable line(s) in {log}\n"

    def test_help_lists_exactly_the_four_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "report", "--help"])
        options = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out))
        assert options == {"--help", "--bench", "--metrics", "--resilience",
                           "--output"}
