"""Tests for sweep reporters, SweepStats guards and the JSONL reporter."""

import io
import json
import math
import os
import sys
import time

import pytest

from repro.eval.runner import (
    ConsoleReporter,
    MultiReporter,
    ResultCache,
    SweepStats,
    run_sweep,
)
from repro.netsim.simulator import SimulationConfig, run_simulation
from repro.obs.telemetry import (
    MANIFEST_SCHEMA,
    EmptyTelemetryError,
    JsonlReporter,
    build_run_manifest,
    host_info,
    read_jsonl,
    summarize_metrics_dir,
    write_run_manifest,
)


def _quick_cfg(rate=0.05):
    return SimulationConfig(
        injection_rate=rate,
        warmup_cycles=30,
        measure_cycles=80,
        drain_cycles=80,
        seed=2,
    )


class TestSweepStatsGuards:
    def test_fresh_stats_rate_is_zero_not_error(self):
        stats = SweepStats(total=4)
        assert stats.sims_per_sec == 0.0

    def test_all_cache_hit_sweep_has_finite_eta(self):
        # Every point from cache: simulated == 0, elapsed ~ 0.  Before
        # the guard this was 0/0 or remaining/0.
        stats = SweepStats(total=3, completed=3, cache_hits=3)
        assert stats.sims_per_sec == 0.0
        assert stats.eta_seconds == 0.0

    def test_eta_nan_while_no_rate_estimate(self):
        stats = SweepStats(total=5, completed=2, cache_hits=2)
        assert math.isnan(stats.eta_seconds)

    def test_eta_positive_with_real_rate(self):
        stats = SweepStats(
            total=4, completed=2, cache_hits=0,
            started_at=time.monotonic() - 10.0,
        )
        assert stats.sims_per_sec > 0
        assert stats.eta_seconds > 0


class TestConsoleReporter:
    def test_reports_progress_and_nan_eta(self):
        stream = io.StringIO()
        rep = ConsoleReporter(stream=stream)
        stats = SweepStats(total=2, completed=1, cache_hits=1)
        rep.sweep_started(stats)
        # cache-hit first point: rate estimate does not exist yet
        rep.point_done(_quick_cfg(), run_simulation(_quick_cfg()), True, stats)
        stats.completed = 2
        rep.sweep_finished(stats)
        out = stream.getvalue()
        assert "sweep: 2 point(s)" in out
        assert "cache" in out
        assert "eta    ?" in out  # NaN path renders a placeholder
        assert "sweep done" in out

    def test_all_cache_hit_finish_line(self):
        stream = io.StringIO()
        rep = ConsoleReporter(stream=stream)
        stats = SweepStats(total=1, completed=1, cache_hits=1)
        rep.sweep_finished(stats)
        assert "0.00 sims/s" in stream.getvalue()


class TestJsonlReporter:
    def test_rows_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cfg = _quick_cfg()
        result = run_simulation(cfg)
        rep = JsonlReporter(path)
        stats = SweepStats(total=1)
        rep.sweep_started(stats)
        stats.completed = 1
        rep.point_done(cfg, result, False, stats)
        rep.sweep_finished(stats)
        rows = read_jsonl(path)
        assert [r["kind"] for r in rows] == [
            "sweep_started", "point", "sweep_finished",
        ]
        point = rows[1]
        assert point["config"]["injection_rate"] == cfg.injection_rate
        assert point["result"]["avg_latency"] == result.avg_latency
        assert point["cached"] is False
        assert len(point["key"]) == 32

    def test_flushes_after_every_point(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cfg = _quick_cfg()
        rep = JsonlReporter(path)
        stats = SweepStats(total=2)
        rep.sweep_started(stats)
        rep.point_done(cfg, run_simulation(cfg), False, stats)
        # Without close(): a killed sweep must still leave parseable rows.
        rows = read_jsonl(path)
        assert rows[-1]["kind"] == "point"
        rep.close()

    def test_accepts_preopened_stream(self):
        stream = io.StringIO()
        rep = JsonlReporter(stream)
        rep.sweep_started(SweepStats(total=0))
        rep.sweep_finished(SweepStats(total=0))
        rows = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert rows[0]["kind"] == "sweep_started"
        # Caller-owned streams are not closed by the reporter.
        assert not stream.closed

    def test_integrates_with_run_sweep(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        configs = [_quick_cfg(0.05), _quick_cfg(0.1)]
        run_sweep(configs, reporter=JsonlReporter(path))
        rows = read_jsonl(path)
        assert sum(r["kind"] == "point" for r in rows) == 2
        assert rows[-1]["kind"] == "sweep_finished"
        assert rows[-1]["completed"] == 2


class TestMultiReporter:
    def test_fans_out_to_all_sinks(self):
        calls = []

        class Probe(JsonlReporter):
            def __init__(self, tag):
                super().__init__(io.StringIO())
                self.tag = tag

            def sweep_started(self, stats):
                calls.append(self.tag)

        multi = MultiReporter(Probe("a"), None, Probe("b"))
        multi.sweep_started(SweepStats(total=0))
        assert calls == ["a", "b"]


class TestManifest:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.json")
        cfgs = [_quick_cfg(0.05), _quick_cfg(0.1)]
        stats = SweepStats(total=2, completed=2, cache_hits=1)
        manifest = build_run_manifest(
            cfgs, wall_time_s=1.5, stats=stats, cache=cache,
            command=["repro", "sweep"],
        )
        path = write_run_manifest(tmp_path / "manifest.json", manifest)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["points"] == {"total": 2, "cached": 1, "simulated": 1,
                                    "failed": 0, "retries": 0}
        assert len(loaded["config_keys"]) == 2
        assert loaded["cache"]["path"] == str(cache.path)
        assert loaded["host"]["python"]
        assert loaded["command"] == ["repro", "sweep"]

    def test_host_info_comes_from_uname(self, monkeypatch):
        u = os.uname()
        assert host_info() == {
            "hostname": u.nodename,
            "platform": f"{u.sysname}-{u.release}-{u.machine}",
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        }
        monkeypatch.delattr(os, "uname")
        assert host_info()["platform"] == sys.platform

    def test_manifest_without_stats_or_cache(self):
        manifest = build_run_manifest([_quick_cfg()], wall_time_s=0.0)
        assert manifest["points"]["cached"] is None
        assert manifest["cache"] is None


class TestReportBackend:
    def test_summarize_empty_dir_raises(self, tmp_path):
        with pytest.raises(EmptyTelemetryError, match="no telemetry found"):
            summarize_metrics_dir(tmp_path)

    def test_summarize_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a directory"):
            summarize_metrics_dir(tmp_path / "nope")

    def test_summarize_full_dir(self, tmp_path):
        from repro.obs.observer import SimObserver

        cfg = _quick_cfg(0.1)
        obs = SimObserver(metrics_path=tmp_path / "metrics.jsonl",
                          trace_path=tmp_path / "trace.json",
                          sample_every=40)
        rep = JsonlReporter(tmp_path / "sweep.jsonl")
        stats = SweepStats(total=1)
        rep.sweep_started(stats)
        result = run_simulation(cfg, observer=obs)
        stats.completed = 1
        rep.point_done(cfg, result, False, stats)
        rep.sweep_finished(stats)
        obs.finalize()
        write_run_manifest(
            tmp_path / "manifest.json",
            build_run_manifest([cfg], wall_time_s=0.5, stats=stats),
        )

        text = summarize_metrics_dir(tmp_path)
        assert "run manifest" in text
        assert "sweep points" in text
        assert "matching efficiency" in text
        assert "stall sources" in text
        assert "latency breakdown" in text
