"""Hardened sweep execution: crashes, timeouts, retries, checkpoints.

Worker functions here are module-level (the pool imports them in child
processes) and keyed off the config so one sweep can mix healthy and
pathological points.  The sweep must always come back: survivors
bit-identical to a serial run, failures as structured
:class:`PointFailure` records, and a journal a second invocation can
resume from.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.eval.checkpoint import SweepCheckpoint, sweep_signature
from repro.eval.runner import (
    NullReporter,
    SweepPointError,
    config_key,
    run_sweep,
)
from repro.faults import WatchdogError
from repro.netsim.simulator import SimulationConfig, SimulationResult
from repro.netsim.stats import LatencySummary

#: injection_rate values with special meaning to the workers below.
RAISE_RATE = 0.911
CRASH_RATE = 0.912
HANG_RATE = 0.913
SNAPSHOT_RATE = 0.914
FLAKY_RATE = 0.915


def _payload(cfg_dict):
    cfg = SimulationConfig.from_dict(cfg_dict)
    return SimulationResult(
        config=cfg,
        avg_latency=20.0 + cfg.injection_rate,
        measured_packets=100,
        delivered_packets=100,
        injected_flit_rate=cfg.injection_rate,
        accepted_flit_rate=cfg.injection_rate,
        saturated=False,
        latency_summary=LatencySummary(100, 20.0, 1.0, 18.0, 20.0, 22.0, 23.0, 24.0),
        latency_stderr=0.1,  # NaN would break equality comparisons
    ).to_payload()


def mixed_worker(cfg_dict):
    """Healthy for normal rates; misbehaves on the marker rates."""
    rate = round(cfg_dict["injection_rate"], 3)
    if rate == RAISE_RATE:
        raise ValueError("synthetic point failure")
    if rate == CRASH_RATE:
        os.kill(os.getpid(), signal.SIGKILL)
    if rate == HANG_RATE:
        time.sleep(60)
    if rate == SNAPSHOT_RATE:
        raise WatchdogError("wedged", {"cycle": 7, "stall_cycles": 50})
    if rate == FLAKY_RATE:
        marker = Path(os.environ["REPRO_TEST_FLAKY_MARKER"])
        if not marker.exists():
            marker.touch()
            raise RuntimeError("first attempt fails")
    return _payload(cfg_dict)


def _cfgs(*rates):
    return [SimulationConfig(injection_rate=r) for r in rates]


class _FailureCapture(NullReporter):
    def __init__(self):
        self.failures = []
        self.stats = None

    def point_failed(self, cfg, failure, stats):
        self.failures.append(failure)

    def sweep_finished(self, stats):
        self.stats = stats


class TestFailureModes:
    def test_raising_worker_recorded_and_survivors_intact(self):
        configs = _cfgs(0.1, RAISE_RATE, 0.3)
        cap = _FailureCapture()
        results = run_sweep(
            configs, jobs=2, worker_fn=mixed_worker,
            on_failure="record", reporter=cap,
        )
        assert results[1] is None
        assert [r is not None for r in results] == [True, False, True]
        (failure,) = cap.failures
        assert failure.kind == "exception"
        assert failure.error == "ValueError"
        assert failure.index == 1
        assert failure.attempts == 1
        # Survivors match what the same worker returns serially.
        expected = SimulationResult.from_payload(_payload(configs[0].to_dict()))
        assert results[0] == expected

    def test_raise_mode_aborts_the_sweep(self):
        with pytest.raises(SweepPointError) as exc_info:
            run_sweep(
                _cfgs(0.1, RAISE_RATE), jobs=2, worker_fn=mixed_worker,
                on_failure="raise",
            )
        assert exc_info.value.failure.error == "ValueError"

    def test_killed_worker_is_a_crash_failure(self):
        configs = _cfgs(0.1, CRASH_RATE, 0.3)
        cap = _FailureCapture()
        results = run_sweep(
            configs, jobs=2, worker_fn=mixed_worker,
            on_failure="record", reporter=cap,
        )
        assert [r is not None for r in results] == [True, False, True]
        (failure,) = cap.failures
        assert failure.kind == "crash"
        assert failure.error == "WorkerCrashed"
        assert str(-signal.SIGKILL) in failure.message

    def test_hanging_worker_times_out(self):
        configs = _cfgs(0.1, HANG_RATE)
        cap = _FailureCapture()
        t0 = time.monotonic()
        results = run_sweep(
            configs, jobs=2, worker_fn=mixed_worker,
            timeout=1.0, on_failure="record", reporter=cap,
        )
        assert time.monotonic() - t0 < 30.0  # nowhere near the 60s sleep
        assert results[1] is None
        (failure,) = cap.failures
        assert failure.kind == "timeout"
        assert failure.error == "PointTimeout"

    def test_exception_snapshot_rides_along_as_detail(self):
        cap = _FailureCapture()
        run_sweep(
            _cfgs(SNAPSHOT_RATE), jobs=2, worker_fn=mixed_worker,
            on_failure="record", reporter=cap,
        )
        (failure,) = cap.failures
        assert failure.detail == {"cycle": 7, "stall_cycles": 50}

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_cfgs(0.1), on_failure="shrug")


class TestRetries:
    def test_flaky_point_succeeds_after_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "attempted")
        )
        cap = _FailureCapture()
        results = run_sweep(
            _cfgs(FLAKY_RATE), jobs=2, worker_fn=mixed_worker,
            retries=1, backoff=0.01, on_failure="record", reporter=cap,
        )
        assert results[0] is not None
        assert cap.failures == []
        assert cap.stats.retries == 1

    def test_retries_exhausted_reports_total_attempts(self):
        cap = _FailureCapture()
        run_sweep(
            _cfgs(RAISE_RATE), jobs=2, worker_fn=mixed_worker,
            retries=2, backoff=0.01, on_failure="record", reporter=cap,
        )
        (failure,) = cap.failures
        assert failure.attempts == 3  # first try + 2 retries
        assert cap.stats.retries == 2

    def test_inline_path_retries_too(self):
        calls = []

        def flaky_sim(cfg):
            calls.append(cfg)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return SimulationResult.from_payload(_payload(cfg.to_dict()))

        results = run_sweep(
            _cfgs(0.1), sim_fn=flaky_sim, retries=1, backoff=0.0,
        )
        assert len(calls) == 2
        assert results[0] is not None


class _HandOffSpy:
    """The parent's end of a worker pipe, noting the offered load of
    every point it hands to that worker."""

    def __init__(self, conn, handed):
        self._conn = conn
        self._handed = handed

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def send(self, cfg_dict):
        self._handed.append(cfg_dict["injection_rate"])
        self._conn.send(cfg_dict)


class _PoolSpy:
    """A multiprocessing context that notes, in the parent, every
    worker process it starts and every point handed to a worker."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.started = []
        self.handed = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Pipe(self):
        parent_end, child_end = self._ctx.Pipe()
        return _HandOffSpy(parent_end, self.handed), child_end

    def Process(self, target, args, daemon):
        proc = self._ctx.Process(target=target, args=args, daemon=daemon)
        self.started.append(proc)
        return proc


@pytest.fixture
def pool_spy(monkeypatch):
    import multiprocessing

    spy = _PoolSpy(multiprocessing.get_context())
    monkeypatch.setattr(multiprocessing, "get_context", lambda: spy)
    return spy


class TestLaunchOrder:
    RATES = (0.05, 0.15, 0.25, 0.35, 0.45, 0.25)

    @pytest.fixture(autouse=True)
    def _spy(self, pool_spy):
        self.spy = pool_spy

    def _launched(self, rates=RATES, **kwargs):
        configs = [
            SimulationConfig(injection_rate=r, seed=i)
            for i, r in enumerate(rates)
        ]
        results = run_sweep(configs, worker_fn=mixed_worker, **kwargs)
        # Whatever the launch order, results land by index.
        assert [r.config for r in results] == configs
        return self.spy.handed

    def test_side_by_side_the_saturated_point_starts_first(self):
        # Ties (the two 0.25 points) keep index order.
        assert self._launched(jobs=2) == [
            0.45, 0.35, 0.25, 0.25, 0.15, 0.05]

    def test_one_job_keeps_index_order(self):
        assert self._launched(jobs=1, timeout=60.0) == list(self.RATES)

    def test_a_retry_does_not_jump_the_queue(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker"))
        launched = self._launched(
            (0.05, FLAKY_RATE, 0.15), jobs=2, retries=1, backoff=0.05
        )
        assert launched[:3] == [FLAKY_RATE, 0.15, 0.05]
        assert sorted(launched) == [0.05, 0.15, FLAKY_RATE, FLAKY_RATE]


def _serial(cfg):
    return SimulationResult.from_payload(_payload(cfg.to_dict()))


class TestLongLivedWorkers:
    """Workers outlive their points: a sweep starts one per job, and a
    crash or a timeout costs exactly the worker that ran that point."""

    def test_six_points_at_two_jobs_start_two_workers(self, pool_spy):
        configs = _cfgs(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        results = run_sweep(configs, jobs=2, worker_fn=mixed_worker)
        assert results == [_serial(cfg) for cfg in configs]
        # Both read EOF when the sweep closed their pipes and exited.
        assert [proc.exitcode for proc in pool_spy.started] == [0, 0]

    def test_never_more_workers_than_points(self, pool_spy):
        run_sweep(_cfgs(0.1, 0.2), jobs=8, worker_fn=mixed_worker)
        assert len(pool_spy.started) == 2

    @pytest.mark.parametrize("rate,kind", [
        (CRASH_RATE, "crash"), (HANG_RATE, "timeout"),
    ])
    def test_a_lost_worker_is_replaced_for_the_next_point(
        self, pool_spy, rate, kind
    ):
        configs = _cfgs(rate, 0.1, 0.2)
        cap = _FailureCapture()
        results = run_sweep(
            configs, jobs=1, timeout=2.0, worker_fn=mixed_worker,
            on_failure="record", reporter=cap,
        )
        assert [f.kind for f in cap.failures] == [kind]
        assert len(pool_spy.started) == 2  # the first worker, then its stand-in
        assert results[1:] == [_serial(cfg) for cfg in configs[1:]]

    def test_an_exception_keeps_its_worker(self, pool_spy):
        results = run_sweep(
            _cfgs(RAISE_RATE, 0.1), jobs=1, timeout=60.0,
            worker_fn=mixed_worker, on_failure="record",
        )
        assert len(pool_spy.started) == 1
        assert results[1] == _serial(_cfgs(0.1)[0])

    def test_an_aborted_sweep_leaves_no_worker(self):
        import multiprocessing

        with pytest.raises(SweepPointError):
            run_sweep(
                _cfgs(0.1, HANG_RATE, RAISE_RATE, 0.2), jobs=2,
                worker_fn=mixed_worker, on_failure="raise",
            )
        assert multiprocessing.active_children() == []

    def test_an_interrupted_sweep_leaves_no_worker(self):
        import multiprocessing

        class Interrupt(NullReporter):
            def point_done(self, cfg, result, cached, stats):
                raise KeyboardInterrupt

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                _cfgs(HANG_RATE, 0.1, 0.2, 0.3), jobs=2,
                worker_fn=mixed_worker, reporter=Interrupt(),
            )
        assert time.monotonic() - t0 < 30.0  # the hung point was stopped
        assert multiprocessing.active_children() == []


class TestDefaultJobs:
    """``jobs=None``: one worker per usable CPU, at most one per point
    that needs computing."""

    @pytest.fixture(autouse=True)
    def _three_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.eval.runner.usable_cpus", lambda: 3)

    def test_workers_are_the_lesser_of_cpus_and_pending_points(self, pool_spy):
        run_sweep(_cfgs(0.1, 0.2, 0.3, 0.4, 0.5), jobs=None,
                  worker_fn=mixed_worker)
        assert len(pool_spy.started) == 3
        run_sweep(_cfgs(0.1, 0.2), jobs=None, worker_fn=mixed_worker)
        assert len(pool_spy.started) == 3 + 2

    def test_one_pending_point_runs_inline(self, pool_spy, tmp_path):
        from repro.eval.runner import ResultCache

        configs = [SimulationConfig(injection_rate=r, warmup_cycles=20,
                                    measure_cycles=40, drain_cycles=40)
                   for r in (0.05, 0.1)]
        cache = ResultCache(tmp_path / "cache.json")
        run_sweep(configs[:1], cache=cache, jobs=1)
        # One hit, one miss: the miss runs here, as a one-point sweep does.
        results = run_sweep(configs, cache=cache, jobs=None)
        assert pool_spy.started == []
        assert [r.config for r in results] == configs


class TestCheckpointResume:
    def _checkpoint(self, path, configs):
        keys = [config_key(cfg) for cfg in configs]
        return SweepCheckpoint(path, sweep_signature(keys))

    def test_failed_sweep_keeps_journal_and_resumes(self, tmp_path):
        configs = _cfgs(0.1, RAISE_RATE, 0.3)
        path = tmp_path / "sweep.ckpt.jsonl"

        first = run_sweep(
            configs, jobs=2, worker_fn=mixed_worker,
            on_failure="record", checkpoint=self._checkpoint(path, configs),
        )
        assert first[1] is None
        assert path.exists()  # failures left: journal kept for resume

        # Second invocation: the failing point now succeeds (use a rate
        # remap via a fresh config list? no -- same sweep, healthy
        # worker) and recovered points are served without recomputation.
        calls = []

        def counting_sim(cfg):
            calls.append(cfg)
            return SimulationResult.from_payload(_payload(cfg.to_dict()))

        second = run_sweep(
            configs, sim_fn=counting_sim,
            checkpoint=self._checkpoint(path, configs),
        )
        assert [round(c.injection_rate, 3) for c in calls] == [RAISE_RATE]
        assert second[0] == first[0]
        assert second[2] == first[2]
        assert second[1] is not None
        assert not path.exists()  # clean finish removes the journal

    def test_interrupted_journal_tolerates_truncated_line(self, tmp_path):
        import json

        configs = _cfgs(0.1, 0.2)
        path = tmp_path / "sweep.ckpt.jsonl"
        sig = self._checkpoint(path, configs).signature
        key = config_key(configs[0])
        # A journal killed mid-append: one intact point, one truncated.
        path.write_text(
            json.dumps({"kind": "header", "schema": 1, "signature": sig})
            + "\n"
            + json.dumps(
                {"kind": "point", "key": key,
                 "payload": _payload(configs[0].to_dict())}
            )
            + "\n"
            + '{"kind": "poi'  # cut off by SIGKILL
        )
        recovered = SweepCheckpoint(path, sig)
        assert set(recovered.recovered) == {key}  # good row kept, stub dropped

    def test_point_recorded_after_a_torn_line_survives_the_next_resume(
        self, tmp_path
    ):
        path = tmp_path / "sweep.ckpt.jsonl"
        first = SweepCheckpoint(path, "s" * 32)
        first.record("a", {"v": 1})
        first.record("b", {"v": 2})
        first.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "point", "key": "c", "pay')  # SIGKILLed
        resumed = SweepCheckpoint(path, "s" * 32)
        assert set(resumed.recovered) == {"a", "b"}
        resumed.record("c", {"v": 3})
        resumed.record("d", {"v": 4})
        resumed.close()
        again = SweepCheckpoint(path, "s" * 32)
        assert again.recovered == {
            "a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "d": {"v": 4}
        }

    def test_signature_mismatch_starts_fresh(self, tmp_path):
        configs = _cfgs(0.1)
        path = tmp_path / "sweep.ckpt.jsonl"
        ckpt = self._checkpoint(path, configs)
        ckpt.record(config_key(configs[0]), _payload(configs[0].to_dict()))
        ckpt.close()

        other = SweepCheckpoint(path, "deadbeef" * 4)
        assert other.recovered == {}

    def test_recovered_points_backfill_the_cache(self, tmp_path):
        from repro.eval.runner import ResultCache

        configs = _cfgs(0.1)
        path = tmp_path / "sweep.ckpt.jsonl"
        cache = ResultCache(tmp_path / "cache.json")
        keys = [config_key(cfg, cache.salt) for cfg in configs]
        ckpt = SweepCheckpoint(path, sweep_signature(keys))
        ckpt.record(keys[0], _payload(configs[0].to_dict()))
        ckpt.close()

        ckpt = SweepCheckpoint(path, sweep_signature(keys))

        def never_called(cfg):  # pragma: no cover - guard
            raise AssertionError("point should come from the checkpoint")

        results = run_sweep(
            configs, cache=cache, sim_fn=never_called, checkpoint=ckpt,
        )
        assert results[0] is not None
        assert cache.get(configs[0]) == results[0]
