"""End-to-end behavior of the distributed sweep service.

Everything here runs against a real server (asyncio loop on a thread)
speaking the real wire protocol; only the simulator is swapped for the
deterministic analytic model, so the suite stays fast.  The final test
drives the actual ``repro serve``/``repro work``/``repro sweep
--connect`` CLI with the real simulator and asserts the acceptance bar:
byte-identical stdout tables for local vs distributed execution.
"""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.eval.checkpoint import SweepCheckpoint, sweep_signature
from repro.eval.runner import (
    SweepPointError,
    SweepReporter,
    config_key,
    run_sweep,
)
from repro.netsim.simulator import SimulationConfig
from repro.serve.cache import ShardedResultCache
from repro.serve.client import RemoteScheduler
from repro.serve.protocol import (
    MessageSocket,
    hello_message,
    parse_address,
)
from repro.serve.testing import analytic_result, analytic_worker

from .conftest import ServeHarness

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _configs(n=4, seed=1):
    return [
        SimulationConfig(injection_rate=0.05 * (i + 1), seed=seed)
        for i in range(n)
    ]


class _Capture(SweepReporter):
    def __init__(self):
        self.stats = None

    def sweep_finished(self, stats):
        self.stats = stats


class TestRemoteScheduler:
    def test_remote_results_match_local(self, harness):
        harness.start_worker()
        configs = _configs()
        results = run_sweep(
            configs, scheduler=RemoteScheduler(harness.address)
        )
        assert [r.avg_latency for r in results] == [
            analytic_result(c).avg_latency for c in configs
        ]
        # Full payload equality, not just the headline number: the
        # distributed path must be bit-identical to local execution.
        assert [r.to_payload() for r in results] == [
            analytic_result(c).to_payload() for c in configs
        ]

    def test_sequential_clients_hit_the_shared_cache(self, harness):
        harness.start_worker()
        configs = _configs()
        sched = RemoteScheduler(harness.address)
        run_sweep(configs, scheduler=sched)

        capture = _Capture()
        results = run_sweep(configs, scheduler=sched, reporter=capture)
        assert capture.stats.cache_hits == len(configs)
        assert [r.avg_latency for r in results] == [
            analytic_result(c).avg_latency for c in configs
        ]

    def test_concurrent_clients_compute_each_point_once(self, harness):
        computed = []

        def counting_worker(cfg_dict):
            computed.append(cfg_dict["injection_rate"])
            return analytic_worker(cfg_dict)

        harness.start_worker(worker_fn=counting_worker)
        configs = _configs()
        sched = RemoteScheduler(harness.address)
        outcomes = {}

        def client(name):
            outcomes[name] = run_sweep(configs, scheduler=sched)

        threads = [
            threading.Thread(target=client, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert set(outcomes) == {"a", "b"}
        # Identical answers for both clients, one computation per point:
        # the second submitter's waiters attach to the first's tasks.
        assert [r.to_payload() for r in outcomes["a"]] == [
            r.to_payload() for r in outcomes["b"]
        ]
        assert sorted(computed) == sorted(
            c.injection_rate for c in configs
        )

    def test_reported_failures_exhaust_retries_then_surface(self, tmp_path):
        harness = ServeHarness(tmp_path / "state", retries=1, backoff=0.01)
        try:
            attempts = []

            def flaky(cfg_dict):
                attempts.append(cfg_dict["injection_rate"])
                raise ValueError("injected failure")

            harness.start_worker(worker_fn=flaky)
            configs = _configs(2)
            capture = _Capture()
            results = run_sweep(
                configs,
                scheduler=RemoteScheduler(harness.address),
                reporter=capture,
                on_failure="record",
            )
            assert results == [None, None]
            assert len(capture.stats.failures) == 2
            for failure in capture.stats.failures:
                assert failure.kind == "exception"
                assert failure.error == "ValueError"
                assert failure.attempts == 2  # original + 1 server retry
            assert len(attempts) == 4  # 2 points x 2 attempts
            # Retries are scheduled (and counted) server-side; the
            # client only ever sees the final failed verdict.
            retries = [
                row for row in harness.events() if row["event"] == "retry"
            ]
            assert len(retries) == 2
        finally:
            harness.stop()

    def test_on_failure_raise_propagates(self, tmp_path):
        harness = ServeHarness(tmp_path / "state", retries=0)
        try:
            harness.start_worker(
                worker_fn="repro.serve.testing:failing_worker"
            )
            with pytest.raises(SweepPointError):
                run_sweep(
                    _configs(2), scheduler=RemoteScheduler(harness.address)
                )
        finally:
            harness.stop()

    def test_salt_mismatch_refused_at_handshake(self, harness):
        host, port = parse_address(harness.address)
        sock = MessageSocket.connect(host, port, timeout=10.0)
        try:
            bad_hello = hello_message("client")
            bad_hello["salt"] = "sim-rev-999"
            sock.send(bad_hello)
            reply = sock.recv()
            assert reply["type"] == "error"
            assert "revision mismatch" in reply["message"]
        finally:
            sock.close()

    @pytest.mark.parametrize("bad,field", [
        (dict(buffer_depth=0), "buffer_depth"),
        (dict(injection_rate=-0.1), "injection_rate"),
        (dict(warmup_cycles=2.5), "warmup_cycles"),
        # Used to be leased, and retried on workers until it failed.
        (dict(sw_alloc_arch="bogus"), "sw_alloc_arch"),
    ])
    def test_a_point_no_run_can_mean_is_refused_before_any_write(
        self, harness, bad, field
    ):
        harness.start_worker()
        good, worse = _configs(2)
        host, port = parse_address(harness.address)
        sock = MessageSocket.connect(host, port, timeout=10.0)
        try:
            sock.send(hello_message("client"))
            sock.recv()
            sock.send({"type": "submit", "points": [
                {"index": 0, "config": good.to_dict()},
                {"index": 1, "config": dict(worse.to_dict(), **bad)},
            ]})
            reply = sock.recv()
        finally:
            sock.close()
        assert reply["type"] == "error", reply
        assert reply["message"].startswith("bad submit point 1: " + field)
        events = [row["event"] for row in harness.events()]
        assert "sweep_submitted" not in events and "lease" not in events
        assert not list(harness.state_dir.glob("checkpoints/*"))
        assert not list(harness.state_dir.glob("cache/**/*.json*"))

    def test_resume_serves_journaled_points_without_workers(self, tmp_path):
        # A server crash loses in-memory state but not the per-sweep
        # checkpoint journal.  A restarted server must serve journaled
        # points as warm results -- here the *whole* sweep comes from
        # the journal, with zero workers attached.
        configs = _configs()
        keys = [config_key(c) for c in configs]
        state_dir = tmp_path / "state"
        ckpt = SweepCheckpoint(
            state_dir / "checkpoints" / f"{sweep_signature(keys)}.ckpt.jsonl",
            sweep_signature(keys),
        )
        for cfg, key in zip(configs, keys):
            ckpt.record(key, analytic_result(cfg).to_payload())
        ckpt.close()

        harness = ServeHarness(state_dir)
        try:
            capture = _Capture()
            results = run_sweep(
                configs,
                scheduler=RemoteScheduler(harness.address),
                reporter=capture,
            )
            assert capture.stats.cache_hits == len(configs)
            assert [r.to_payload() for r in results] == [
                analytic_result(c).to_payload() for c in configs
            ]
        finally:
            harness.stop()


class TestShardedCache:
    def test_a_key_lands_in_the_same_shard_after_a_restart(self, tmp_path):
        cfg = _configs(1)[0]
        first = ShardedResultCache(tmp_path / "cache", shards=8)
        key = config_key(cfg, first.salt)
        first.put_payload(key, analytic_result(cfg).to_payload())
        first.flush()
        restarted = ShardedResultCache(tmp_path / "cache", shards=8)
        assert restarted.get_payload(key) == analytic_result(cfg).to_payload()
        # Sharding reads the key's hex prefix and nothing else: there is
        # no per-process ``hash()`` to fall back on for another key.
        with pytest.raises(ValueError, match="not-a-he"):
            restarted.get_payload("not-a-hex-key")


class TestWorkerDeath:
    def _spawn_worker_proc(self, address, stall_s=None):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC_DIR
        if stall_s is not None:
            env["REPRO_WORK_STALL_S"] = str(stall_s)
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                "--connect", address,
                "--worker-fn", "repro.serve.testing:analytic_worker",
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )

    def test_kill9_mid_lease_requeues_and_tables_match_serial(self, tmp_path):
        # The acceptance scenario: a worker is SIGKILLed while holding
        # a lease; the point must be requeued to a surviving worker and
        # the final results must be identical to a serial run.
        harness = ServeHarness(tmp_path / "state", lease_timeout=60.0)
        proc = None
        try:
            configs = _configs(4)
            # Doomed worker first: REPRO_WORK_STALL_S parks it inside
            # its first lease, deterministically mid-flight.
            proc = self._spawn_worker_proc(harness.address, stall_s=120)

            outcome = {}

            def client():
                outcome["results"] = run_sweep(
                    configs, scheduler=RemoteScheduler(harness.address)
                )

            client_thread = threading.Thread(target=client, daemon=True)
            client_thread.start()

            harness.wait_for_event("lease", timeout=30.0)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)

            harness.wait_for_event("requeue", timeout=10.0)
            harness.start_worker()  # the survivor finishes the sweep
            client_thread.join(timeout=60.0)
            assert not client_thread.is_alive()

            # Bit-identical to serial local execution of the same model.
            assert [r.to_payload() for r in outcome["results"]] == [
                analytic_result(c).to_payload() for c in configs
            ]
            requeue = harness.wait_for_event("requeue")
            assert requeue["reason"] == "worker_disconnected"
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
            harness.stop()


class TestServerTelemetry:
    def test_per_sweep_jsonl_and_server_events(self, harness):
        harness.start_worker()
        configs = _configs(3)
        run_sweep(configs, scheduler=RemoteScheduler(harness.address))

        events = [row["event"] for row in harness.events()]
        for expected in (
            "server_started", "worker_connected", "client_connected",
            "sweep_submitted", "lease", "point_done", "sweep_done",
        ):
            assert expected in events, expected

        sweep_logs = list(
            (harness.state_dir / "telemetry").glob("sweep-*.jsonl")
        )
        assert len(sweep_logs) == 1
        import json

        rows = [
            json.loads(line)
            for line in sweep_logs[0].read_text().splitlines()
        ]
        kinds = [r["kind"] for r in rows]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        points = [r for r in rows if r["kind"] == "point"]
        assert len(points) == len(configs)
        for row in points:
            # Same row contract as local JsonlReporter telemetry.
            for field in ("key", "config", "result", "cached",
                          "completed", "total"):
                assert field in row, field


class TestCliEquivalence:
    """The ROADMAP acceptance bar, on the real simulator."""

    SWEEP_ARGS = ["--rates", "0.05,0.15", "--cycles", "200", "--seed", "3"]

    def _run_cli(self, args, env=None):
        result = subprocess.run(
            [sys.executable, "-m", "repro"] + args,
            env=env, capture_output=True, text=True, timeout=540,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_distributed_tables_byte_identical_to_serial(self, tmp_path):
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC_DIR

        serial = self._run_cli(
            ["sweep", *self.SWEEP_ARGS, "--no-cache"], env=env
        )

        serve = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "2",
                "--state-dir", str(tmp_path / "state"),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = serve.stdout.readline().strip()
            assert banner.startswith("serving on "), banner
            address = banner.split()[-1]
            distributed = self._run_cli(
                ["sweep", *self.SWEEP_ARGS, "--connect", address], env=env
            )
            assert distributed == serial
        finally:
            serve.terminate()
            serve.wait(timeout=15)
