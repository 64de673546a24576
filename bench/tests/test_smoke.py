"""End to end at tiny sizes: all four workloads, both modes, the teardown
paths and the shape of what is printed and written."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nocbench import BENCH_DIR, ROOT
from nocbench.catalog import END_TO_END, PER_LAYER, WORKLOADS

RUN = [sys.executable, str(BENCH_DIR / "run.py")]
TMP_ROOT = BENCH_DIR / ".tmp"


def leftover_repro_processes():
    """``repro serve``/``repro work`` processes started from a benchmark state dir."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if "-m repro" in cmdline and (str(TMP_ROOT) in cmdline or cwd.startswith(str(TMP_ROOT))):
            found.append((pid, cmdline))
    return found


def assert_clean():
    deadline = time.time() + 5
    while leftover_repro_processes() and time.time() < deadline:
        time.sleep(0.1)
    assert leftover_repro_processes() == []
    assert not TMP_ROOT.exists() or list(TMP_ROOT.iterdir()) == []


def contract_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_and_cleans_up(tmp_path):
    out = tmp_path / "result.json"
    t0 = time.time()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    assert time.time() - t0 < 60  # < 30 s on the reference box
    assert "model unvalidated against the paper's absolute numbers" in done.stdout

    lines = contract_lines(done.stdout)
    assert len(lines) == 5  # four end-to-end runs and one traced run
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
    for line in lines[:4]:
        assert list(line["metrics"]) == [n for n, *_ in END_TO_END]
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert json.loads(done.stdout.splitlines()[-1]) == lines[-1]
    traced = lines[-1]["metrics"]
    assert list(traced) == [n for n, *_ in PER_LAYER]
    assert sum(m["value"] is None for m in traced.values()) <= 5

    doc = json.loads(out.read_text())
    assert doc["schema"] == "nocbench/result/v1"
    fp = doc["fingerprint"]
    for key in ("git_sha", "git_dirty", "simulator_rev", "python", "nproc",
                "loadavg_start", "loadavg_end", "seed"):
        assert key in fp
    assert [r["workload"] for r in doc["runs"][:4]] == list(WORKLOADS)
    assert all("sizes" in r["details"] for r in doc["runs"][:4])
    trace = json.loads((tmp_path / "trace-dispatch_smallpoints.json").read_text())
    assert trace["spans"][0]["parent"] is None
    assert {"name", "layer", "start_ns", "end_ns", "parent", "workload"} == set(trace["spans"][0])
    assert doc["runs"][4]["details"]["replay_span_coverage"] >= 0.95
    assert_clean()


def test_driver_invocation_of_one_workload(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "offline_figs", "--seed", "11", "--seconds", "0",
               "--trace", "0", "--smoke", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] and list(last["metrics"]) == [n for n, *_ in END_TO_END]
    assert_clean()


@pytest.mark.parametrize("suite", [[], ["--repeats", "2"]], ids=["one-run", "suite"])
def test_sigint_mid_dispatch_leaves_nothing_behind(tmp_path, suite):
    """In a suite each run is a process of its own, so the interrupt has
    to be passed on before anything is reaped."""
    home_cache = Path.home() / ".cache" / "repro-noc-sweeps.json"
    before = home_cache.stat().st_mtime_ns if home_cache.exists() else None
    proc = subprocess.Popen(
        RUN + ["--workload", "dispatch_smallpoints", "--out", str(tmp_path / "r.json")] + suite,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # Wait until a server of this run is up, then interrupt.
        deadline = time.time() + 60
        while time.time() < deadline and not any(
                "serve" in cmd for _, cmd in leftover_repro_processes()):
            time.sleep(0.05)
        assert proc.poll() is None, "the run ended before it could be interrupted"
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode != 0
    assert_clean()
    after = home_cache.stat().st_mtime_ns if home_cache.exists() else None
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".tmp", "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_mesh_wf", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert contract_lines(done.stdout) == []
