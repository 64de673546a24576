import os
import sys
import time

from nocbench.procs import Children, child_env


def _alive(pid):
    try:
        return open(f"/proc/{pid}/stat").read().split()[2] != "Z"
    except OSError:
        return False


def test_a_hung_command_is_a_failed_operation_not_a_hang(tmp_path):
    """The timeout kills the command's whole process group."""
    script = (
        "import subprocess, sys, time\n"
        "kid = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(kid.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    children = Children()
    t0 = time.time()
    result = children.run("hang", [sys.executable, "-c", script], child_env(tmp_path),
                          tmp_path, timeout=1.0)
    assert time.time() - t0 < 10
    assert result.timed_out and not result.ok
    grandchild = int(result.stdout.split()[0])
    deadline = time.time() + 5
    while _alive(grandchild) and time.time() < deadline:
        time.sleep(0.05)
    assert not _alive(grandchild), "the command's own child survived the timeout"


def test_rusage_is_accounted_per_child(tmp_path):
    children = Children()
    burn = "x = 0\nfor i in range(3_000_000): x += i\nprint(x)"
    result = children.run("burn", [sys.executable, "-c", burn], child_env(tmp_path), tmp_path)
    assert result.ok and result.cpu_s > 0.05 and result.maxrss_kb > 1000
    assert children.cpu_s == result.cpu_s and children.maxrss_kb == result.maxrss_kb
    assert result.wall_s >= result.cpu_s * 0.5


def test_child_env_keeps_caches_out_of_the_home_directory(tmp_path):
    env = child_env(tmp_path)
    assert env["HOME"].startswith(str(tmp_path))
    assert env["REPRO_SWEEP_CACHE"].startswith(str(tmp_path))
    assert env["REPRO_COST_CACHE"].startswith(str(tmp_path))
    assert env["PYTHONPATH"].split(os.pathsep)[0].endswith("src")
    assert "PYTHONDONTWRITEBYTECODE" not in env
