"""Child processes: spawn, time, account, and always reap.

Every child runs in its own session, so a timeout or an interrupt kills
the whole tree (a pool's point processes, a server's workers) with one
``killpg``.  ``os.wait4`` gives each child's CPU time and peak RSS,
including those of the descendants it waited for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import SRC

__all__ = [
    "CommandResult",
    "Children",
    "ServerHandle",
    "child_env",
    "repro_argv",
]

COMMAND_TIMEOUT_S = 60.0


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def child_env(state_dir: Path) -> Dict[str, str]:
    """Environment of every benchmarked child.

    Caches and ``HOME`` point into ``state_dir`` so the user's own
    ``~/.cache`` is never read or written.  Bytecode caching is left on,
    as a user has it: the untimed build step compiles ``src/repro`` once
    per checkout, so no measurement includes a compile.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["HOME"] = str(state_dir / "home")
    env["REPRO_SWEEP_CACHE"] = str(state_dir / "default-sweep-cache.json")
    env["REPRO_COST_CACHE"] = str(state_dir / "default-cost-cache.json")
    return env


@dataclass
class CommandResult:
    label: str
    argv: List[str]
    returncode: Optional[int]
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def _killpg(pid: int, sig: int) -> None:
    try:
        os.killpg(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


class Children:
    """Registry of live children; ``kill_all`` runs on every exit path."""

    def __init__(self) -> None:
        self._live: Dict[int, subprocess.Popen] = {}
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def spawn(self, argv: Sequence[str], env: Dict[str, str], cwd: Path,
              stdout, stderr) -> subprocess.Popen:
        proc = subprocess.Popen(
            list(argv), env=env, cwd=str(cwd), stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr, start_new_session=True,
        )
        self._live[proc.pid] = proc
        return proc

    def reap(self, proc: subprocess.Popen, timeout: Optional[float]) -> tuple:
        """Wait for ``proc``; returns ``(returncode, cpu_s, maxrss_kb, timed_out)``.

        On timeout the child's process group is killed and the kill is
        reported, so a hung command is a failed operation, not a hang.
        """
        timed_out = threading.Event()

        def expire() -> None:
            timed_out.set()
            _killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, expire) if timeout is not None else None
        if timer is not None:
            timer.daemon = True
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._live.pop(proc.pid, None)
        # Stragglers of the group (orphaned pool or worker processes).
        _killpg(proc.pid, signal.SIGKILL)
        cpu = usage.ru_utime + usage.ru_stime
        self.cpu_s += cpu
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return proc.returncode, cpu, usage.ru_maxrss, timed_out.is_set()

    def run(self, label: str, argv: Sequence[str], env: Dict[str, str],
            cwd: Path, timeout: float = COMMAND_TIMEOUT_S) -> CommandResult:
        """Run one command to completion, output captured through files."""
        out_path = cwd / f".{label}.stdout"
        err_path = cwd / f".{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = self.spawn(argv, env, cwd, out, err)
            try:
                rc, cpu, rss, timed_out = self.reap(proc, timeout)
            except BaseException:
                self.kill(proc)
                raise
            wall = time.perf_counter() - t0
        return CommandResult(
            label=label, argv=list(argv), returncode=rc, wall_s=wall,
            cpu_s=cpu, maxrss_kb=rss,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            timed_out=timed_out,
        )

    def is_live(self, proc: subprocess.Popen) -> bool:
        return proc.pid in self._live

    def kill(self, proc: subprocess.Popen) -> None:
        if not self.is_live(proc):
            return
        _killpg(proc.pid, signal.SIGKILL)
        try:
            self.reap(proc, None)
        except ChildProcessError:
            self._live.pop(proc.pid, None)

    def kill_all(self) -> None:
        for proc in list(self._live.values()):
            self.kill(proc)


class ServerHandle:
    """A ``repro serve --workers 1`` subprocess in its own process group."""

    def __init__(self, children: Children, env: Dict[str, str], cwd: Path,
                 state_dir: Path, worker_fn: Optional[str] = None) -> None:
        self.children = children
        self.state_dir = state_dir
        self.events_path = state_dir / "telemetry" / "server.jsonl"
        self._out_path = cwd / ".serve.stdout"
        self._err_path = cwd / ".serve.stderr"
        argv = repro_argv("serve", "--port", "0", "--state-dir", str(state_dir),
                          "--workers", "1")
        if worker_fn:
            argv += ["--worker-fn", worker_fn]
        self.t_spawn = time.perf_counter()
        with open(self._out_path, "wb") as out, open(self._err_path, "wb") as err:
            self.proc = children.spawn(argv, env, cwd, out, err)
        self.address: Optional[str] = None
        self.server_ready_s: Optional[float] = None
        self.worker_ready_s: Optional[float] = None

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the banner is printed and the worker has connected."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    + self._err_path.read_text(errors="replace")[-500:]
                )
            if self.address is None:
                for line in self._out_path.read_text(errors="replace").splitlines():
                    if line.startswith("serving on "):
                        self.address = line.split()[-1]
                        self.server_ready_s = time.perf_counter() - self.t_spawn
            elif any(row.get("event") == "worker_connected" for row in self.events()):
                self.worker_ready_s = time.perf_counter() - self.t_spawn
                return
            time.sleep(0.01)
        raise TimeoutError("repro serve did not come up with a worker in time")

    def events(self) -> List[dict]:
        try:
            lines = self.events_path.read_text().splitlines()
        except OSError:
            return []
        rows = []
        for line in lines:
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a row still being appended
        return rows

    def stop(self) -> None:
        """Ask the server to exit (it stops its worker), then make sure."""
        if not self.children.is_live(self.proc):
            return
        try:
            os.kill(self.proc.pid, signal.SIGINT)
            self.children.reap(self.proc, 10.0)
        except (ProcessLookupError, ChildProcessError):
            self.children.kill(self.proc)
