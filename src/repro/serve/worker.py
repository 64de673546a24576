"""``repro work``: the lease/compute/report loop of a remote worker.

A worker is a deliberately dumb synchronous client: connect, handshake,
then loop -- lease one point, compute it with the same
``run_simulation_worker`` the local process pool uses, report the
result (or the exception), lease the next.  Crash isolation is the
*server's* job: if this process dies mid-lease (OOM, SIGKILL, power
loss), the broken TCP stream tells the server to requeue the point on
another worker, exactly like a dead pool process is handled locally.

``--worker-fn module:callable`` substitutes the compute function
(tests use the analytic model in :mod:`repro.serve.testing`); the
``REPRO_WORK_STALL_S`` environment knob makes a worker sleep before
computing each point, which gives kill-mid-lease tests a deterministic
window instead of a race.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from typing import Any, Callable, Dict, Optional

from .protocol import MessageSocket, check_welcome, hello_message, parse_address

__all__ = ["resolve_worker_fn", "run_worker"]

STALL_ENV = "REPRO_WORK_STALL_S"


def resolve_worker_fn(spec: Optional[str]) -> Callable[[Dict], Dict]:
    """Resolve ``"pkg.module:callable"`` (or ``None`` for the real
    simulator worker)."""
    if spec is None:
        from ..netsim.simulator import run_simulation_worker

        return run_simulation_worker
    module_name, sep, attr = spec.partition(":")
    if not sep:
        module_name, _, attr = spec.rpartition(".")
    if not module_name or not attr:
        raise ValueError(
            f"--worker-fn must be 'pkg.module:callable', got {spec!r}"
        )
    fn = getattr(importlib.import_module(module_name), attr)
    if not callable(fn):
        raise ValueError(f"{spec!r} does not name a callable")
    return fn


def run_worker(
    address: str,
    worker_fn: "Optional[str | Callable[[Dict], Dict]]" = None,
    max_points: Optional[int] = None,
    log=None,
) -> int:
    """Serve points until the server goes away.

    Returns the number of points computed (reported results plus
    reported failures).  ``max_points`` bounds the loop for tests.
    """
    if worker_fn is None or isinstance(worker_fn, str):
        worker_fn = resolve_worker_fn(worker_fn)
    log = log or (lambda text: print(text, file=sys.stderr, flush=True))
    host, port = parse_address(address)
    sock = MessageSocket.connect(host, port, timeout=30.0)
    done = 0
    try:
        sock.send(hello_message("worker"))
        check_welcome(sock.recv())
        log(f"worker: connected to {host}:{port} (pid {os.getpid()})")
        while max_points is None or done < max_points:
            sock.send({"type": "lease"})
            msg = sock.recv()
            if msg is None or msg.get("type") == "shutdown":
                break
            if msg.get("type") != "work":
                continue
            key = msg["key"]
            stall = float(os.environ.get(STALL_ENV, "0") or 0.0)
            if stall > 0:
                time.sleep(stall)
            try:
                payload = worker_fn(msg["config"])
            except Exception as exc:
                detail: Optional[Dict[str, Any]] = getattr(
                    exc, "snapshot", None
                )
                if detail is not None and not isinstance(detail, dict):
                    detail = None
                sock.send({
                    "type": "fail",
                    "key": key,
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "detail": detail,
                })
            else:
                sock.send({"type": "result", "key": key, "payload": payload})
            done += 1
    except (ConnectionError, OSError):
        log("worker: server connection lost")
    finally:
        sock.close()
    log(f"worker: exiting after {done} point(s)")
    return done
