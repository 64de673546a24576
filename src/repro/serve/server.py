"""``repro serve``: the asyncio job-queue scheduler.

One server process owns three pieces of shared state:

* a **task registry** -- every distinct pending point, keyed by its
  salted config key, with the list of (sweep, index) waiters that want
  its result.  Two clients submitting the same point share one
  computation.
* a **ready queue** of task keys.  Workers lease from it; reported
  failures re-enter it after exponential backoff (the same
  ``retries``/``backoff`` semantics as the local pool), and a lease
  lost to worker death or timeout re-enters it immediately, up to
  ``max_requeues`` times before the point is failed as a crash.
* the **sharded result cache** plus per-sweep checkpoint journals and
  telemetry under ``state_dir`` -- so a killed server restarts warm,
  and a client resubmitting the same sweep resumes from the journal
  instead of recomputing (see ``docs/DISTRIBUTED.md``).

The server never simulates anything itself; it only schedules.  All
state mutation happens on the event-loop thread, so there are no locks
-- the invariant to preserve when editing is that no method below
``await``s while holding half-updated task/sweep bookkeeping.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..eval.checkpoint import SweepCheckpoint, sweep_signature
from ..eval.runner import PointFailure, SweepStats, config_key
from ..netsim.config import SimulationConfig, SimulationResult, validate_config
from ..obs.metrics import emit_warning
from ..obs.telemetry import JsonlReporter
from .cache import ShardedResultCache
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)

__all__ = ["SweepServer"]


class _Task:
    """One distinct pending point and everyone waiting on it."""

    __slots__ = (
        "key", "config", "state", "lease_attempts", "fail_attempts",
        "lease_id", "waiters",
    )

    def __init__(self, key: str, config: Dict[str, Any]) -> None:
        self.key = key
        self.config = config
        self.state = "queued"  # "queued" | "leased"
        self.lease_attempts = 0  # leases lost to worker death/timeout
        self.fail_attempts = 0  # failures reported by live workers
        self.lease_id = 0
        self.waiters: List[Tuple["_Sweep", int]] = []

    @property
    def attempts(self) -> int:
        return max(self.fail_attempts + self.lease_attempts, 1)


class _Sweep:
    """One client submission: progress counters, journal, telemetry."""

    def __init__(
        self,
        signature: str,
        total: int,
        checkpoint: SweepCheckpoint,
        reporter: JsonlReporter,
        outq: "asyncio.Queue[Dict[str, Any]]",
    ) -> None:
        self.signature = signature
        self.stats = SweepStats(total=total)
        self.checkpoint = checkpoint
        self.reporter = reporter
        self.outq = outq
        self.remaining = total
        self.active = True  # client still connected, sweep not finished

    def send(self, msg: Dict[str, Any]) -> None:
        self.outq.put_nowait(msg)


class SweepServer:
    """Job-queue scheduler sharding sweep points across workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir: "Path | str" = ".repro-serve",
        retries: int = 1,
        backoff: float = 0.5,
        lease_timeout: Optional[float] = 60.0,
        max_requeues: int = 3,
    ) -> None:
        self.host = host
        self.port = port
        self.state_dir = Path(state_dir)
        self.retries = retries
        self.backoff = backoff
        self.lease_timeout = lease_timeout
        self.max_requeues = max_requeues
        self.cache = ShardedResultCache(self.state_dir / "cache")
        self._tasks: Dict[str, _Task] = {}
        # Created in start(): pre-3.12 asyncio.Queue binds the event
        # loop at construction time.
        self._ready: "asyncio.Queue[str]" = None  # type: ignore[assignment]
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_seq = 0
        self.workers_connected = 0
        self._events_path = self.state_dir / "telemetry" / "server.jsonl"
        self._events_fh = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _event(self, event: str, **fields: Any) -> None:
        """Append one ``serve_event`` row to the server's JSONL log."""
        row = {"kind": "serve_event", "event": event, "ts": time.time()}
        row.update(fields)
        try:
            if self._events_fh is None:
                self._events_path.parent.mkdir(parents=True, exist_ok=True)
                self._events_fh = self._events_path.open("a")
            self._events_fh.write(json.dumps(row) + "\n")
            self._events_fh.flush()
        except OSError as exc:
            emit_warning(
                "serve_telemetry_failed",
                f"cannot append to {self._events_path}: {exc}",
                path=str(self._events_path),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._ready = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._event(
            "server_started", host=self.host, port=self.port,
            cached_entries=len(self.cache),
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.cache.flush()
        self._event("server_stopped")
        if self._events_fh is not None:
            self._events_fh.close()
            self._events_fh = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn_id = self._conn_seq
        try:
            line = await reader.readline()
            if not line:
                return
            hello = decode_message(line)
            role = hello.get("role")
            problem = None
            if hello.get("type") != "hello" or role not in ("client", "worker"):
                problem = "handshake must open with a client/worker hello"
            elif hello.get("version") != PROTOCOL_VERSION:
                problem = (
                    f"protocol version mismatch: you speak "
                    f"{hello.get('version')!r}, server speaks {PROTOCOL_VERSION}"
                )
            elif hello.get("salt") != self.cache.salt:
                problem = (
                    f"simulator revision mismatch: you are salted "
                    f"{hello.get('salt')!r}, server cache is {self.cache.salt!r}"
                    " -- mixing revisions would corrupt shared results"
                )
            if problem is not None:
                writer.write(encode_message({"type": "error", "message": problem}))
                await writer.drain()
                self._event("handshake_refused", conn=conn_id, reason=problem)
                return
            writer.write(encode_message({
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "salt": self.cache.salt,
            }))
            await writer.drain()
            if role == "worker":
                await self._worker_loop(reader, writer, conn_id)
            else:
                await self._client_loop(reader, writer, conn_id)
        except asyncio.CancelledError:
            pass  # server shutdown cancels connection tasks; exit quietly
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            pass  # a broken peer must never take the server down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    async def _next_task(self) -> _Task:
        """Next leasable task; parks until one is ready.

        Keys can sit stale in the ready queue (a point completed by a
        stale lease while its requeue was pending), so pop until a key
        still maps to a queued task.
        """
        while True:
            key = await self._ready.get()
            task = self._tasks.get(key)
            if task is not None and task.state == "queued":
                return task

    async def _worker_loop(self, reader, writer, wid: int) -> None:
        self.workers_connected += 1
        self._event("worker_connected", worker=wid)
        leased: Dict[str, int] = {}  # key -> lease_id held by this worker
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = decode_message(line)
                mtype = msg.get("type")
                if mtype == "lease":
                    task = await self._next_task()
                    task.state = "leased"
                    task.lease_id += 1
                    lease_id = task.lease_id
                    self._event("lease", key=task.key, worker=wid)
                    try:
                        writer.write(encode_message({
                            "type": "work",
                            "key": task.key,
                            "config": task.config,
                        }))
                        await writer.drain()
                    except (ConnectionError, OSError):
                        # Worker died between parking and assignment:
                        # hand the task straight back.
                        self._lost_lease(task, "worker_disconnected", wid)
                        raise
                    leased[task.key] = lease_id
                    self._arm_lease_timer(task, lease_id, wid)
                elif mtype == "result":
                    key = msg.get("key")
                    leased.pop(key, None)
                    payload = msg.get("payload")
                    if isinstance(key, str) and isinstance(payload, dict):
                        self._complete_task(key, payload, wid)
                elif mtype == "fail":
                    key = msg.get("key")
                    leased.pop(key, None)
                    if isinstance(key, str):
                        self._reported_failure(key, msg, wid)
                # Unknown worker message types are ignored (forward
                # compatibility with newer workers).
        finally:
            self.workers_connected -= 1
            self._event("worker_disconnected", worker=wid)
            for key, lease_id in leased.items():
                task = self._tasks.get(key)
                if (
                    task is not None
                    and task.state == "leased"
                    and task.lease_id == lease_id
                ):
                    self._lost_lease(task, "worker_disconnected", wid)

    def _arm_lease_timer(self, task: _Task, lease_id: int, wid: int) -> None:
        if self.lease_timeout is None:
            return

        def expire() -> None:
            current = self._tasks.get(task.key)
            if (
                current is task
                and task.state == "leased"
                and task.lease_id == lease_id
            ):
                self._lost_lease(task, "lease_timeout", wid)

        asyncio.get_running_loop().call_later(self.lease_timeout, expire)

    def _lost_lease(self, task: _Task, reason: str, wid: int) -> None:
        """A granted lease evaporated (worker death or timeout)."""
        task.lease_attempts += 1
        self._event(
            "requeue", key=task.key, reason=reason, worker=wid,
            lease_attempts=task.lease_attempts,
        )
        if task.lease_attempts > self.max_requeues:
            # The point itself is probably the killer (it took down
            # max_requeues workers); stop poisoning the fleet.
            self._fail_task(
                task, kind="crash", error="WorkerLost",
                message=(
                    f"lease lost {task.lease_attempts} time(s), "
                    f"last: {reason}"
                ),
                detail=None,
            )
        else:
            task.state = "queued"
            self._ready.put_nowait(task.key)

    def _reported_failure(self, key: str, msg: Dict[str, Any], wid: int) -> None:
        """A live worker reported an exception for its leased point."""
        task = self._tasks.get(key)
        if task is None:
            return  # already completed via another lease
        task.fail_attempts += 1
        if task.fail_attempts <= self.retries:
            delay = self.backoff * (2 ** (task.fail_attempts - 1))
            self._event(
                "retry", key=key, worker=wid, attempt=task.fail_attempts,
                delay_s=delay,
            )
            for sweep, _ in task.waiters:
                if sweep.active:
                    sweep.stats.retries += 1
            task.state = "queued"
            asyncio.get_running_loop().call_later(
                delay, self._ready.put_nowait, key
            )
        else:
            detail = msg.get("detail")
            self._fail_task(
                task, kind="exception",
                error=str(msg.get("error", "Exception")),
                message=str(msg.get("message", "")),
                detail=detail if isinstance(detail, dict) else None,
            )

    # ------------------------------------------------------------------
    # Task completion / failure fan-out
    # ------------------------------------------------------------------
    def _complete_task(self, key: str, payload: Dict[str, Any], wid: int) -> None:
        task = self._tasks.pop(key, None)
        if task is None:
            return  # late result from a stale lease; first result won
        self.cache.put_payload(key, payload)
        self._event("point_done", key=key, worker=wid)
        for sweep, index in task.waiters:
            self._deliver_point(sweep, index, key, payload, cached=False)

    def _fail_task(
        self, task: _Task, kind: str, error: str, message: str,
        detail: Optional[Dict[str, Any]],
    ) -> None:
        self._tasks.pop(task.key, None)
        self._event(
            "point_failed", key=task.key, fail_kind=kind, error=error,
            attempts=task.attempts,
        )
        for sweep, index in task.waiters:
            if not sweep.active:
                continue
            failure = PointFailure(
                index=index,
                key=task.key,
                kind=kind,
                error=error,
                message=message,
                attempts=task.attempts,
                injection_rate=float(
                    task.config.get("injection_rate", float("nan"))
                ),
                detail=detail,
            )
            sweep.stats.failures.append(failure)
            sweep.stats.completed += 1
            try:
                cfg = SimulationConfig.from_dict(task.config)
                sweep.reporter.point_failed(cfg, failure, sweep.stats)
            except Exception:  # telemetry must never block scheduling
                pass
            sweep.send({
                "type": "failed",
                "index": index,
                "key": task.key,
                "kind": kind,
                "error": error,
                "message": message,
                "detail": detail,
                "attempts": task.attempts,
            })
            sweep.remaining -= 1
            if sweep.remaining == 0:
                self._finish_sweep(sweep)

    def _deliver_point(
        self, sweep: _Sweep, index: int, key: str,
        payload: Dict[str, Any], cached: bool,
    ) -> None:
        if not sweep.active:
            return
        sweep.stats.completed += 1
        if cached:
            sweep.stats.cache_hits += 1
        else:
            # Journal computed points so a crashed server (or client)
            # resumes this sweep instead of recomputing it.
            sweep.checkpoint.record(key, payload)
        try:
            result = SimulationResult.from_payload(payload)
            sweep.reporter.point_done(result.config, result, cached, sweep.stats)
        except Exception:  # telemetry must never block scheduling
            pass
        sweep.send({
            "type": "point",
            "index": index,
            "key": key,
            "cached": cached,
            "payload": payload,
        })
        sweep.remaining -= 1
        if sweep.remaining == 0:
            self._finish_sweep(sweep)

    def _finish_sweep(self, sweep: _Sweep) -> None:
        sweep.active = False
        self.cache.flush()
        failed = sweep.stats.failed
        if failed == 0:
            sweep.checkpoint.complete()
        else:
            sweep.checkpoint.close()  # keep the journal for resubmission
        try:
            sweep.reporter.sweep_finished(sweep.stats)
        except Exception:
            pass
        sweep.send({
            "type": "sweep_done",
            "completed": sweep.stats.completed,
            "failed": failed,
        })
        self._event(
            "sweep_done", signature=sweep.signature,
            completed=sweep.stats.completed, failed=failed,
            cache_hits=sweep.stats.cache_hits,
        )

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    async def _client_loop(self, reader, writer, cid: int) -> None:
        self._event("client_connected", client=cid)
        outq: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        sender = asyncio.create_task(self._send_loop(writer, outq))
        sweeps: List[_Sweep] = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg = decode_message(line)
                if msg.get("type") == "submit":
                    sweep = self._submit(msg, outq, cid)
                    if sweep is not None:
                        sweeps.append(sweep)
                # Unknown client message types are ignored.
        finally:
            self._event("client_disconnected", client=cid)
            for sweep in sweeps:
                self._detach_sweep(sweep)
            sender.cancel()

    async def _send_loop(self, writer, outq) -> None:
        try:
            while True:
                msg = await outq.get()
                writer.write(encode_message(msg))
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    def _submit(
        self, msg: Dict[str, Any],
        outq: "asyncio.Queue[Dict[str, Any]]",
        cid: int,
    ) -> Optional[_Sweep]:
        points = msg.get("points")
        if not isinstance(points, list) or not points:
            outq.put_nowait({
                "type": "error",
                "message": "submit needs a non-empty 'points' list",
            })
            return None
        try:
            parsed = [
                (int(p["index"]), dict(p["config"])) for p in points
            ]
        except (KeyError, TypeError, ValueError) as exc:
            outq.put_nowait({
                "type": "error",
                "message": f"bad submit point: {exc}",
            })
            return None
        # Keys are recomputed from the configs we actually parsed: a
        # client-supplied key could poison the shared cache.  A config
        # no run can mean is refused here, before any checkpoint, lease
        # or cache write.
        keys = []
        for index, cfg_dict in parsed:
            try:
                cfg = SimulationConfig.from_dict(cfg_dict)
                validate_config(cfg)
                keys.append(config_key(cfg, self.cache.salt))
            except (KeyError, TypeError, ValueError) as exc:
                outq.put_nowait({
                    "type": "error",
                    "message": f"bad submit point {index}: {exc}",
                })
                return None

        signature = sweep_signature(keys)
        checkpoint = SweepCheckpoint(
            self.state_dir / "checkpoints" / f"{signature}.ckpt.jsonl",
            signature,
        )
        # Points journaled before a server crash count as warm results.
        for key, payload in checkpoint.recovered.items():
            if self.cache.get_payload(key) is None:
                self.cache.put_payload(key, payload)
        reporter = JsonlReporter(
            self.state_dir / "telemetry" / f"sweep-{signature}.jsonl"
        )
        sweep = _Sweep(
            signature=signature,
            total=len(parsed),
            checkpoint=checkpoint,
            reporter=reporter,
            outq=outq,
        )
        try:
            reporter.sweep_started(sweep.stats)
        except Exception:
            pass
        self._event(
            "sweep_submitted", client=cid, signature=signature,
            points=len(parsed), recovered=len(checkpoint.recovered),
        )
        enqueued = 0
        for (index, cfg_dict), key in zip(parsed, keys):
            payload = self.cache.get_payload(key)
            if payload is not None:
                self._deliver_point(sweep, index, key, payload, cached=True)
                continue
            task = self._tasks.get(key)
            if task is None:
                task = _Task(key, cfg_dict)
                self._tasks[key] = task
                self._ready.put_nowait(key)
                enqueued += 1
            task.waiters.append((sweep, index))
        if enqueued:
            self._event("enqueued", client=cid, tasks=enqueued)
        return sweep

    def _detach_sweep(self, sweep: _Sweep) -> None:
        """Client gone: stop delivering, keep in-flight work (its
        results still warm the shared cache for the next client)."""
        if not sweep.active:
            return
        sweep.active = False
        for task in self._tasks.values():
            task.waiters = [
                (s, i) for s, i in task.waiters if s is not sweep
            ]
        sweep.checkpoint.close()  # journal survives for resubmission
        self._event(
            "sweep_abandoned", signature=sweep.signature,
            remaining=sweep.remaining,
        )
