"""Parallel sweep-execution engine with a persistent result cache.

Every latency-vs-load curve in the paper's evaluation (Figures 13/14
and all network-level ablations) is an embarrassingly parallel bag of
independent :class:`~repro.netsim.simulator.SimulationConfig` points:
Becker & Dally sweep six design points across many injection rates
(Section 5), and each point is a self-contained cycle-accurate run.
This module supplies the machinery the per-figure drivers share:

* :func:`run_sweep` fans points out across worker processes
  (``jobs > 1``; ``jobs=None`` is one per usable CPU, see
  :func:`usable_cpus`) or runs them inline (``jobs <= 1``).  Results
  come back in input order, and because every simulation derives its
  RNG streams purely from ``(config.seed, terminal_id)``, parallel
  results are bit-identical to serial ones.

* :func:`map_jobs` lends the same pool to the offline commands
  (``verify``, ``lint --netlists``, ``quality``, ``cost``): a list of
  independent jobs mapped over forked workers, results in job order.

* :class:`ResultCache` memoizes completed
  :class:`~repro.netsim.simulator.SimulationResult` objects on disk,
  keyed by a stable hash of the *full* config plus a code-version salt
  (``SIMULATOR_REV``), in a :class:`~repro.eval.store.ResultStore`
  (atomic writes, per-entry corruption recovery).  Re-running a figure
  benchmark pays only for points whose configuration (or the simulator
  itself) actually changed.

* :class:`SweepReporter` is a pluggable progress sink;
  :class:`ConsoleReporter` prints points done, cache hits, sims/sec
  and an ETA.

Execution is *hardened*: the parallel path runs points in long-lived
worker processes, one point at a time each, so a worker that raises,
hangs past ``timeout`` or is killed outright fails only its own point
(a dead or killed worker is replaced) -- recorded as a structured
:class:`PointFailure` (with bounded retry + exponential backoff) while
the rest of the sweep completes.  Pair with
:class:`~repro.eval.checkpoint.SweepCheckpoint` for crash-safe
``--resume`` across whole-process kills.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO

# The import-light half of the simulator only: a sweep served from the
# cache never loads the machine (``repro.netsim.simulator``, numpy) or
# ``multiprocessing``; whoever has to run a point imports them then.
from ..netsim.config import SIMULATOR_REV, SimulationConfig, SimulationResult
from .store import STORE_SCHEMA_VERSION, ResultStore, sha256

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "config_key",
    "default_cache_path",
    "ResultCache",
    "SweepReporter",
    "NullReporter",
    "ConsoleReporter",
    "MultiReporter",
    "StatsCapture",
    "SweepStats",
    "PointFailure",
    "SweepPointError",
    "JobError",
    "PointScheduler",
    "InlineScheduler",
    "ProcessPoolScheduler",
    "map_jobs",
    "map_width",
    "run_point",
    "run_sweep",
    "usable_cpus",
]

# Schema of the cache *file*: the store's (kept under its old name).
CACHE_SCHEMA_VERSION = STORE_SCHEMA_VERSION


def config_key(cfg: SimulationConfig, salt: Optional[str] = None) -> str:
    """Stable cache key for one simulation point.

    Hashes the canonical JSON form of every config field plus a salt
    that defaults to the simulator code revision, so any config change
    *or* simulator-semantics bump yields a fresh key.
    """
    if salt is None:
        salt = f"sim-rev-{SIMULATOR_REV}"
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    digest = sha256(f"{salt}|{canonical}".encode()).hexdigest()
    return digest[:32]


def default_cache_path() -> Path:
    """``REPRO_SWEEP_CACHE`` override or a per-user cache file."""
    return Path(
        os.environ.get(
            "REPRO_SWEEP_CACHE",
            str(Path.home() / ".cache" / "repro-noc-sweeps.json"),
        )
    )


class ResultCache(ResultStore):
    """On-disk memo of completed simulation results: the
    :class:`~repro.eval.store.ResultStore` salted ``sim-rev-N``.

    File layout::

        {"schema": 1, "salt": "sim-rev-1", "checksum": "...",
         "entries": {key: payload}}

    Staleness, corruption, atomic writes and batched persistence are
    the store's (a ``SIMULATOR_REV`` bump drops every entry; the sweep
    engine flushes at sweep end); this class adds the typed view: keys
    are :func:`config_key` hashes, values round-trip through
    :class:`~repro.netsim.config.SimulationResult` payloads, and an
    individually corrupt entry is dropped at lookup time as a last line
    of defense.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        flush_every: int = 32,
        flush_interval: float = 5.0,
    ) -> None:
        super().__init__(
            path if path is not None else default_cache_path(),
            salt=f"sim-rev-{SIMULATOR_REV}",
            validate=SimulationResult.from_payload,
            label="sweep cache",
            flush_every=flush_every,
            flush_interval=flush_interval,
        )

    def key(self, cfg: SimulationConfig) -> str:
        return config_key(cfg, self.salt)

    def get(self, cfg: SimulationConfig) -> Optional[SimulationResult]:
        """Cached result for ``cfg``, or ``None`` (counted as a miss)."""
        result = self.get_by_key(self.key(cfg))
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        return None

    def get_by_key(self, key: str) -> Optional[SimulationResult]:
        """Validated result for a precomputed key; does not touch the
        hit/miss counters (servers account per-sweep, not per-store)."""
        payload = self._entries.get(key)
        if payload is None:
            return None
        try:
            return SimulationResult.from_payload(payload)
        except (TypeError, KeyError, ValueError, AttributeError):
            # Corrupt entry (hand-edited, or written by an
            # incompatible build): drop it and recompute.
            self.drop(key)
            return None

    def put(self, cfg: SimulationConfig, result: SimulationResult) -> None:
        self.put_payload(self.key(cfg), result.to_payload())


@dataclass
class PointFailure:
    """Structured record of one sweep point that could not be computed.

    ``kind`` is ``"exception"`` (the worker raised), ``"crash"`` (the
    worker process died without reporting -- killed, OOM, segfault) or
    ``"timeout"`` (exceeded the per-point wall-clock budget).
    ``detail`` carries machine-readable context when available, e.g. a
    watchdog deadlock snapshot.
    """

    index: int  # position in the sweep's config list
    key: str  # salted config key (joins cache/checkpoint records)
    kind: str  # "exception" | "crash" | "timeout"
    error: str  # exception type name or synthetic code
    message: str
    attempts: int  # total attempts made (1 = failed without retry)
    injection_rate: float = float("nan")
    detail: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class SweepPointError(RuntimeError):
    """Raised by :func:`run_sweep` (``on_failure="raise"``) when a point
    exhausts its attempts; ``failure`` holds the structured record."""

    def __init__(self, failure: PointFailure) -> None:
        super().__init__(
            f"sweep point {failure.index} failed after "
            f"{failure.attempts} attempt(s): [{failure.kind}] "
            f"{failure.error}: {failure.message}"
        )
        self.failure = failure


@dataclass
class SweepStats:
    """Progress counters handed to reporters after every point."""

    total: int
    completed: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: List[PointFailure] = field(default_factory=list)
    started_at: float = field(default_factory=time.monotonic)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def simulated(self) -> int:
        return self.completed - self.cache_hits

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def sims_per_sec(self) -> float:
        """Simulation throughput; 0.0 (never a division error or a
        garbage rate) when nothing was simulated yet or the sweep
        finished instantly -- e.g. an all-cache-hit rerun where
        ``elapsed`` can be 0 at clock resolution."""
        elapsed = self.elapsed
        if self.simulated <= 0 or elapsed <= 0.0:
            return 0.0
        return self.simulated / elapsed

    @property
    def eta_seconds(self) -> float:
        """Estimated seconds left: 0.0 once every point is done (the
        all-cache-hit case included), ``nan`` while no rate estimate
        exists yet."""
        remaining = self.total - self.completed
        if remaining <= 0:
            return 0.0
        rate = self.sims_per_sec
        return remaining / rate if rate > 0 else float("nan")


class SweepReporter:
    """Progress sink; subclass and override what you need."""

    def sweep_started(self, stats: SweepStats) -> None:  # pragma: no cover
        pass

    def point_done(
        self, cfg: SimulationConfig, result: SimulationResult,
        cached: bool, stats: SweepStats,
    ) -> None:  # pragma: no cover
        pass

    def point_failed(
        self, cfg: SimulationConfig, failure: PointFailure, stats: SweepStats,
    ) -> None:  # pragma: no cover
        pass

    def sweep_finished(self, stats: SweepStats) -> None:  # pragma: no cover
        pass


class NullReporter(SweepReporter):
    """Silent default."""


class MultiReporter(SweepReporter):
    """Fan every reporter callback out to several sinks (e.g. console
    progress plus a JSONL telemetry log)."""

    def __init__(self, *reporters: SweepReporter) -> None:
        self.reporters = [r for r in reporters if r is not None]

    def sweep_started(self, stats: SweepStats) -> None:
        for r in self.reporters:
            r.sweep_started(stats)

    def point_done(self, cfg, result, cached, stats) -> None:
        for r in self.reporters:
            r.point_done(cfg, result, cached, stats)

    def point_failed(self, cfg, failure, stats) -> None:
        for r in self.reporters:
            r.point_failed(cfg, failure, stats)

    def sweep_finished(self, stats: SweepStats) -> None:
        for r in self.reporters:
            r.sweep_finished(stats)


class StatsCapture(SweepReporter):
    """Keeps the final :class:`SweepStats` (the CLI's run manifest and
    failure summary read it after the sweep)."""

    def __init__(self) -> None:
        self.stats: Optional[SweepStats] = None

    def sweep_finished(self, stats: SweepStats) -> None:
        self.stats = stats


class ConsoleReporter(SweepReporter):
    """Human-readable progress on ``stream`` (default: stderr)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def _emit(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def sweep_started(self, stats: SweepStats) -> None:
        self._emit(f"sweep: {stats.total} point(s)")

    def point_done(self, cfg, result, cached, stats) -> None:
        source = "cache" if cached else f"{result.avg_latency:8.1f} cyc"
        eta = stats.eta_seconds
        eta_text = f"{eta:4.0f}s" if eta == eta else "   ?"
        self._emit(
            f"  [{stats.completed:>3}/{stats.total}] "
            f"rate={cfg.injection_rate:.3f} {source:>12}  "
            f"hits={stats.cache_hits}  "
            f"{stats.sims_per_sec:5.2f} sims/s  eta {eta_text}"
        )

    def point_failed(self, cfg, failure, stats) -> None:
        self._emit(
            f"  [{stats.completed:>3}/{stats.total}] "
            f"rate={cfg.injection_rate:.3f}       FAILED  "
            f"[{failure.kind}] {failure.error}: {failure.message} "
            f"(after {failure.attempts} attempt(s))"
        )

    def sweep_finished(self, stats: SweepStats) -> None:
        failed = f", {stats.failed} failed" if stats.failed else ""
        retried = f", {stats.retries} retrie(s)" if stats.retries else ""
        self._emit(
            f"sweep done: {stats.completed} point(s) in {stats.elapsed:.1f}s "
            f"({stats.cache_hits} from cache, "
            f"{stats.sims_per_sec:.2f} sims/s{failed}{retried})"
        )


def _run_simulation(cfg: SimulationConfig) -> SimulationResult:
    """The real simulator, loaded when the first point has to run."""
    from ..netsim.simulator import run_simulation

    return run_simulation(cfg)


def run_point(
    cfg: SimulationConfig,
    cache: Optional[ResultCache] = None,
    sim_fn: Optional[Callable[[SimulationConfig], SimulationResult]] = None,
) -> SimulationResult:
    """One cached point, computed inline on a miss."""
    if cache is not None:
        hit = cache.get(cfg)
        if hit is not None:
            return hit
    result = (sim_fn or _run_simulation)(cfg)
    if cache is not None:
        cache.put(cfg, result)
    return result


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a container or ``taskset`` narrows it), else
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _error_report(exc: BaseException) -> tuple:
    """An exception as a picklable tuple; its ``snapshot`` attribute
    (e.g. a watchdog deadlock snapshot) rides along as machine-readable
    detail."""
    detail = getattr(exc, "snapshot", None)
    if detail is not None and not isinstance(detail, dict):
        detail = None
    return ("error", type(exc).__name__, str(exc), detail)


def _worker_loop(conn, worker_fn, parent_ends) -> None:
    """Pool-worker entry: run one job per request until the parent
    closes its end of the pipe.

    ``parent_ends`` are the parent's pipe ends this process inherited
    at fork (its own and every older sibling's); closing them here is
    what lets the parent's close -- or death -- reach this loop as EOF.
    """
    for end in parent_ends:
        end.close()
    try:
        while True:
            cfg_dict = conn.recv()
            try:
                conn.send(("ok", worker_fn(cfg_dict)))
            except BaseException as exc:  # report everything; the parent judges
                conn.send(_error_report(exc))
    except BaseException:
        pass  # pipe closed, parent gone, or a report that would not pickle
    finally:
        conn.close()


def _run_hardened_pool(
    pending: List[int],
    jobs: int,
    payload: Callable[[int], Any],
    record: Callable[[int, Any], None],
    fail: Callable[[int, str, str, str, Optional[dict], int], None],
    stats: SweepStats,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    worker_fn: Callable[[Any], Any],
    priority: Optional[Callable[[int], float]] = None,
) -> None:
    """At most ``jobs`` long-lived workers, one job at a time each,
    with crash/timeout isolation.

    Job ``i`` sends ``payload(i)`` to a worker, which answers with
    ``worker_fn(payload(i))``; that value comes back through
    ``record(i, value)``.  Neither side is interpreted here: a sweep
    sends config dicts and decodes result payloads, :func:`map_jobs`
    sends indices.  Side by side, first attempts start in descending
    ``priority(i)`` (index order without one, and always with one
    worker, which has no makespan to shorten).

    A worker is started when a job is ready and none is idle, so N
    pending jobs start ``min(N, jobs)`` of them.  One that dies (or is
    killed past its deadline) takes down exactly one attempt and is
    replaced: the job is retried with exponential backoff until its
    attempt budget runs out, then handed to ``fail`` -- which either
    records the failure or raises, per the caller's policy.
    """
    import multiprocessing as mp
    from multiprocessing import connection as mp_connection

    ctx = mp.get_context()
    forked = ctx.get_start_method() == "fork"
    # (not-before time, -priority, index, attempt#) -- a heap so
    # backoff-delayed retries interleave correctly with first attempts.
    ranked = priority is not None and jobs > 1
    ready: List[tuple] = [
        (0.0, -priority(i) if ranked else 0.0, i, 1) for i in pending
    ]
    heapq.heapify(ready)
    idle: List[tuple] = []  # (conn, proc) of workers waiting for a job
    running: Dict[Any, tuple] = {}  # conn -> (index, attempt, proc, deadline)

    def start_worker() -> tuple:
        # Only called with no worker idle: every other parent end is busy.
        conn, child_conn = ctx.Pipe()
        inherited = list(running) + [conn]
        proc = ctx.Process(
            target=_worker_loop,
            args=(child_conn, worker_fn, inherited if forked else ()),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds that end now
        return conn, proc

    def hand_off(index: int, attempt: int) -> None:
        conn, proc = idle.pop() if idle else start_worker()
        try:
            conn.send(payload(index))
        except OSError:
            pass  # died while idle: its EOF reads as this attempt's crash
        deadline = time.monotonic() + timeout if timeout is not None else None
        running[conn] = (index, attempt, proc, deadline)

    def retire(conn, proc) -> None:
        conn.close()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - pathological worker
            proc.kill()
            proc.join(timeout=5.0)

    def handle_failure(
        index: int, attempt: int, kind: str, error: str,
        message: str, detail: Optional[dict],
    ) -> None:
        if attempt <= retries:
            stats.retries += 1
            delay = backoff * (2 ** (attempt - 1))
            heapq.heappush(
                ready, (time.monotonic() + delay, 0.0, index, attempt + 1)
            )
            return
        fail(index, kind, error, message, detail, attempt)

    try:
        while ready or running:
            now = time.monotonic()
            while ready and len(running) < jobs and ready[0][0] <= now:
                _, _, index, attempt = heapq.heappop(ready)
                hand_off(index, attempt)

            waits: List[float] = []
            if ready and len(running) < jobs:
                waits.append(max(ready[0][0] - now, 0.0))
            for _, _, _, deadline in running.values():
                if deadline is not None:
                    waits.append(max(deadline - now, 0.0))
            wait_for = min(waits) if waits else None

            if running:
                readable = mp_connection.wait(list(running), timeout=wait_for)
            else:
                # Nothing in flight; sleep until the next retry is due.
                if wait_for:
                    time.sleep(wait_for)
                continue

            for conn in readable:
                index, attempt, proc, _ = running.pop(conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    msg = None  # died without reporting
                if msg is None:
                    retire(conn, proc)
                    handle_failure(
                        index, attempt, "crash", "WorkerCrashed",
                        f"worker process exited with code {proc.exitcode} "
                        "before reporting a result", None,
                    )
                    continue
                idle.append((conn, proc))
                if msg[0] == "ok":
                    record(index, msg[1])
                else:
                    _, etype, emessage, detail = msg
                    handle_failure(
                        index, attempt, "exception", etype, emessage, detail
                    )

            if timeout is not None:
                now = time.monotonic()
                expired = [
                    conn
                    for conn, (_, _, _, deadline) in running.items()
                    if deadline is not None and deadline <= now
                ]
                for conn in expired:
                    index, attempt, proc, _ = running.pop(conn)
                    proc.terminate()
                    retire(conn, proc)
                    handle_failure(
                        index, attempt, "timeout", "PointTimeout",
                        f"exceeded the {timeout:g}s wall-clock budget", None,
                    )
    finally:
        # Idle workers read EOF and exit; on abort (on_failure="raise"
        # or KeyboardInterrupt) busy ones are stopped, so no orphaned
        # simulation keeps burning CPU.
        for _, _, proc, _ in running.values():
            proc.terminate()
        for conn, proc in idle + [(c, p) for c, (_, _, p, _) in running.items()]:
            retire(conn, proc)


class JobError(RuntimeError):
    """Raised by :func:`map_jobs` when a job fails: ``label`` names the
    job, ``error`` is the type name of what it raised (``WorkerCrashed``
    when its worker died without reporting)."""

    def __init__(self, label: str, kind: str, error: str, message: str) -> None:
        super().__init__(f"job {label} failed: [{kind}] {error}: {message}")
        self.label = label
        self.kind = kind
        self.error = error


def _can_fork_workers() -> bool:
    """Whether :func:`map_jobs` may fork pool workers from here: not
    under another start method (a worker could not inherit the jobs)
    and not inside a daemonic pool worker (which may have no children)."""
    import multiprocessing as mp

    return mp.get_start_method() == "fork" and not mp.current_process().daemon


def map_width(items: int, jobs: Optional[int] = None) -> int:
    """How many workers :func:`map_jobs` runs ``items`` jobs on at
    ``jobs``; 1 means it runs them inline."""
    jobs = min(usable_cpus() if jobs is None else jobs, items)
    return jobs if jobs > 1 and _can_fork_workers() else 1


def map_jobs(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    label: Callable[[Any], str] = str,
    done: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]`` on at most ``jobs`` long-lived
    workers of the hardened pool (``None``: one per :func:`usable_cpus`).

    Workers are forked and inherit ``fn`` and ``items``, so a job goes
    out as its index and only its result (which must pickle) comes back:
    no closure is ever pickled.  Results are in item order whatever
    order the jobs finish in; ``done(i, result)`` runs in this process
    as each one lands.  The same loop runs inline, importing no
    :mod:`multiprocessing`, for one job or one usable CPU, and where
    workers cannot be forked (see :func:`_can_fork_workers`).

    A job that raises, or whose worker dies, fails the map with a
    :class:`JobError` naming ``label(item)``; the pool stops every
    worker still busy.
    """
    workers = map_width(len(items), jobs)
    results: List[Any] = [None] * len(items)

    def record(i: int, result: Any) -> None:
        results[i] = result
        if done is not None:
            done(i, result)

    if workers > 1:
        def fail(i, kind, error, message, detail, attempts) -> None:
            raise JobError(label(items[i]), kind, error, message)

        _run_hardened_pool(
            list(range(len(items))), workers, lambda i: i, record, fail,
            SweepStats(total=len(items)), None, 0, 0.0,
            lambda i: fn(items[i]),
        )
    else:
        for i, item in enumerate(items):
            try:
                result = fn(item)
            except Exception as exc:
                raise JobError(
                    label(item), "exception", type(exc).__name__, str(exc)
                ) from exc
            record(i, result)
    return results


class PointScheduler:
    """Transport-agnostic executor for a sweep's pending points.

    :func:`run_sweep` owns everything around the scheduling loop --
    cache lookups, checkpoint recovery/journaling, reporters, failure
    policy -- and hands the scheduler only the points that actually
    need computing.  Implementations decide *where* the work runs:

    * :class:`InlineScheduler` -- this process, one point at a time;
    * :class:`ProcessPoolScheduler` -- the hardened local pool of
      long-lived worker processes (crash/timeout isolation);
    * :class:`repro.serve.client.RemoteScheduler` -- a ``repro serve``
      job-queue server sharding points across worker fleets.

    All three are bit-identical by contract: every simulation seeds its
    RNG streams purely from ``(config.seed, terminal_id)``, so *where* a
    point runs can never change *what* it returns.
    """

    def run(
        self,
        configs: Sequence[SimulationConfig],
        pending: List[int],
        record: Callable[..., None],
        fail: Callable[[int, str, str, str, Optional[dict], int], None],
        stats: SweepStats,
    ) -> None:
        """Compute every ``configs[i]`` for ``i in pending``.

        Call ``record(i, result)`` per completed point (keyword
        ``cached=True`` when it was served from a warm store rather
        than computed) and ``fail(i, kind, error, message, detail,
        attempts)`` for a point whose attempt budget is exhausted --
        ``fail`` raises under ``on_failure="raise"``, so it must be
        allowed to propagate.
        """
        raise NotImplementedError


class InlineScheduler(PointScheduler):
    """Serial in-process execution with bounded retry."""

    def __init__(
        self,
        sim_fn: Optional[Callable[[SimulationConfig], SimulationResult]] = None,
        retries: int = 0,
        backoff: float = 1.0,
    ) -> None:
        self.sim_fn = sim_fn or _run_simulation
        self.retries = retries
        self.backoff = backoff

    def run(self, configs, pending, record, fail, stats) -> None:
        for i in pending:
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = self.sim_fn(configs[i])
                except Exception as exc:
                    if attempt <= self.retries:
                        stats.retries += 1
                        time.sleep(self.backoff * (2 ** (attempt - 1)))
                        continue
                    _, error, message, detail = _error_report(exc)
                    fail(i, "exception", error, message, detail, attempt)
                    break
                else:
                    record(i, result)
                    break


class ProcessPoolScheduler(PointScheduler):
    """Hardened local worker processes (see :func:`_run_hardened_pool`)."""

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 1.0,
        worker_fn: Optional[Callable[[dict], dict]] = None,
    ) -> None:
        self.jobs = max(jobs, 1)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.worker_fn = worker_fn

    def run(self, configs, pending, record, fail, stats) -> None:
        import multiprocessing as mp

        worker_fn = self.worker_fn
        if worker_fn is None:
            # Forked workers inherit this interpreter, so pay for the
            # machine once, here, rather than once per worker:
            # importing the simulator loads everything a point touches,
            # and prewarm_kernels compiles each design point's kernel.
            # A custom worker_fn may never simulate.
            from ..netsim.simulator import prewarm_kernels, run_simulation_worker

            worker_fn = run_simulation_worker
            if mp.get_start_method() == "fork":
                prewarm_kernels(configs[i] for i in pending)
        _run_hardened_pool(
            pending, self.jobs, lambda i: configs[i].to_dict(),
            lambda i, payload: record(i, SimulationResult.from_payload(payload)),
            fail, stats, self.timeout, self.retries, self.backoff, worker_fn,
            # Longest first: a point costs more the closer it runs to
            # saturation, and the most expensive point started last
            # would set the makespan alone.
            priority=lambda i: configs[i].injection_rate,
        )


def run_sweep(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    reporter: Optional[SweepReporter] = None,
    sim_fn: Optional[Callable[[SimulationConfig], SimulationResult]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 1.0,
    on_failure: str = "raise",
    checkpoint=None,
    worker_fn: Optional[Callable[[dict], dict]] = None,
    scheduler: Optional[PointScheduler] = None,
) -> List[Optional[SimulationResult]]:
    """Evaluate every config, in input order, cache-first.

    ``jobs > 1`` fans cache misses out across at most ``jobs`` worker
    processes; results are bit-identical to a serial run because each
    point is seeded only by its own config.  ``jobs=None`` takes one
    worker per :func:`usable_cpus`, capped at the points that actually
    need computing, so a sweep with one cache miss runs inline.
    ``sim_fn`` substitutes the simulator for the *inline* path (tests
    inject analytic models); the process pool runs
    ``worker_fn`` (default: the real :func:`run_simulation_worker`),
    which must be an importable module-level callable.

    Hardening:

    * ``timeout`` -- per-point wall-clock budget in seconds.  Enforced
      by running points in worker processes, so a non-``None``
      timeout routes even ``jobs=1`` sweeps through the pool (unless
      ``sim_fn`` pins them inline).
    * ``retries``/``backoff`` -- each failed point is retried up to
      ``retries`` more times, delayed ``backoff * 2**(attempt-1)``
      seconds.
    * ``on_failure`` -- ``"raise"`` (default) aborts the sweep with
      :class:`SweepPointError` on the first exhausted point;
      ``"record"`` appends a :class:`PointFailure` to
      ``stats.failures``, leaves that result slot ``None`` and lets the
      rest of the sweep complete.
    * ``checkpoint`` -- a
      :class:`~repro.eval.checkpoint.SweepCheckpoint`: completed points
      are journaled as they land and recovered points are served
      without recomputation, so a sweep killed mid-flight resumes where
      it stopped.
    * ``scheduler`` -- an explicit :class:`PointScheduler` overrides
      the default selection above; ``repro sweep --connect`` passes a
      :class:`~repro.serve.client.RemoteScheduler` here to shard the
      pending points across a job-queue server's worker fleet.
    """
    if on_failure not in ("raise", "record"):
        raise ValueError(f"on_failure must be 'raise' or 'record', got {on_failure!r}")
    reporter = reporter or NullReporter()
    stats = SweepStats(total=len(configs))
    reporter.sweep_started(stats)

    results: List[Optional[SimulationResult]] = [None] * len(configs)
    keys = [config_key(cfg, cache.salt if cache is not None else None)
            for cfg in configs]
    pending: List[int] = []
    for i, cfg in enumerate(configs):
        hit = cache.get(cfg) if cache is not None else None
        if hit is None and checkpoint is not None:
            payload = checkpoint.recovered.get(keys[i])
            if payload is not None:
                try:
                    hit = SimulationResult.from_payload(payload)
                except (TypeError, KeyError, ValueError, AttributeError):
                    hit = None
                else:
                    if cache is not None:
                        cache.put(cfg, hit)
        if hit is not None:
            results[i] = hit
            stats.completed += 1
            stats.cache_hits += 1
            reporter.point_done(cfg, hit, True, stats)
        else:
            pending.append(i)

    def record(i: int, result: SimulationResult, cached: bool = False) -> None:
        # ``cached=True`` means a scheduler served the point from a warm
        # store (e.g. the serve server's shared cache): it still lands in
        # the local cache, but counts as a hit and is not re-journaled.
        results[i] = result
        if cache is not None:
            cache.put(configs[i], result)
        if checkpoint is not None and not cached:
            checkpoint.record(keys[i], result.to_payload())
        stats.completed += 1
        if cached:
            stats.cache_hits += 1
        reporter.point_done(configs[i], result, cached, stats)

    def fail(
        i: int, kind: str, error: str, message: str,
        detail: Optional[dict], attempts: int,
    ) -> None:
        failure = PointFailure(
            index=i,
            key=keys[i],
            kind=kind,
            error=error,
            message=message,
            attempts=attempts,
            injection_rate=configs[i].injection_rate,
            detail=detail,
        )
        if on_failure == "raise":
            raise SweepPointError(failure)
        stats.failures.append(failure)
        stats.completed += 1
        reporter.point_failed(configs[i], failure, stats)

    if scheduler is None:
        # sim_fn pins execution inline (tests inject analytic models);
        # jobs>1 or a timeout route through the hardened pool.
        if jobs is None:
            jobs = min(usable_cpus(), len(pending))
        use_pool = sim_fn is None and (jobs > 1 or timeout is not None)
        if use_pool:
            scheduler = ProcessPoolScheduler(
                jobs=jobs, timeout=timeout, retries=retries,
                backoff=backoff, worker_fn=worker_fn,
            )
        else:
            scheduler = InlineScheduler(
                sim_fn=sim_fn, retries=retries, backoff=backoff,
            )
    try:
        if pending:
            scheduler.run(configs, pending, record, fail, stats)
    finally:
        # Aborted or not, never leave the journal handle open; an
        # aborted sweep keeps its file so --resume can pick it up.
        if checkpoint is not None:
            checkpoint.close()
        # Batched cache persistence: whatever landed since the last
        # threshold-triggered flush is written out exactly once here.
        if cache is not None:
            cache.flush()

    if checkpoint is not None and stats.failed == 0:
        checkpoint.complete()  # finished cleanly: nothing left to resume
    reporter.sweep_finished(stats)
    return results
