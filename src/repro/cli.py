"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment harness without writing any Python:

* ``figures``     -- list every reproducible table/figure;
* ``transitions`` -- print a VC transition matrix (Figure 4);
* ``quality``     -- matching-quality curves (Figures 7 / 12);
* ``cost``        -- synthesize allocator variants (Figures 5/6/10/11);
* ``simulate``    -- one network simulation point;
* ``sweep``       -- a latency-vs-load curve (Figures 13 / 14), with
  opt-in observability: ``--metrics DIR`` collects per-router metrics
  and sweep telemetry, ``--trace FILE`` records a Perfetto-loadable
  flit trace; hardened execution via ``--faults/--watchdog/--timeout/
  --retries/--resume``; ``--connect HOST:PORT`` computes the points on
  a ``repro serve`` job-queue server instead of locally;
* ``serve``       -- distributed sweep scheduler: shards submitted
  points across connected workers behind a shared, sharded result
  cache (docs/DISTRIBUTED.md);
* ``work``        -- one remote worker: lease points from a server,
  compute, report;
* ``faults``      -- saturation throughput vs injected fault rate per
  allocator architecture (robustness extension, beyond the paper);
* ``report``      -- summarize a ``--metrics`` telemetry directory
  (top stall sources, matching efficiency vs. injection rate);
* ``perf``        -- performance observatory: ``perf report`` renders a
  self-contained HTML dashboard from a result file of the repo
  benchmark (``python3 bench/run.py``), sweep telemetry and a
  resilience artifact;
* ``verify``      -- formal verification (docs/STATIC_ANALYSIS.md):
  proves every paper design-point netlist equivalent to the behavioural
  allocators over all inputs and reachable states, checks the allocator
  safety properties the paper assumes, and (``--mutation``) measures the
  checker's own coverage by mutation testing;
* ``lint``        -- static verification (docs/STATIC_ANALYSIS.md):
  ``--netlists`` runs the gate-level DRC over every paper design point,
  ``--source`` runs the repo-invariant AST linter over ``src/repro``,
  ``--ratchet BASE`` fails when the lint baseline grew since a git base
  ref; findings gate CI unless baselined.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

# No ``repro`` subsystem is imported here: every handler imports what
# it needs when it runs, so a command pays at start-up only for itself
# (docs/PERFORMANCE.md, "Start-up"; tests/test_import_budget.py).
if TYPE_CHECKING:  # pragma: no cover
    from .eval.design_points import DesignPoint
    from .netsim.config import SimulationConfig

__all__ = ["main", "build_parser", "COMMANDS"]


def _number(convert, value: str):
    """``convert(value)``, failing with argparse's own wording (a bare
    ValueError would name the type function in the message)."""
    try:
        return convert(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {convert.__name__} value: {value!r}"
        ) from None


def _positive_int(value: str) -> int:
    """argparse type: integer >= 1 (e.g. worker counts, cycle counts)."""
    n = _number(int, value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonnegative_int(value: str) -> int:
    """argparse type: integer >= 0 (e.g. retry counts)."""
    n = _number(int, value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive_float(value: str) -> float:
    """argparse type: float > 0 (e.g. wall-clock timeouts)."""
    x = _number(float, value)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {x}")
    return x


def _nonnegative_float(value: str) -> float:
    """argparse type: float >= 0 (e.g. retry backoff)."""
    x = _number(float, value)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {x}")
    return x


class _UsageError(Exception):
    """Bad command-line input found by a handler; :func:`main` prints
    ``error: ...`` and exits 2."""


def _comma_list(flag: str, text: str, convert, expected: str) -> list:
    """``"0.1, 0.2"`` -> ``[0.1, 0.2]`` through ``convert``, which
    raises ValueError for an item it does not accept."""
    try:
        items = [convert(t.strip()) for t in text.split(",") if t.strip()]
    except ValueError:
        items = []
    if not items:
        raise _UsageError(
            f"{flag} must be a comma list of {expected}, got {text!r}"
        )
    return items


def _one_of(*names: str):
    """``convert`` for :func:`_comma_list`: the item must be a name."""
    def convert(item: str) -> str:
        if item not in names:
            raise ValueError(item)
        return item
    return convert


def _checked(cfg: SimulationConfig) -> SimulationConfig:
    """``cfg``, once :func:`validate_config` accepts it."""
    from .netsim.config import validate_config

    try:
        validate_config(cfg)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return cfg


def _parse_hotspots(text: Optional[str]) -> Optional[List[int]]:
    """``--hotspots "3,17"`` -> ``[3, 17]`` (None passes through)."""
    if text is None:
        return None
    try:
        hotspots = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--hotspots must be a comma list of terminal indices, "
            f"got {text!r}"
        ) from None
    if not hotspots:
        raise argparse.ArgumentTypeError("--hotspots must name at least "
                                         "one terminal")
    return hotspots


def _point(args) -> DesignPoint:
    from .eval.design_points import DesignPoint

    return DesignPoint.paper(args.topology, args.vcs_per_class)


def cmd_figures(args) -> int:
    from .eval.figures import format_experiment_index

    print(format_experiment_index())
    return 0


def cmd_transitions(args) -> int:
    from .eval.tables import format_table

    part = _point(args).partition
    mat = part.transition_matrix()
    rows = []
    for vin in range(part.num_vcs):
        m, r, c = part.vc_fields(vin)
        rows.append(
            [vin, f"m{m}/r{r}/c{c}",
             "".join("o" if x else "." for x in mat[vin])]
        )
    print(format_table(["in VC", "class", "legal outputs"], rows,
                       title=f"VC transitions, {part.describe()}"))
    print(f"legal: {part.num_legal_transitions()} / {part.num_vcs ** 2}")
    return 0


@contextmanager
def _warnings_on_stderr() -> Iterator[None]:
    """Print each structured warning raised inside the block (a
    quarantined store, a torn telemetry line) as one ``warning:`` line."""
    from .obs.metrics import add_warning_sink, remove_warning_sink

    def on_stderr(warning) -> None:
        print(f"warning: {warning.message}", file=sys.stderr)

    add_warning_sink(on_stderr)
    try:
        yield
    finally:
        remove_warning_sink(on_stderr)


def _memoised(args, key: str, compute: Callable[[], dict]) -> dict:
    """``compute()``'s JSON-ready result, through the offline result
    store: the :class:`~repro.eval.store.ResultStore` salted with a
    digest of this package's source, so an unchanged tree answers
    ``quality``, ``cost``, ``lint --netlists`` and ``verify`` without
    importing what computes them (docs/PERFORMANCE.md, "Warm offline
    commands").  The hit and the miss hand back the same payload, so
    what a command prints from it cannot differ between the two; the
    ``cache:`` line goes to stderr for the same reason.
    """
    if args.no_cache:
        return compute()
    from .eval.store import ResultStore, code_salt, default_store_path

    salt = code_salt()
    if salt is None:
        print("note: result store disabled: the repro package has no "
              "readable .py sources to salt it with", file=sys.stderr)
        return compute()

    with _warnings_on_stderr():  # a quarantined or unwritable file
        store = ResultStore(args.cache_path or default_store_path(), salt)
        payload = store.fetch(key, compute)
    print(f"cache: {store.hits} hit(s), {store.misses} computed "
          f"({store.path})", file=sys.stderr)
    return payload


def cmd_quality(args) -> int:
    from .eval.tables import format_curves

    rates = _comma_list("--rates", args.rates, float, "numbers")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:  # also catches NaN
            raise _UsageError(
                f"--rates are request probabilities in [0, 1], got {rate!r}"
            )

    def compute() -> dict:
        from .eval.matching import switch_matching_quality, vc_matching_quality

        point = _point(args)
        fn = (vc_matching_quality if args.target == "vc"
              else switch_matching_quality)
        curves = fn(point, rates=rates, num_samples=args.samples)
        return {"label": point.label,
                "curves": {k: c.quality for k, c in curves.items()}}

    # Keyed on the arguments, not the design point: building the point
    # imports the allocator core.
    result = _memoised(
        args,
        f"quality|{args.topology}|{args.vcs_per_class}|{args.target}|"
        f"{rates}|{args.samples}",
        compute,
    )
    print(
        format_curves(
            "req/VC/cycle",
            rates,
            result["curves"],
            title=f"{args.target} allocator matching quality, {result['label']}",
        )
    )
    return 0


def cmd_cost(args) -> int:
    from dataclasses import asdict

    from .eval.cost import CostResult, switch_allocator_costs, vc_allocator_costs
    from .eval.tables import format_cost_results

    def compute() -> dict:
        point = _point(args)
        fn = vc_allocator_costs if args.target == "vc" else switch_allocator_costs
        return {"label": point.label,
                "results": [asdict(r) for r in fn(point)]}

    result = _memoised(
        args, f"cost|{args.topology}|{args.vcs_per_class}|{args.target}", compute
    )
    print(format_cost_results(
        [CostResult(**r) for r in result["results"]],
        title=f"{args.target} allocator cost, {result['label']}",
    ))
    return 0


def cmd_simulate(args) -> int:
    from .netsim.config import SimulationConfig

    cfg = _checked(SimulationConfig(
        topology=args.topology,
        vcs_per_class=args.vcs_per_class,
        injection_rate=args.rate,
        sw_alloc_arch=args.sw_alloc,
        vc_alloc_arch=args.vc_alloc,
        speculation=args.speculation,
        traffic_pattern=args.pattern,
        hotspot_terminals=args.hotspots,
        warmup_cycles=args.cycles // 3,
        measure_cycles=args.cycles,
        drain_cycles=args.cycles,
        seed=args.seed,
    ))
    from .netsim.simulator import run_simulation

    res = run_simulation(cfg)
    print(res)
    print(
        f"injected {res.injected_flit_rate:.3f} / accepted "
        f"{res.accepted_flit_rate:.3f} flits/cycle/terminal; "
        f"speculative wins {res.speculative_wins}, "
        f"misspeculations {res.misspeculations}"
    )
    return 0


def _sweep_cache(args):
    """The sweep result cache ``--no-cache`` / ``--cache-path`` select
    (``None``: do not touch it)."""
    if args.no_cache:
        return None
    from .eval.runner import ResultCache, default_cache_path

    return ResultCache(args.cache_path or default_cache_path())


def _sweep_harness(args, configs, command: str, reporters=()):
    """What ``sweep`` and ``resilience`` run their points through:
    ``(cache, checkpoint, capture, reporter)``; ``reporters`` follow the
    stats capture and the ``--progress`` console.

    The ``--resume`` journal is ``--checkpoint``, else it sits beside
    the cache (``<stem>.ckpt.jsonl``; ``<stem>.<command>.ckpt.jsonl``
    for a command other than ``sweep``), else in the working directory.
    """
    from .eval.runner import ConsoleReporter, MultiReporter, StatsCapture

    cache = _sweep_cache(args)

    checkpoint = None
    if args.resume or args.checkpoint is not None:
        from .eval.checkpoint import SweepCheckpoint, sweep_signature
        from .eval.runner import config_key

        salt = cache.salt if cache is not None else None
        keys = [config_key(cfg, salt) for cfg in configs]
        infix = "" if command == "sweep" else f".{command}"
        if args.checkpoint is not None:
            ckpt_path = Path(args.checkpoint)
        elif cache is not None:
            ckpt_path = cache.path.with_name(
                f"{cache.path.stem}{infix}.ckpt.jsonl"
            )
        else:
            ckpt_path = Path(f".repro-{command}.ckpt.jsonl")
        checkpoint = SweepCheckpoint(ckpt_path, sweep_signature(keys))
        if checkpoint.recovered:
            print(f"resume: recovered {len(checkpoint.recovered)} completed "
                  f"point(s) from {ckpt_path}", file=sys.stderr)

    capture = StatsCapture()
    console = [ConsoleReporter()] if args.progress else []
    reporter = MultiReporter(capture, *console, *reporters)
    return cache, checkpoint, capture, reporter


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from .eval.netperf import latency_sweep
    from .eval.tables import format_curves
    from .faults.plan import parse_fault_spec
    from .netsim.config import SimulationConfig
    from .obs.telemetry import (
        JsonlReporter,
        build_run_manifest,
        write_run_manifest,
    )

    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except (ValueError, OSError) as exc:
        print(f"error: bad --faults spec: {exc}", file=sys.stderr)
        return 2
    watchdog = args.watchdog
    if watchdog is None:
        # Fault injection can deadlock the fabric; arm the watchdog by
        # default so a wedged point aborts with a diagnostic snapshot
        # instead of burning every configured cycle.
        watchdog = max(1000, args.cycles) if faults is not None else 0

    base = _checked(SimulationConfig(
        topology=args.topology,
        vcs_per_class=args.vcs_per_class,
        sw_alloc_arch=args.sw_alloc,
        vc_alloc_arch=args.vc_alloc,
        speculation=args.speculation,
        traffic_pattern=args.pattern,
        hotspot_terminals=args.hotspots,
        warmup_cycles=args.cycles // 3,
        measure_cycles=args.cycles,
        drain_cycles=args.cycles,
        seed=args.seed,
        faults=faults,
        watchdog_cycles=watchdog,
    ))
    rates = _comma_list("--rates", args.rates, float, "numbers")
    configs = [_checked(replace(base, injection_rate=r)) for r in rates]

    instrumented = bool(args.metrics or args.trace)
    metrics_dir = Path(args.metrics) if args.metrics else None
    jobs = args.jobs  # None: one worker per usable CPU (run_sweep)

    observer = None
    sim_fn = None
    if instrumented:
        # Instrumented points must run inline (the observer lives in
        # this process) and uncached (a cache hit would skip the hooks
        # entirely, leaving holes in the metrics/trace).
        from .netsim.simulator import run_simulation
        from .obs.metrics import emit_warning
        from .obs.observer import SimObserver

        if jobs is not None and jobs > 1:
            emit_warning(
                "instrumented_sweep_forced_serial",
                "--metrics/--trace force jobs=1; observers cannot cross "
                "process boundaries",
                requested_jobs=jobs,
            )
            print("note: --metrics/--trace forces a serial run "
                  f"(requested --jobs {jobs})", file=sys.stderr)
            jobs = 1
        if not args.no_cache:
            emit_warning(
                "instrumented_sweep_uncached",
                "--metrics/--trace disables the result cache so every "
                "point is actually simulated under instrumentation",
            )
            print("note: --metrics/--trace disables the sweep cache",
                  file=sys.stderr)
        args.no_cache = True
        observer = SimObserver(
            metrics_path=(metrics_dir / "metrics.jsonl"
                          if metrics_dir is not None else None),
            trace_path=args.trace,
            sample_every=args.sample_every,
        )
        sim_fn = lambda cfg: run_simulation(cfg, observer=observer)  # noqa: E731

    scheduler = None
    if args.connect:
        if instrumented:
            print("error: --connect cannot carry --metrics/--trace "
                  "(observers cannot cross machines)", file=sys.stderr)
            return 2
        from .serve.client import RemoteScheduler

        scheduler = RemoteScheduler(args.connect)
        if not args.no_cache:
            # The server owns the shared result cache; a local disk
            # cache would just shadow it.  Note on stderr only, so
            # stdout tables stay byte-identical to a local run.
            print(f"note: --connect {args.connect} uses the server's "
                  "shared cache; the local cache file is not touched",
                  file=sys.stderr)
        args.no_cache = True

    # Any hardening/fault flag switches failure handling from "abort
    # the sweep" to "record the failure and keep going" -- a partial
    # curve plus structured failures beats no curve.
    hardened = (
        args.timeout is not None
        or args.retries
        or args.resume
        or args.checkpoint is not None
        or faults is not None
    )
    on_failure = "record" if hardened else "raise"

    cache, checkpoint, capture, reporter = _sweep_harness(
        args, configs, "sweep",
        reporters=([JsonlReporter(metrics_dir / "sweep.jsonl")]
                   if metrics_dir is not None else []),
    )

    t0 = time.perf_counter()
    try:
        curve = latency_sweep(
            base, rates, jobs=jobs, cache=cache, reporter=reporter, sim_fn=sim_fn,
            timeout=args.timeout, retries=args.retries, backoff=args.backoff,
            on_failure=on_failure, checkpoint=checkpoint, scheduler=scheduler,
        )
    except Exception as exc:
        from .serve.protocol import ProtocolError

        if scheduler is None or not isinstance(
            exc, (ConnectionError, OSError, ProtocolError)
        ):
            raise
        print(f"error: sweep server {args.connect}: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0

    if observer is not None:
        observer.finalize(
            metadata={"config": base.to_dict(), "rates": rates}
        )

    if metrics_dir is not None or cache is not None:
        manifest = build_run_manifest(
            configs,
            wall_time_s=wall,
            stats=capture.stats,
            cache=cache,
            command=["repro", "sweep"] + (sys.argv[2:] if len(sys.argv) > 2 else []),
        )
        if metrics_dir is not None:
            write_run_manifest(metrics_dir / "manifest.json", manifest)
        if cache is not None:
            write_run_manifest(
                cache.path.with_name(f"{cache.path.stem}.manifest.json"),
                manifest,
            )

    print(
        format_curves(
            "inj rate",
            [p.rate for p in curve.points],
            {"latency": [p.latency for p in curve.points],
             "p50": [p.p50 for p in curve.points],
             "p95": [p.p95 for p in curve.points],
             "p99": [p.p99 for p in curve.points],
             "accepted": [p.accepted for p in curve.points]},
            title=f"{args.topology} {args.sw_alloc}/{args.speculation}",
        )
    )
    print(f"zero-load {curve.zero_load:.1f} cycles, "
          f"saturation ~{curve.saturation_rate():.3f} flits/cycle")
    stats = capture.stats
    if stats is not None and stats.failures:
        detail = ", ".join(
            f"rate={f.injection_rate:g} [{f.kind}]" for f in stats.failures
        )
        print(f"failed: {stats.failed} point(s) after retries ({detail})")
        if checkpoint is not None:
            print(f"checkpoint kept for --resume: {checkpoint.path}")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"({cache.path})")
    if metrics_dir is not None:
        print(f"telemetry: {metrics_dir}/ "
              f"(metrics.jsonl, sweep.jsonl, manifest.json)")
    if args.trace:
        print(f"trace: {args.trace} (load in https://ui.perfetto.dev)")
    return 0


def cmd_serve(args) -> int:
    """Run the distributed sweep job-queue server (docs/DISTRIBUTED.md)."""
    import asyncio
    import subprocess

    from .serve.server import SweepServer

    async def amain() -> int:
        server = SweepServer(
            host=args.host,
            port=args.port,
            state_dir=args.state_dir,
            retries=args.retries,
            backoff=args.backoff,
            lease_timeout=args.lease_timeout,
            max_requeues=args.max_requeues,
        )
        await server.start()
        # Parseable by wrapper scripts (tests/CI start with --port 0).
        print(f"serving on {server.host}:{server.port}", flush=True)
        print(f"state: {server.state_dir} "
              f"({len(server.cache)} cached result(s))", file=sys.stderr)
        workers = []
        try:
            for _ in range(args.workers):
                cmdline = [
                    sys.executable, "-m", "repro", "work",
                    "--connect", f"{server.host}:{server.port}",
                ]
                if args.worker_fn:
                    cmdline += ["--worker-fn", args.worker_fn]
                workers.append(subprocess.Popen(cmdline))
            await server.serve_forever()
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
            await server.close()
        return 0

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:
        print("serve: interrupted, state preserved for restart",
              file=sys.stderr)
        return 0


def cmd_work(args) -> int:
    """Attach one worker to a sweep server and compute leased points."""
    from .serve.protocol import ProtocolError
    from .serve.worker import run_worker

    try:
        run_worker(
            args.connect, worker_fn=args.worker_fn,
            max_points=args.max_points,
        )
    except (ConnectionError, OSError, ProtocolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    return 0


def cmd_faults(args) -> int:
    """Saturation throughput vs injected fault rate, per allocator
    architecture.  A robustness extension beyond the paper's figures:
    the same binary-search saturation metric as ``repro sweep``, with a
    seeded :class:`~repro.faults.FaultPlan` scaled along one axis."""
    from .eval.netperf import saturation_throughput
    from .eval.tables import format_curves
    from .faults.plan import FaultPlan
    from .netsim.config import SimulationConfig

    kind_field = {
        "vcs": "stuck_vc_rate",
        "links": "link_rate",
        "credits": "credit_drop_rate",
    }[args.kind]
    archs = _comma_list("--archs", args.archs,
                        _one_of("sep_if", "sep_of", "wf"), "sep_if/sep_of/wf")
    frates = _comma_list("--rates", args.rates, float, "numbers")

    cache = _sweep_cache(args)

    columns = {}
    for arch in archs:
        sats = []
        for frate in frates:
            try:
                plan = (
                    FaultPlan(seed=args.seed, **{kind_field: frate})
                    if frate > 0 else None
                )
            except ValueError as exc:  # a rate above 1, a negative seed
                raise _UsageError(str(exc)) from None
            # No watchdog here on purpose: a deadlocked probe point
            # reports as saturated, which is exactly what the metric
            # should say about that load.
            base = _checked(SimulationConfig(
                topology=args.topology,
                vcs_per_class=args.vcs_per_class,
                sw_alloc_arch=arch,
                vc_alloc_arch=arch,
                speculation=args.speculation,
                traffic_pattern=args.pattern,
                warmup_cycles=args.cycles // 3,
                measure_cycles=args.cycles,
                drain_cycles=args.cycles,
                seed=args.seed,
                faults=plan,
            ))
            sats.append(
                saturation_throughput(
                    base, iterations=args.iterations, cache=cache
                )
            )
        columns[arch] = sats

    print(
        format_curves(
            f"{args.kind} fault rate",
            frates,
            columns,
            title=(f"saturation throughput vs {args.kind} fault rate "
                   f"({args.topology}, {args.speculation} speculation)"),
        )
    )
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"({cache.path})")
    return 0


def cmd_resilience(args) -> int:
    """Degradation curves vs permanent link faults, with and without
    fault-tolerant routing (docs/ROBUSTNESS.md)."""
    from .eval.resilience import (
        RESILIENCE_MODES,
        campaign_configs,
        format_resilience,
        full_delivery_violations,
        run_resilience_campaign,
        write_resilience_artifact,
    )

    counts = _comma_list("--counts", args.counts, int, "integers")
    modes = _comma_list("--modes", args.modes, _one_of(*RESILIENCE_MODES),
                        "/".join(RESILIENCE_MODES))

    campaign = dict(
        fault_counts=counts,
        modes=modes,
        injection_rate=args.rate,
        total_vcs=args.total_vcs,
        sw_alloc_arch=args.sw_alloc,
        vc_alloc_arch=args.vc_alloc,
        speculation=args.speculation,
        cycles=args.cycles,
        seed=args.seed,
    )
    try:
        configs = [cfg for _, _, cfg in campaign_configs(**campaign)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache, checkpoint, capture, reporter = _sweep_harness(
        args, configs, "resilience"
    )

    artifact = run_resilience_campaign(
        **campaign,
        jobs=args.jobs,
        cache=cache,
        reporter=reporter,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        checkpoint=checkpoint,
    )
    if args.output is not None:
        write_resilience_artifact(artifact, Path(args.output))
        print(f"wrote {args.output}", file=sys.stderr)

    print(format_resilience(artifact))
    stats = capture.stats
    if stats is not None and stats.failures:
        print(f"failed: {stats.failed} point(s) after retries")
        if checkpoint is not None:
            print(f"checkpoint kept for --resume: {checkpoint.path}")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"({cache.path})")

    if args.require_full_delivery is not None:
        problems = full_delivery_violations(
            artifact, args.require_full_delivery
        )
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(f"full delivery holds for ft_dor up to "
              f"{args.require_full_delivery} link fault(s)")
    return 0


def cmd_perf_report(args) -> int:
    """Render the self-contained HTML performance dashboard."""
    from .obs.perf_report import build_perf_report

    try:
        with _warnings_on_stderr():
            html = build_perf_report(
                bench_path=Path(args.bench) if args.bench else None,
                metrics_dir=Path(args.metrics) if args.metrics else None,
                resilience_path=(Path(args.resilience)
                                 if args.resilience else None),
            )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    print(f"wrote {out}")
    return 0


def _matrix_args(args) -> dict:
    """What ``--quick``, ``--max-cells`` and ``--progress`` mean to a run
    over the paper matrix (DRC or proofs), as keyword arguments."""
    kwargs = {"quick": args.quick, "progress": None}
    if args.progress:
        kwargs["progress"] = lambda msg: print(msg, file=sys.stderr)
    if args.max_cells is not None:
        kwargs["max_cells"] = args.max_cells
    return kwargs


def _matrix_payload(outcome, unchecked) -> dict:
    """``(findings, skipped, checked)`` of a run over the paper matrix,
    and the finding scopes of the matrix netlists it left unchecked
    (:func:`~repro.analysis.netlists.unchecked_netlists`), as the JSON
    the offline result store keeps."""
    findings, skipped, checked = outcome
    return {
        "findings": [f.to_dict() for f in findings],
        "skipped": [list(pair) for pair in skipped],
        "checked": checked,
        "unchecked": list(unchecked),
    }


def _unchecked_netlists(args, **include) -> list:
    """The matrix netlists a run with ``args``' ``--quick`` and
    ``--max-cells`` does not check."""
    from .analysis.netlists import unchecked_netlists

    kwargs = _matrix_args(args)
    del kwargs["progress"]
    return unchecked_netlists(**include, **kwargs)


def _matrix_findings(result: dict, meta: dict, counted_as: str) -> list:
    """Findings of a :func:`_matrix_payload`; books the netlist counts
    into ``meta`` and notes the capacity skips on stderr."""
    from .analysis.findings import Finding

    meta[counted_as] = result["checked"]
    meta["netlists_skipped"] = [
        {"label": label, "reason": reason} for label, reason in result["skipped"]
    ]
    for label, reason in result["skipped"]:
        print(f"note: skipped {label}: {reason}", file=sys.stderr)
    return [Finding.from_dict(f) for f in result["findings"]]


def _gate_on_findings(
    args, findings, meta, baseline_path: Optional[str], *,
    as_json: bool, stale_rules: Sequence[str], unchecked: dict,
    title: str = "",
) -> int:
    """What ``lint`` and ``verify`` end with: split ``findings`` by the
    baseline, print (or ``--output``) the report, exit 1 on a finding
    the baseline does not accept.  Runs after the result store, so an
    edited baseline takes effect on stored findings too.  An entry
    that matched nothing is noted stale only if its rule can match a
    rule starting with one of ``stale_rules``, the rule prefixes of the
    stages that ran, and its scope matches none that a stage left
    unchecked (``unchecked``, rule prefix -> scopes)."""
    from .analysis.findings import Baseline, findings_to_json, format_findings

    if baseline_path is not None:
        try:
            baseline = Baseline.load(Path(baseline_path))
        except (OSError, ValueError) as exc:
            print(f"error: bad baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    else:
        baseline = Baseline()
    unsuppressed, suppressed = baseline.partition(findings)
    for entry in baseline.unused_entries(stale_rules, unchecked):
        print(
            f"note: stale baseline entry matched nothing: {entry}",
            file=sys.stderr,
        )

    if args.write_baseline:
        new = Baseline(
            [
                {
                    "rule": f.rule,
                    "scope": f.scope,
                    "location": f.location,
                    "reason": "baselined by --write-baseline",
                }
                for f in unsuppressed
            ]
        )
        new.dump(Path(args.write_baseline))
        print(f"wrote {len(new.entries)} suppression(s) to "
              f"{args.write_baseline}", file=sys.stderr)

    if as_json:
        report = findings_to_json(unsuppressed, suppressed, meta=meta)
    else:
        report = format_findings(
            unsuppressed, suppressed=len(suppressed), title=title
        )
    if args.output:
        Path(args.output).write_text(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 1 if unsuppressed else 0


def _default_baseline(args, name: str) -> Optional[str]:
    """``--baseline``, else ``name`` when the working directory has it."""
    if args.baseline is None and Path(name).exists():
        return name
    return args.baseline


def cmd_lint(args) -> int:
    """Static verification: netlist DRC + source linter + baseline ratchet."""
    run_netlists = args.netlists
    run_source = args.source
    run_ratchet = args.ratchet is not None
    if not (run_netlists or run_source or run_ratchet):
        run_netlists = run_source = True

    findings = []
    meta = {}
    unchecked = {}
    if run_netlists:
        def drc_matrix() -> dict:
            from .analysis.drc import DrcConfig
            from .analysis.netlists import lint_paper_netlists

            return _matrix_payload(
                lint_paper_netlists(config=DrcConfig(), **_matrix_args(args)),
                [job.name for job in _unchecked_netlists(args)],
            )

        # The DRC matrix depends on this package alone, which is what
        # the store's salt digests; the other stages read the working
        # tree or git, so a run that includes one never touches it.
        if run_source or run_ratchet:
            result = drc_matrix()
        else:
            result = _memoised(
                args, f"lint-netlists|{args.quick}|{args.max_cells}", drc_matrix
            )
        findings.extend(_matrix_findings(result, meta, "netlists_checked"))
        unchecked["DRC-"] = result["unchecked"]
    if run_source:
        from .analysis.srclint import lint_generated_kernels, lint_source_tree

        src_root = Path(args.src_root) if args.src_root else Path(__file__).parent
        findings.extend(lint_source_tree(src_root))
        # The compiled kernel's generated modules never exist on disk;
        # render the template design points and lint them too.
        findings.extend(lint_generated_kernels())
        meta["source_root"] = str(src_root)
    baseline_path = _default_baseline(args, "lint-baseline.json")
    if run_ratchet:
        from .analysis.ratchet import check_baseline_ratchet

        findings.extend(
            check_baseline_ratchet(
                Path.cwd(),
                baseline_path=baseline_path or "lint-baseline.json",
                base_ref=args.ratchet,
            )
        )
    # An entry is stale only if a stage that can produce its rule ran.
    return _gate_on_findings(
        args, findings, meta, baseline_path, as_json=args.format == "json",
        stale_rules=("DRC-",) * run_netlists + ("SRC-",) * run_source,
        unchecked=unchecked,
    )


def cmd_verify(args) -> int:
    """Formal verification: equivalence proofs, properties, mutation."""
    run_points = args.points
    run_props = args.properties
    run_mutation = args.mutation
    if not (run_points or run_props or run_mutation):
        run_points = run_props = True

    findings = []
    meta = {}
    unchecked = {}
    if run_points or run_props:
        def prove_matrix() -> dict:
            from .verify.runner import verify_paper_netlists

            return _matrix_payload(
                verify_paper_netlists(
                    include_vc=run_points,
                    include_sw=run_points,
                    include_e2e=run_points,
                    include_models=run_props,
                    **_matrix_args(args),
                ),
                [job.label for job in _unchecked_netlists(
                    args, include_vc=run_points, include_sw=run_points
                )],
            )

        # A run that also measures the checker (--mutation) proves
        # afresh: it never touches the store.
        if run_mutation:
            result = prove_matrix()
        else:
            result = _memoised(
                args,
                f"verify|{run_points}|{run_props}|{args.quick}|{args.max_cells}",
                prove_matrix,
            )
        findings.extend(_matrix_findings(result, meta, "netlists_proved"))
        unchecked["VER-"] = result["unchecked"]

    mutation_failed = False
    if run_mutation:
        from .verify.mutate import run_mutation_campaign

        report = run_mutation_campaign(
            seed=args.seed, mutants_per_target=args.mutants
        )
        meta["mutation"] = {
            "total": report.total,
            "killed": report.killed,
            "kill_rate": report.kill_rate,
            "min_kill_rate": args.min_kill_rate,
            "survivors": [
                {"target": o.target, "mutant": o.mutant_index,
                 "description": o.description}
                for o in report.survivors
            ],
        }
        print(f"mutation: {report.summary()}", file=sys.stderr)
        for o in report.survivors:
            print(f"note: surviving mutant {o.target}#{o.mutant_index}: "
                  f"{o.description}", file=sys.stderr)
        if report.kill_rate < args.min_kill_rate:
            mutation_failed = True
            print(f"FAIL: mutation kill rate {report.kill_rate:.1%} below "
                  f"the {args.min_kill_rate:.0%} floor", file=sys.stderr)

    status = _gate_on_findings(
        args, findings, meta, _default_baseline(args, "verify-baseline.json"),
        as_json=args.json, title="formal verification findings",
        stale_rules=("VER-",) * (run_points or run_props),
        unchecked=unchecked,
    )
    return 1 if status == 0 and mutation_failed else status


def cmd_report(args) -> int:
    from .obs.telemetry import EmptyTelemetryError, summarize_metrics_dir

    try:
        with _warnings_on_stderr():
            print(summarize_metrics_dir(Path(args.dir), top=args.top))
    except (FileNotFoundError, EmptyTelemetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- arguments, one function per command ------------------------------

def _add_cache_args(p: argparse.ArgumentParser, *, sweep: bool) -> None:
    """``--no-cache`` / ``--cache-path``, spelled alike on every command
    that answers from a store: the sweep result cache (``sweep=True``)
    or the offline result store."""
    if sweep:
        redo, what, default = ("re-simulate", "sweep result cache",
                               "$REPRO_SWEEP_CACHE or "
                               "~/.cache/repro-noc-sweeps.json")
    else:
        redo, what, default = ("recompute", "offline result store",
                               "$REPRO_COST_CACHE or "
                               "~/.cache/repro-noc-alloc-costs.json")
    p.add_argument("--no-cache", action="store_true",
                   help=f"always {redo}; do not touch the {what}")
    p.add_argument("--cache-path", default=None,
                   help=f"{what} file (default: {default})")


def _add_point_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", choices=["mesh", "fbfly"], default="mesh")
    p.add_argument("--vcs-per-class", type=int, default=1, choices=[1, 2, 4])


def _add_quality_args(p: argparse.ArgumentParser) -> None:
    _add_point_args(p)
    p.add_argument("--target", choices=["vc", "switch"], default="switch")
    p.add_argument("--rates", default="0.1,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--samples", type=_positive_int, default=1000)
    _add_cache_args(p, sweep=False)


def _add_cost_args(p: argparse.ArgumentParser) -> None:
    _add_point_args(p)
    p.add_argument("--target", choices=["vc", "switch"], default="vc")
    _add_cache_args(p, sweep=False)


def _add_network_args(p: argparse.ArgumentParser) -> None:
    """What ``simulate`` and ``sweep`` share: one network design point."""
    _add_point_args(p)
    p.add_argument("--sw-alloc", choices=["sep_if", "sep_of", "wf"],
                   default="sep_if")
    p.add_argument("--vc-alloc", choices=["sep_if", "sep_of", "wf"],
                   default="sep_if")
    p.add_argument("--speculation",
                   choices=["nonspec", "pessimistic", "conventional"],
                   default="pessimistic")
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--hotspots", type=_parse_hotspots, default=None,
                   metavar="T0,T1,...",
                   help="hotspot terminal indices for --pattern "
                        "hotspot (default: terminals 0 and N/2)")
    p.add_argument("--cycles", type=_positive_int, default=2000)
    p.add_argument("--seed", type=int, default=1)


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    _add_network_args(p)
    p.add_argument("--rate", type=float, default=0.2)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    _add_network_args(p)
    p.add_argument("--rates", default="0.05,0.15,0.25,0.35")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: one per usable "
                        "CPU, at most one per uncached point; 1 = "
                        "serial; results are identical either way)")
    _add_cache_args(p, sweep=True)
    p.add_argument("--progress", action="store_true",
                   help="report per-point progress on stderr")
    p.add_argument("--metrics", default=None, metavar="DIR",
                   help="collect per-router metrics + sweep "
                        "telemetry into DIR (metrics.jsonl, "
                        "sweep.jsonl, manifest.json); forces a "
                        "serial, uncached run")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record a flit-lifecycle trace to FILE "
                        "(Chrome trace-event JSON; open in "
                        "Perfetto); forces a serial, uncached run")
    p.add_argument("--sample-every", type=_positive_int, default=100,
                   metavar="N",
                   help="metrics sampling cadence in cycles "
                        "(default: 100)")
    p.add_argument("--faults", default=None, metavar="PLAN",
                   help="inject faults: a JSON FaultPlan file or "
                        "a compact spec like "
                        "'links=0.01,vcs=0.02,drop=0.001,seed=7'")
    p.add_argument("--watchdog", type=int, default=None, metavar="N",
                   help="abort a point after N cycles without "
                        "forward progress (default: off, or "
                        "max(1000, --cycles) when --faults is "
                        "given; 0 disables)")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-point wall-clock limit; a point "
                        "still running is killed and retried "
                        "(implies worker processes)")
    p.add_argument("--retries", type=_nonnegative_int, default=0,
                   metavar="K",
                   help="re-run a crashed/timed-out/failed point "
                        "up to K times before recording a "
                        "failure (default: 0)")
    p.add_argument("--backoff", type=_nonnegative_float, default=1.0,
                   metavar="SECONDS",
                   help="base retry delay, doubled per attempt "
                        "(default: 1.0)")
    p.add_argument("--resume", action="store_true",
                   help="journal completed points to a per-sweep "
                        "checkpoint and recover them after an "
                        "interrupted run")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="checkpoint journal path (implies "
                        "--resume; default: derived from the "
                        "cache path)")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="compute pending points on a 'repro "
                        "serve' job-queue server instead of "
                        "locally (results are bit-identical; "
                        "see docs/DISTRIBUTED.md)")


def _add_serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1; use 0.0.0.0 "
                        "to accept remote workers)")
    p.add_argument("--port", type=_nonnegative_int, default=0,
                   help="TCP port (default: 0 = pick a free port and "
                        "print it)")
    p.add_argument("--state-dir", default=".repro-serve", metavar="DIR",
                   help="server state: sharded result cache, per-sweep "
                        "checkpoint journals, telemetry (default: "
                        ".repro-serve)")
    p.add_argument("--workers", type=_nonnegative_int, default=0,
                   metavar="N",
                   help="also spawn N local 'repro work' processes "
                        "attached to this server (default: 0)")
    p.add_argument("--retries", type=_nonnegative_int, default=1,
                   metavar="K",
                   help="re-queue a point whose worker reported an "
                        "exception up to K times (default: 1)")
    p.add_argument("--backoff", type=_nonnegative_float, default=0.5,
                   metavar="SECONDS",
                   help="base re-queue delay after a reported failure, "
                        "doubled per attempt (default: 0.5)")
    p.add_argument("--lease-timeout", type=_positive_float, default=600.0,
                   metavar="SECONDS",
                   help="re-queue a leased point if no result arrives "
                        "within this budget (default: 600)")
    p.add_argument("--max-requeues", type=_nonnegative_int, default=3,
                   metavar="K",
                   help="give up on a point after K lost leases "
                        "(worker deaths/timeouts; default: 3)")
    p.add_argument("--worker-fn", default=None, metavar="MOD:FN",
                   help="compute function for --workers subprocesses "
                        "(default: the real simulator worker)")


def _add_work_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="server address (printed by 'repro serve')")
    p.add_argument("--worker-fn", default=None, metavar="MOD:FN",
                   help="compute function, as 'pkg.module:callable' "
                        "(default: the real simulator worker)")
    p.add_argument("--max-points", type=_positive_int, default=None,
                   metavar="N",
                   help="exit after computing N points (default: serve "
                        "until the server goes away)")


def _add_faults_args(p: argparse.ArgumentParser) -> None:
    _add_point_args(p)
    p.add_argument("--archs", default="sep_if,sep_of,wf",
                   help="comma list of allocator architectures "
                        "(default: sep_if,sep_of,wf)")
    p.add_argument("--kind", choices=["vcs", "links", "credits"],
                   default="vcs",
                   help="fault axis to scale: stuck VCs, transient link "
                        "faults or dropped credits (default: vcs)")
    p.add_argument("--rates", default="0.0,0.02,0.05,0.1",
                   help="comma list of fault rates (default: "
                        "0.0,0.02,0.05,0.1)")
    p.add_argument("--speculation",
                   choices=["nonspec", "pessimistic", "conventional"],
                   default="pessimistic")
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--cycles", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--iterations", type=_positive_int, default=5,
                   help="binary-search depth per saturation probe "
                        "(default: 5)")
    _add_cache_args(p, sweep=True)


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--counts", default="0,1,2,4,8",
                   help="comma list of faulted-link counts "
                        "(default: 0,1,2,4,8)")
    p.add_argument("--modes", default="default,ft_dor",
                   help="comma list of routing modes to compare "
                        "(default: default,ft_dor)")
    p.add_argument("--rate", type=float, default=0.05,
                   help="injection rate in flits/cycle/terminal "
                        "(default: 0.05 -- well below saturation, so "
                        "lost delivery is attributable to the faults)")
    p.add_argument("--total-vcs", type=int, default=8, choices=[4, 8, 16],
                   help="total VCs per port, held fixed across modes "
                        "(ft_dor spends half on the escape layer; "
                        "default: 8)")
    p.add_argument("--sw-alloc", choices=["sep_if", "sep_of", "wf"],
                   default="sep_if")
    p.add_argument("--vc-alloc", choices=["sep_if", "sep_of", "wf"],
                   default="sep_if")
    p.add_argument("--speculation",
                   choices=["nonspec", "pessimistic", "conventional"],
                   default="pessimistic")
    p.add_argument("--cycles", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1,
                   help="seeds both the traffic and the faulted-link "
                        "selection (default: 1)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: one per usable "
                        "CPU, at most one per uncached point; 1 = "
                        "serial; results are identical either way)")
    _add_cache_args(p, sweep=True)
    p.add_argument("--progress", action="store_true",
                   help="report per-point progress on stderr")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-point wall-clock limit (implies worker "
                        "processes)")
    p.add_argument("--retries", type=_nonnegative_int, default=0,
                   metavar="K",
                   help="re-run a crashed/timed-out point up to K times "
                        "before recording a failure (default: 0)")
    p.add_argument("--backoff", type=_nonnegative_float, default=1.0,
                   metavar="SECONDS",
                   help="base retry delay, doubled per attempt "
                        "(default: 1.0)")
    p.add_argument("--resume", action="store_true",
                   help="journal completed points to a checkpoint and "
                        "recover them after an interrupted run")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="checkpoint journal path (implies --resume)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the repro/resilience/v1 JSON artifact "
                        "to FILE (render it with `repro perf report "
                        "--resilience FILE`)")
    p.add_argument("--require-full-delivery", type=_nonnegative_int,
                   default=None, metavar="K",
                   help="exit nonzero unless ft_dor delivers every "
                        "offered packet (no degraded-mode trip) for "
                        "every point with at most K faulted links "
                        "(the CI resilience gate)")


def _add_lint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--netlists", action="store_true",
                   help="run the gate-level DRC over every paper design "
                        "point (default: netlists + source)")
    p.add_argument("--source", action="store_true",
                   help="run the repo-invariant AST linter over src/repro "
                        "and the rendered compiled-kernel templates")
    p.add_argument("--ratchet", nargs="?", const="HEAD", default=None,
                   metavar="BASE_REF",
                   help="fail if the baseline gained suppressions vs its "
                        "committed version at BASE_REF (default when the "
                        "flag is bare: HEAD)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="suppression file for accepted findings (default: "
                        "lint-baseline.json in the working directory, if "
                        "present)")
    p.add_argument("--write-baseline", default=None, metavar="PATH",
                   help="write the current unsuppressed findings out as a "
                        "new baseline file")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default: text)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--quick", action="store_true",
                   help="DRC the smallest mesh design point only (smoke)")
    p.add_argument("--max-cells", type=_positive_int, default=None,
                   help="synthesis capacity model for the DRC matrix "
                        "(default: the synthesis flow's budget)")
    p.add_argument("--src-root", default=None, metavar="DIR",
                   help="package directory for --source (default: the "
                        "installed repro package)")
    p.add_argument("--progress", action="store_true",
                   help="report per-netlist progress on stderr")
    _add_cache_args(p, sweep=False)


def _add_verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", action="store_true",
                   help="prove every paper design-point netlist against "
                        "the behavioural models (components + end-to-end; "
                        "default: points + properties)")
    p.add_argument("--properties", action="store_true",
                   help="check the model-level property layer: oracle "
                        "cross-validation and the round-robin starvation "
                        "bound")
    p.add_argument("--mutation", action="store_true",
                   help="run the mutation self-test of the checker and "
                        "gate on --min-kill-rate")
    p.add_argument("--mutants", type=_positive_int, default=25,
                   metavar="N",
                   help="mutants per target for --mutation (default: 25)")
    p.add_argument("--min-kill-rate", type=float, default=0.95,
                   metavar="R",
                   help="minimum mutation kill rate for --mutation "
                        "(default: 0.95)")
    p.add_argument("--seed", type=int, default=0,
                   help="mutation campaign seed (default: 0)")
    p.add_argument("--quick", action="store_true",
                   help="smallest design point and reduced widths (smoke)")
    p.add_argument("--max-cells", type=_positive_int, default=None,
                   help="synthesis capacity model for the design-point "
                        "matrix (default: the synthesis flow's budget)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="suppression file for accepted findings (default: "
                        "verify-baseline.json in the working directory, "
                        "if present)")
    p.add_argument("--write-baseline", default=None, metavar="PATH",
                   help="write the current unsuppressed findings out as "
                        "a new baseline file")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report (the CI "
                        "artifact format)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--progress", action="store_true",
                   help="report per-stage progress on stderr")
    _add_cache_args(p, sweep=False)


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dir", help="directory written by `repro sweep --metrics`")
    p.add_argument("--top", type=int, default=5,
                   help="number of stall-source routers to show")


def _add_perf_args(p: argparse.ArgumentParser) -> None:
    perf_sub = p.add_subparsers(dest="perf_command", required=True)
    pr = perf_sub.add_parser(
        "report",
        help="render a self-contained HTML performance dashboard from "
             "a benchmark result file, sweep telemetry and a resilience "
             "artifact")
    pr.add_argument("--bench", default="bench/out/result.json", metavar="FILE",
                    help="result file of `python3 bench/run.py` to render "
                         "(default: bench/out/result.json; missing file is "
                         "skipped)")
    pr.add_argument("--metrics", default=None, metavar="DIR",
                    help="sweep telemetry directory to render (optional)")
    pr.add_argument("--resilience", default=None, metavar="FILE",
                    help="resilience artifact (`repro resilience "
                         "--output`) to render as a degradation panel "
                         "(optional)")
    pr.add_argument("--output", default="perf_report.html", metavar="FILE",
                    help="output HTML path (default: perf_report.html)")


def _no_args(p: argparse.ArgumentParser) -> None:
    pass


class Command(NamedTuple):
    """One ``repro <name>`` subcommand."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    #: ``args -> exit status``; imports its subsystem when called.
    handler: Callable[[argparse.Namespace], int]


#: Every subcommand, in ``repro --help`` order.
COMMANDS: Dict[str, Command] = {
    "figures": Command(
        "list every reproducible figure", _no_args, cmd_figures),
    "transitions": Command(
        "VC transition matrix (Fig 4)", _add_point_args, cmd_transitions),
    "quality": Command(
        "matching quality (Figs 7/12)", _add_quality_args, cmd_quality),
    "cost": Command(
        "synthesis cost (Figs 5/6/10/11)", _add_cost_args, cmd_cost),
    "simulate": Command(
        "one network simulation point", _add_simulate_args, cmd_simulate),
    "sweep": Command(
        "latency vs load (Figs 13/14)", _add_sweep_args, cmd_sweep),
    "serve": Command(
        "distributed sweep job-queue server (docs/DISTRIBUTED.md)",
        _add_serve_args, cmd_serve),
    "work": Command(
        "attach a worker to a 'repro serve' server",
        _add_work_args, cmd_work),
    "faults": Command(
        "saturation throughput vs fault rate (robustness extension)",
        _add_faults_args, cmd_faults),
    "resilience": Command(
        "degradation curves vs permanent link faults, with and "
        "without fault-tolerant routing (docs/ROBUSTNESS.md)",
        _add_resilience_args, cmd_resilience),
    "lint": Command(
        "static verification: netlist DRC, source linter, baseline ratchet",
        _add_lint_args, cmd_lint),
    "verify": Command(
        "formal verification: gate/behavioural equivalence proofs, "
        "allocator properties, mutation coverage "
        "(docs/STATIC_ANALYSIS.md)",
        _add_verify_args, cmd_verify),
    "report": Command(
        "summarize a --metrics telemetry directory",
        _add_report_args, cmd_report),
    "perf": Command(
        "performance observatory (docs/PERFORMANCE.md)",
        _add_perf_args, cmd_perf_report),
}


def _build_parser(names: Container[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser with the arguments of ``names`` attached.

    Every command is registered, so usage lines and the unknown-command
    error always list them all; only a command in ``names`` has its
    arguments built and can be parsed.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Becker & Dally SC'09 allocator study, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name in names:
            command.add_arguments(p)
            p.set_defaults(fn=command.handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand's arguments attached."""
    return _build_parser(COMMANDS)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            # Build the arguments of the one command that will parse;
            # ``--help``, no command and an unknown command end in the
            # top-level parser.
            args = _build_parser(argv[:1]).parse_args(argv)
            return args.fn(args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            # A reader that went away is often only noticed here.
            sys.stdout.flush()
    except BrokenPipeError:
        # ``repro figures | head -2``: no traceback.  Point stdout at
        # devnull so the interpreter's exit flush stays quiet, and
        # leave with the shell's status for death by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
