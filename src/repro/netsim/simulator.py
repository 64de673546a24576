"""Simulation driver: warm-up/measurement phases and statistics.

Measures average packet latency (packet creation to tail ejection) as a
function of offered load, following the open-loop methodology of
Section 3.2: terminals keep generating according to the configured rate
regardless of network state, latency is averaged over packets *born*
during the measurement window, and the run is flagged saturated when
source backlogs grow without bound or latency exceeds a cap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

# Importing this module loads the machine: everything a point touches
# while it runs, including what the import-light modules only resolve
# inside a function (the allocator core and the terminals' random
# streams behind ``assemble`` and the partition factories, the fault
# runtime behind ``FaultPlan.materialize``).  A parent that imports it
# before forking therefore hands every pool worker a complete
# interpreter (``ProcessPoolScheduler.run``).
from ..faults import state as _fault_state  # noqa: F401
from ..faults.watchdog import Watchdog, WatchdogError
from . import rng as _rng  # noqa: F401
from .config import (
    FLITS_PER_TRANSACTION,
    SIMULATOR_REV,
    SimulationConfig,
    SimulationResult,
    resolve_pattern,
    kernel_spec,
    topology_num_terminals,
    validate_config,
)
from .flit import Packet
from .kernels import DEFAULT_KERNEL
from .network import Network
from .stats import batch_means, summarize_latencies
from .topology import assemble, describe

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "run_simulation_worker",
    "build_network",
    "validate_config",
    "kernel_spec",
    "prewarm_kernels",
    "topology_num_terminals",
    "SIMULATOR_REV",
]


def build_network(cfg: SimulationConfig, kernel: str = DEFAULT_KERNEL) -> Network:
    """Instantiate the configured topology with traffic attached.

    ``kernel`` selects the routers' allocation implementation, one of
    :data:`repro.netsim.kernels.KERNELS`: ``"compiled"`` (generated per
    design point; the default, :data:`DEFAULT_KERNEL`), ``"fast"`` (the
    hook-carrying render of the generated step, bound even with nothing
    attached) or ``"reference"`` (the dense oracle).  They are
    bit-identical by contract -- see
    ``tests/perf/test_kernel_equivalence.py`` -- so the choice never
    affects results, only wall-clock speed, and deliberately does NOT
    enter the simulation config (or its cache key).
    """
    desc = describe(cfg.topology)
    return assemble(
        desc,
        cfg.routing,
        dest_fn=resolve_pattern(
            cfg.traffic_pattern, desc.num_terminals, cfg.hotspot_terminals
        ),
        vcs_per_class=cfg.vcs_per_class,
        packet_rate=cfg.packet_rate,
        seed=cfg.seed,
        vc_alloc_arch=cfg.vc_alloc_arch,
        vc_alloc_arbiter=cfg.vc_alloc_arbiter,
        sw_alloc_arch=cfg.sw_alloc_arch,
        sw_alloc_arbiter=cfg.sw_alloc_arbiter,
        speculation=cfg.speculation,
        buffer_depth=cfg.buffer_depth,
        read_fraction=cfg.read_fraction,
        lookahead=cfg.lookahead,
        kernel=kernel,
    )


def prewarm_kernels(configs: Iterable[SimulationConfig]) -> None:
    """Compile the generated kernel each config's routers will bind into
    the process-wide factory cache, once per distinct render.

    Called by a parent about to fork its pool workers: they inherit the
    compiled factories instead of each paying codegen on its first
    router.  A config whose fault plan attaches a fault state binds the
    hook-carrying render (:meth:`Router._bind_step`), every other one
    the plain render.  A config naming an unknown topology or routing
    mode is skipped; its own point reports the error.  If a fault plan
    draws (a rate > 0), numpy's generator is imported here too.
    """
    from .codegen import kernel_factory

    configs = list(configs)
    renders = set()
    for cfg in configs:
        try:
            spec = kernel_spec(cfg)
        except ValueError:
            continue
        renders.add((spec, _attaches_faults(cfg)))
    for spec, hooked in renders:
        kernel_factory(spec, hooked=hooked)
    if any(cfg.faults is not None and cfg.faults.draws for cfg in configs):
        import numpy.random  # noqa: F401


def _attaches_faults(cfg: SimulationConfig) -> bool:
    """Whether :func:`run_simulation` attaches a fault state for ``cfg``."""
    return cfg.faults is not None and not cfg.faults.is_empty


def run_simulation_worker(cfg_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry point: dict in, dict out.

    Trading plain dicts instead of live objects keeps the pickled
    payload small and decouples the wire format from class identity, so
    parent and worker interpreters never disagree about dataclass
    layout.  Determinism note: each simulation seeds its RNGs purely
    from ``(cfg.seed, terminal_id)``, so a point computed in a worker
    process is bit-identical to the same point computed serially.
    """
    return run_simulation(SimulationConfig.from_dict(cfg_dict)).to_payload()


def run_simulation(
    cfg: SimulationConfig,
    observer: Optional["SimObserver"] = None,
    kernel: str = DEFAULT_KERNEL,
    profiler=None,
) -> SimulationResult:
    """Warm up, measure, drain; return latency/throughput statistics.

    ``observer`` opts the run into the :mod:`repro.obs` instrumentation
    layer (per-router metrics, flit traces).  The observer never feeds
    back into simulation state or RNG draws, so an instrumented run
    returns bit-identical statistics to an uninstrumented one.  The
    parallel sweep path (:func:`run_simulation_worker`) is always
    uninstrumented; instrumented sweeps run inline.

    ``kernel`` selects the allocation implementation (``"compiled"``,
    the default, ``"fast"`` or ``"reference"``); results are
    bit-identical whichever runs (see :func:`build_network`).  With an
    observer or a fault plan, a compiled network runs the hook-carrying
    render of its generated step.

    ``profiler`` opts the run into phase-attribution timing
    (:class:`repro.obs.profiling.PhaseProfiler`).  Like the observer it
    never feeds back into simulation state, so profiled runs return
    bit-identical results; ``None`` is the zero-overhead fast path.

    The network lives exactly as long as this call: it is closed on
    every exit (:meth:`Network.close`), so nothing of a finished point
    stays in memory and ``observer.run_finished`` is the last look at it.
    """
    if profiler is not None:
        _pt = profiler.begin()
    net = build_network(cfg, kernel=kernel)
    try:
        if observer is not None:
            observer.run_started(cfg)
            net.attach_observer(observer)

        fault_state = None
        if _attaches_faults(cfg):
            horizon = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles
            fault_state = cfg.faults.materialize(
                [r.num_ports for r in net.routers],
                net.routers[0].num_vcs,
                horizon,
            )
            net.attach_fault_state(fault_state)
        if profiler is not None:
            net.attach_profiler(profiler)
            profiler.direct("setup", _pt)

        # One entry per packet born in the measurement window, filled at
        # delivery: the packet itself dies with its tail flit.
        births: List[int] = []
        latencies: List[int] = []
        classes: List[int] = []
        window_start = cfg.warmup_cycles
        window_end = cfg.warmup_cycles + cfg.measure_cycles

        def on_delivery(pkt: Packet, now: int) -> None:
            birth = pkt.birth_time
            if window_start <= birth < window_end:
                births.append(birth)
                latencies.append(now - birth)
                classes.append(pkt.message_class)

        net.on_delivery = on_delivery

        born_in_window = 0
        if fault_state is not None:
            # Fault runs additionally count every packet *offered* during
            # the measurement window (including injection-side unroutable
            # drops) so the delivered fraction has an exact denominator.
            def on_birth(birth_time: int) -> None:
                nonlocal born_in_window
                if window_start <= birth_time < window_end:
                    born_in_window += 1

            net.on_birth = on_birth

        if cfg.watchdog_cycles > 0:
            watchdog = Watchdog(net, cfg.watchdog_cycles)

            def run_cycles(n: int) -> None:
                for _ in range(n):
                    net.step()
                    watchdog.poll(net)

        else:
            run_cycles = net.run  # fault-free fast path: unchanged loop

        degraded_mode = False

        def run_phase(n: int) -> None:
            """One simulation phase; a permanent-link-fault watchdog trip
            ends the run in degraded mode instead of propagating.

            A genuinely wedged fabric *without* permanent link faults is a
            simulator bug (livelock/deadlock), so that WatchdogError still
            raises; with permanent faults, a wedge is an expected property
            of the degraded network (e.g. a partition under non-fault-aware
            routing) and the run completes with the statistics gathered so
            far and ``degraded_mode=True``.
            """
            nonlocal degraded_mode
            if degraded_mode:
                return
            try:
                run_cycles(n)
            except WatchdogError:
                if fault_state is None or not fault_state.has_permanent_link_faults:
                    raise
                fault_state.counters["watchdog_degraded_trips"] += 1
                degraded_mode = True

        run_phase(cfg.warmup_cycles)
        inj0 = net.total_injected_flits()
        ej0 = net.total_ejected_flits()
        backlog0 = net.total_backlog()
        run_phase(cfg.measure_cycles)
        inj1 = net.total_injected_flits()
        ej1 = net.total_ejected_flits()
        backlog1 = net.total_backlog()
        run_phase(cfg.drain_cycles)
        if observer is not None:
            observer.run_finished(net, cfg)
        if profiler is not None:
            _pt = profiler.begin()

        n_terms = net.num_terminals
        # A zero-length measurement window (legal, e.g. warmup-only probe
        # runs) has no rate denominator; report zero rather than dividing.
        meas_flit_slots = cfg.measure_cycles * n_terms
        injected_rate = (inj1 - inj0) / meas_flit_slots if meas_flit_slots else 0.0
        accepted_rate = (ej1 - ej0) / meas_flit_slots if meas_flit_slots else 0.0

        if latencies:
            summary = summarize_latencies(latencies)
            avg_latency = summary.mean
            _, stderr = batch_means(list(zip(births, latencies)))
            by_class: Dict[int, List[int]] = {}
            for message_class, latency in zip(classes, latencies):
                by_class.setdefault(message_class, []).append(latency)
            latency_by_class = {
                m: sum(v) / len(v) for m, v in by_class.items()
            }
        else:
            avg_latency = float("inf")
            latency_by_class = {}
            summary = None
            stderr = float("nan")

        # Saturation: unbounded backlog growth or capped/unmeasurable latency.
        backlog_growth = (backlog1 - backlog0) / n_terms
        expected_measured = cfg.packet_rate * cfg.measure_cycles * n_terms * 2
        saturated = (
            avg_latency > cfg.latency_cap
            or backlog_growth > 4.0
            or (expected_measured > 0 and len(latencies) < 0.75 * expected_measured)
        )

        if fault_state is not None:
            degraded_throughput = (
                accepted_rate / injected_rate if injected_rate > 0 else 1.0
            )
            packets_lost = net.stranded_packets()
            fault_state.counters["packets_unroutable"] = sum(
                t.unroutable_packets for t in net.terminals
            )
            delivered_fraction = (
                len(latencies) / born_in_window if born_in_window else 1.0
            )
            fault_counters = fault_state.summary()
        else:
            degraded_throughput = 1.0
            packets_lost = 0
            delivered_fraction = 1.0
            fault_counters = {}

        result = SimulationResult(
            config=cfg,
            avg_latency=avg_latency,
            measured_packets=len(latencies),
            delivered_packets=len(latencies),
            injected_flit_rate=injected_rate,
            accepted_flit_rate=accepted_rate,
            saturated=saturated,
            misspeculations=net.total_misspeculations(),
            speculative_wins=net.total_speculative_wins(),
            latency_by_class=latency_by_class,
            latency_summary=summary,
            latency_stderr=stderr,
            degraded_throughput=degraded_throughput,
            packets_lost=packets_lost,
            fault_counters=fault_counters,
            delivered_fraction=delivered_fraction,
            degraded_mode=degraded_mode,
        )
    finally:
        net.close()
    if profiler is not None:
        profiler.direct("stats", _pt)
    return result
