"""Simulation driver: warm-up/measurement phases and statistics.

Measures average packet latency (packet creation to tail ejection) as a
function of offered load, following the open-loop methodology of
Section 3.2: terminals keep generating according to the configured rate
regardless of network state, latency is averaged over packets *born*
during the measurement window, and the run is flagged saturated when
source backlogs grow without bound or latency exceeds a cap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from ..faults.plan import FaultPlan
from ..faults.watchdog import Watchdog, WatchdogError
from .flit import Packet
from .kernels import DEFAULT_KERNEL

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver
    from .codegen import KernelSpec
from .network import Network
from .stats import LatencySummary, batch_means, summarize_latencies
from .topology import assemble, describe

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

# Revision salt for on-disk result caches (see ``repro.eval.runner``).
# Bump whenever a change alters the *numbers* a simulation produces for
# an unchanged SimulationConfig (pipeline timing, RNG draw order,
# saturation heuristics, ...), so stale cached sweeps are invalidated.
# rev 2: speculative switch allocation no longer advances arbiter
# priority state for masked (discarded) speculative grants, and the
# wavefront priority diagonal holds on request-free cycles -- both
# change allocation outcomes under contention.
# rev 3: fault-present runs changed -- the watchdog defers stall
# verdicts that overlap transient link-fault windows, permanent-fault
# watchdog trips complete in degraded mode instead of aborting, and
# fault-aware routing drops unroutable offered packets at injection
# (shifting the packet-id stream).  Fault-free runs are bit-identical
# to rev 2.
SIMULATOR_REV = 3

# Average flits per transaction (request + its reply): read = 1 + 5,
# write = 5 + 1, so 6 either way; each transaction injects at two
# terminals, hence offered flit load per terminal = 6 * packet_rate for
# a 50/50 read/write mix under uniform traffic.
FLITS_PER_TRANSACTION = 6.0


@dataclass
class SimulationConfig:
    """One network-simulation design point."""

    topology: str = "mesh"  # "mesh" | "fbfly" | "torus"
    vcs_per_class: int = 1  # C; V = M*R*C
    injection_rate: float = 0.1  # offered load, flits/cycle/terminal
    vc_alloc_arch: str = "sep_if"
    vc_alloc_arbiter: str = "rr"
    sw_alloc_arch: str = "sep_if"
    sw_alloc_arbiter: str = "rr"
    speculation: str = "pessimistic"
    buffer_depth: int = 8
    seed: int = 1
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    drain_cycles: int = 4000
    latency_cap: float = 400.0
    read_fraction: float = 0.5
    # "uniform", "transpose", "bit_complement", "bit_reverse",
    # "shuffle", "neighbor" or "hotspot" (see repro.netsim.patterns).
    traffic_pattern: str = "uniform"
    # Lookahead routing (paper default).  False adds a routing pipeline
    # stage for head flits (ablation baseline).
    lookahead: bool = True
    # Routing mode.  "default" is the paper's routing (DOR on mesh,
    # UGAL on fbfly); "ft_dor" (mesh) / "ft_ugal" (fbfly) are the
    # fault-aware modes that detour around permanent link faults (see
    # repro.netsim.routing.ft).  Omitted from the serialized form at
    # the default, so pre-existing cache keys are unchanged.
    routing: str = "default"
    # Fault injection (repro.faults); None is the fault-free fast path
    # and serializes exactly as pre-fault configs did, so existing
    # caches and goldens stay valid.
    faults: Optional[FaultPlan] = None
    # Livelock/deadlock watchdog: abort with a diagnostic snapshot when
    # no flit moves for this many cycles while work is pending.  0
    # disables the watchdog (and is omitted from the serialized form).
    watchdog_cycles: int = 0
    # Hotspot placement for ``traffic_pattern="hotspot"``: the terminal
    # indices that attract the hot traffic fraction.  None keeps the
    # historical ``[0, N // 2]`` placement and is omitted from the
    # serialized form, so pre-existing cache keys are unchanged.
    hotspot_terminals: Optional[List[int]] = None

    @property
    def packet_rate(self) -> float:
        """Request-packet arrival rate per terminal."""
        return self.injection_rate / FLITS_PER_TRANSACTION

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON- and pickle-friendly).

        The fault fields are *omitted* at their disabled defaults so the
        serialized form -- and therefore every cache key derived from it
        -- is byte-identical to what pre-fault builds produced.
        """
        out = asdict(self)
        if self.faults is None:
            del out["faults"]
        else:
            out["faults"] = self.faults.to_dict()
        if self.watchdog_cycles == 0:
            del out["watchdog_cycles"]
        if self.routing == "default":
            del out["routing"]
        if self.hotspot_terminals is None:
            del out["hotspot_terminals"]
        else:
            out["hotspot_terminals"] = list(self.hotspot_terminals)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationConfig":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are ignored so caches written by newer code (with
        extra config fields) can still be read where that is safe.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        faults = kwargs.get("faults")
        if faults is not None and not isinstance(faults, FaultPlan):
            kwargs["faults"] = FaultPlan.from_dict(faults)
        return cls(**kwargs)


@dataclass
class SimulationResult:
    """Aggregated statistics from one run."""

    config: SimulationConfig
    avg_latency: float
    measured_packets: int
    delivered_packets: int
    injected_flit_rate: float  # measured flits/cycle/terminal
    accepted_flit_rate: float  # ejected flits/cycle/terminal
    saturated: bool
    misspeculations: int = 0
    speculative_wins: int = 0
    latency_by_class: Dict[int, float] = field(default_factory=dict)
    latency_summary: Optional[LatencySummary] = None
    latency_stderr: float = float("nan")
    # Fault-injection outcomes.  Computed only when the config carries a
    # non-empty FaultPlan; fault-free runs report the defaults, so cache
    # entries written before these fields existed deserialize to the
    # same values a fresh fault-free run produces.
    degraded_throughput: float = 1.0  # accepted/injected flit-rate ratio
    packets_lost: int = 0  # packets stranded in the fabric after drain
    fault_counters: Dict[str, int] = field(default_factory=dict)
    # Fraction of packets *offered* during the measurement window
    # (including injection-side unroutable drops) that were delivered
    # by the end of the drain.
    delivered_fraction: float = 1.0
    # True when a permanent-link-fault watchdog trip ended the run
    # early: statistics cover the cycles completed, and the network is
    # known to be wedged (e.g. partitioned without fault-aware routing).
    degraded_mode: bool = False

    def __str__(self) -> str:
        state = " (saturated)" if self.saturated else ""
        return (
            f"rate={self.config.injection_rate:.3f} -> "
            f"latency={self.avg_latency:.1f} cycles over "
            f"{self.measured_packets} packets{state}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly summary (for logging sweeps to disk)."""
        out = {
            "topology": self.config.topology,
            "vcs_per_class": self.config.vcs_per_class,
            "injection_rate": self.config.injection_rate,
            "sw_alloc_arch": self.config.sw_alloc_arch,
            "vc_alloc_arch": self.config.vc_alloc_arch,
            "speculation": self.config.speculation,
            "seed": self.config.seed,
            "avg_latency": self.avg_latency,
            "latency_stderr": self.latency_stderr,
            "measured_packets": self.measured_packets,
            "injected_flit_rate": self.injected_flit_rate,
            "accepted_flit_rate": self.accepted_flit_rate,
            "saturated": self.saturated,
            "misspeculations": self.misspeculations,
            "speculative_wins": self.speculative_wins,
        }
        if self.latency_summary is not None:
            out["p50"] = self.latency_summary.p50
            out["p95"] = self.latency_summary.p95
            out["p99"] = self.latency_summary.p99
        if self.fault_counters:
            # Present only for fault-injected runs, so fault-free sweep
            # logs keep their exact pre-fault shape.
            out["degraded_throughput"] = self.degraded_throughput
            out["packets_lost"] = self.packets_lost
            out["delivered_fraction"] = self.delivered_fraction
            out["degraded_mode"] = self.degraded_mode
            out["fault_counters"] = dict(self.fault_counters)
        return out

    def to_payload(self) -> Dict[str, Any]:
        """Lossless plain-dict form for caches and worker transport.

        Unlike :meth:`to_dict` (a flat logging summary), this preserves
        every field, including the nested config and latency summary.
        ``latency_by_class`` keys are stringified (JSON object keys must
        be strings); :meth:`from_payload` restores them to ``int``.
        """
        out = asdict(self)
        out["config"] = self.config.to_dict()
        out["latency_by_class"] = {
            str(k): v for k, v in self.latency_by_class.items()
        }
        if self.latency_summary is not None:
            out["latency_summary"] = asdict(self.latency_summary)
        return out

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a full result from :meth:`to_payload` output."""
        data = dict(data)
        data["config"] = SimulationConfig.from_dict(data["config"])
        data["latency_by_class"] = {
            int(k): v for k, v in data.get("latency_by_class", {}).items()
        }
        summary = data.get("latency_summary")
        if summary is not None and not isinstance(summary, LatencySummary):
            data["latency_summary"] = LatencySummary(**summary)
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def topology_num_terminals(topology: str) -> int:
    """Terminal count of the named topology, so traffic patterns (which
    permute terminal indices) can never assume a stale network size."""
    return describe(topology).num_terminals


def _resolve_pattern(
    name: str,
    num_terminals: int,
    hotspots: Optional[List[int]] = None,
):
    from . import patterns

    if name == "uniform":
        return None  # topology builders default to uniform random
    makers = {
        "transpose": patterns.transpose_pattern,
        "bit_complement": patterns.bit_complement_pattern,
        "bit_reverse": patterns.bit_reverse_pattern,
        "shuffle": patterns.shuffle_pattern,
        "neighbor": patterns.neighbor_pattern,
    }
    if name == "hotspot":
        if hotspots is None:
            hotspots = [0, num_terminals // 2]
        bad = [t for t in hotspots if not 0 <= t < num_terminals]
        if bad:
            raise ValueError(
                f"hotspot terminal(s) {bad} out of range for a "
                f"{num_terminals}-terminal network"
            )
        return patterns.hotspot_pattern(list(hotspots))
    try:
        return makers[name](num_terminals)
    except KeyError:
        raise ValueError(f"unknown traffic pattern {name!r}") from None


def validate_config(cfg: SimulationConfig) -> None:
    """Raise the ValueError :func:`build_network` would -- unknown
    topology, routing mode or traffic pattern, hotspot outside the
    terminal range -- without building anything, so a front end can
    reject a bad sweep before its first point runs."""
    desc = describe(cfg.topology)
    desc.mode(cfg.routing)
    _resolve_pattern(cfg.traffic_pattern, desc.num_terminals, cfg.hotspot_terminals)


def build_network(cfg: SimulationConfig, kernel: str = DEFAULT_KERNEL) -> Network:
    """Instantiate the configured topology with traffic attached.

    ``kernel`` selects the routers' allocation implementation, one of
    :data:`repro.netsim.kernels.KERNELS`: ``"compiled"`` (generated per
    design point; the default, :data:`DEFAULT_KERNEL`), ``"fast"`` (the
    hand-written sparse step, which also runs the observed and faulted
    cycles of a compiled network) or ``"reference"`` (the dense
    oracle).  They are bit-identical by contract -- see
    ``tests/perf/test_kernel_equivalence.py`` -- so the choice never
    affects results, only wall-clock speed, and deliberately does NOT
    enter the simulation config (or its cache key).
    """
    desc = describe(cfg.topology)
    return assemble(
        desc,
        cfg.routing,
        dest_fn=_resolve_pattern(
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


def kernel_spec(cfg: SimulationConfig) -> "KernelSpec":
    """The compiled-kernel design point of ``cfg``'s routers, derived
    from the config alone -- equal to ``spec_for_router`` of any router
    ``build_network(cfg)`` constructs, without constructing one."""
    from .codegen import KernelSpec

    desc = describe(cfg.topology)
    partition = desc.mode(cfg.routing).partition(cfg.vcs_per_class)
    return KernelSpec(
        num_ports=desc.num_ports,
        num_message_classes=partition.num_message_classes,
        num_resource_classes=partition.num_resource_classes,
        vcs_per_class=cfg.vcs_per_class,
        vc_arch=cfg.vc_alloc_arch,
        vc_arbiter=cfg.vc_alloc_arbiter,
        sw_arch=cfg.sw_alloc_arch,
        sw_arbiter=cfg.sw_alloc_arbiter,
        scheme=cfg.speculation,
        lookahead=cfg.lookahead,
    )


def prewarm_kernels(configs: Iterable[SimulationConfig]) -> None:
    """Compile the generated kernel of every distinct design point in
    ``configs`` into the process-wide factory cache.

    Called by a parent about to fork one child per point: the children
    inherit the compiled factories instead of each paying codegen on its
    first router.  A config naming an unknown topology or routing mode
    is skipped; its own point reports the error.
    """
    from .codegen import kernel_factory

    specs = set()
    for cfg in configs:
        try:
            specs.add(kernel_spec(cfg))
        except ValueError:
            pass
    for spec in specs:
        kernel_factory(spec)


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
    observer or a fault plan, a compiled network runs those cycles on
    the fast kernel.

    ``profiler`` opts the run into phase-attribution timing
    (:class:`repro.obs.profiling.PhaseProfiler`).  Like the observer it
    never feeds back into simulation state, so profiled runs return
    bit-identical results; ``None`` is the zero-overhead fast path.
    """
    if profiler is not None:
        _pt = profiler.begin()
    net = build_network(cfg, kernel=kernel)
    if observer is not None:
        observer.run_started(cfg)
        net.attach_observer(observer)

    fault_state = None
    if cfg.faults is not None and not cfg.faults.is_empty:
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

    measured: List[Packet] = []
    window_start = cfg.warmup_cycles
    window_end = cfg.warmup_cycles + cfg.measure_cycles

    def on_delivery(pkt: Packet, now: int) -> None:
        if window_start <= pkt.birth_time < window_end:
            measured.append(pkt)

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

    if measured:
        latencies = [p.arrival_time - p.birth_time for p in measured]
        summary = summarize_latencies(latencies)
        avg_latency = summary.mean
        _, stderr = batch_means(
            [(p.birth_time, p.arrival_time - p.birth_time) for p in measured]
        )
        by_class: Dict[int, List[int]] = {}
        for p in measured:
            by_class.setdefault(p.message_class, []).append(
                p.arrival_time - p.birth_time
            )
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
        or (expected_measured > 0 and len(measured) < 0.75 * expected_measured)
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
            len(measured) / born_in_window if born_in_window else 1.0
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
        measured_packets=len(measured),
        delivered_packets=len(measured),
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
    if profiler is not None:
        profiler.direct("stats", _pt)
    return result
