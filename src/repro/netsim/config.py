"""What a simulation point *is*, apart from the machine that runs it:
:class:`SimulationConfig`, :class:`SimulationResult`, the
``SIMULATOR_REV`` cache salt and the checks on a config that need no
network (:func:`validate_config`, :func:`kernel_spec`).

This is the import-light half of :mod:`repro.netsim.simulator`, which
re-exports every name here.  Cache keys, result caches, run manifests,
the wire protocol and the CLI's input checks import from this module,
so a process that only serves cache hits never loads the router, the
network or the allocator core (see docs/PERFORMANCE.md, "Start-up").
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..allocator_names import (
    ARBITER_KINDS,
    SPECULATION_SCHEMES,
    SWITCH_ALLOCATOR_ARCHS,
    VC_ALLOCATOR_ARCHS,
)
from ..faults.plan import FaultPlan
from .stats import LatencySummary
from .topology import describe

if TYPE_CHECKING:  # pragma: no cover
    from .codegen import KernelSpec

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "validate_config",
    "kernel_spec",
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
# rev 4: ``misspeculations`` and ``speculative_wins`` count the
# measurement window only (they were whole-run totals), and a
# fault-free run ends its drain once every measured packet is
# delivered.  Every other field is unchanged.
SIMULATOR_REV = 4

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
    # An upper bound: a fault-free run ends its drain once every packet
    # born in the measurement window is delivered (``run_simulation``);
    # a run with a fault state always drains in full.
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
    # Speculative switch grants discarded / kept, counted over the
    # measurement window (window-end totals minus window-start totals).
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


def resolve_pattern(
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
    topology, routing mode, traffic pattern, allocator, arbiter or
    speculation scheme, hotspot outside the terminal range, no VC per
    class -- without building anything or loading the allocator core,
    so a front end can reject a bad sweep before its first point runs.

    Also rejects what no run can mean but the simulator would quietly
    turn into a table of zeros, a traceback mid-run or a cache key of
    its own: an integer field holding anything :func:`operator.index`
    refuses (or a ``bool``), a ``lookahead`` that is not a ``bool``, a
    negative phase length or watchdog, a buffer with no slot, a
    negative or infinite offered load, a latency cap that is not
    positive (NaN included; ``inf`` stays legal and means latency never
    flags saturation), a read fraction that is not a probability; and a
    negative seed, which no traffic stream can be seeded with.  (A
    zero-length measurement window stays legal, see
    :func:`run_simulation`.)
    """
    desc = describe(cfg.topology)
    desc.mode(cfg.routing)
    resolve_pattern(cfg.traffic_pattern, desc.num_terminals, cfg.hotspot_terminals)
    for name, legal in (
        ("vc_alloc_arch", VC_ALLOCATOR_ARCHS),
        ("vc_alloc_arbiter", ARBITER_KINDS),
        ("sw_alloc_arch", SWITCH_ALLOCATOR_ARCHS),
        ("sw_alloc_arbiter", ARBITER_KINDS),
        ("speculation", SPECULATION_SCHEMES),
    ):
        value = getattr(cfg, name)
        if value not in legal:
            raise ValueError(
                f"{name} must be one of {', '.join(legal)}, got {value!r}"
            )
    if not isinstance(cfg.lookahead, bool):
        raise ValueError(f"lookahead must be a bool, got {cfg.lookahead!r}")
    for name in ("vcs_per_class", "buffer_depth", "seed", "warmup_cycles",
                 "measure_cycles", "drain_cycles", "watchdog_cycles"):
        value = getattr(cfg, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    for name in ("seed", "warmup_cycles", "measure_cycles", "drain_cycles",
                 "watchdog_cycles", "injection_rate"):
        value = getattr(cfg, name)
        if not value >= 0:  # also catches NaN
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    for name in ("vcs_per_class", "buffer_depth"):
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    if not math.isfinite(cfg.injection_rate):
        raise ValueError(
            f"injection_rate must be finite, got {cfg.injection_rate!r}"
        )
    if not cfg.latency_cap > 0:  # also catches NaN
        raise ValueError(f"latency_cap must be > 0, got {cfg.latency_cap!r}")
    if not 0.0 <= cfg.read_fraction <= 1.0:
        raise ValueError(
            f"read_fraction must be in [0, 1], got {cfg.read_fraction!r}"
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
