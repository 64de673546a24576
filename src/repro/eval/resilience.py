"""Resilience evaluation campaign: degradation curves vs link faults.

The campaign answers the robustness question the fault-aware routing
work (:mod:`repro.netsim.routing.ft`) exists to answer: *how does the
network degrade as permanent links die, with and without fault-tolerant
routing?*  For each fault count ``k`` it kills the same ``k`` links
under every routing mode (nested fault sets: the ``k``-fault set is a
prefix of the ``k+1``-fault set, so curves are comparable point to
point) and runs one simulation per (mode, k) through the ordinary sweep
machinery -- cache, checkpoint and structured failure handling all
apply.

The artifact (schema ``repro/resilience/v1``) records, per mode, the
delivered fraction, sustained throughput and tail latency as functions
of the number of faulted links.  ``scripts/validate_telemetry.py``
checks the shape; ``repro perf report --resilience`` renders it as a
dashboard panel.

Total VC count is held fixed across modes: fault-tolerant mesh routing
spends one resource class on the escape layer (R = 2), so with
``total_vcs`` V the ft mode runs V/4 VCs per class against the default
mode's V/2 -- an honest comparison charges the escape VCs to the ft
scheme rather than giving it extra buffering.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultPlan, LinkFault
from ..netsim.config import SimulationConfig, SimulationResult, validate_config
from ..netsim.rng import PCG64Stream
from ..netsim.topology import describe, mesh_description
from .runner import ResultCache, SweepReporter, run_sweep
from .tables import format_curves

__all__ = [
    "RESILIENCE_SCHEMA",
    "RESILIENCE_MODES",
    "mesh_link_candidates",
    "select_faulted_links",
    "link_fault_plan",
    "campaign_configs",
    "run_resilience_campaign",
    "format_resilience",
    "full_delivery_violations",
    "write_resilience_artifact",
    "load_resilience_artifact",
]

RESILIENCE_SCHEMA = "repro/resilience/v1"

# Routing modes the campaign compares, in presentation order.
RESILIENCE_MODES: Tuple[str, ...] = ("default", "ft_dor")

# Per-point fields copied from the simulation result into the artifact.
_POINT_METRICS = (
    "avg_latency",
    "accepted_flit_rate",
    "injected_flit_rate",
    "measured_packets",
    "packets_lost",
)


def mesh_link_candidates(k: int = 8) -> List[Tuple[int, int]]:
    """Every directed inter-router link of a ``k x k`` mesh as
    ``(router, output port)`` pairs, in ``(router, port)`` order.

    Ejection (terminal) ports are excluded: killing an ejection port
    partitions its terminal from the whole network, which no routing
    scheme can route around -- the campaign studies *fabric* faults.
    """
    return mesh_description(k).directed_links()


def select_faulted_links(
    count: int, seed: int, k: int = 8
) -> List[Tuple[int, int]]:
    """The first ``count`` links of a seeded permutation of the mesh's
    directed links.

    One permutation per seed means fault sets nest across counts: the
    3-fault set is the 2-fault set plus one more link, so degradation
    curves measure the marginal cost of each additional fault rather
    than jumping between unrelated fault patterns.
    """
    candidates = mesh_link_candidates(k)
    if count < 0 or count > len(candidates):
        raise ValueError(
            f"fault count must be in [0, {len(candidates)}], got {count}"
        )
    # Decorrelated from the simulation RNG (which is seeded by the bare
    # integer) via a fixed stream tag in the seed sequence.
    order = PCG64Stream([seed, 0x5E51]).permutation(len(candidates))
    return [candidates[i] for i in order[:count]]


def link_fault_plan(
    count: int, seed: int, k: int = 8
) -> Optional[FaultPlan]:
    """A :class:`FaultPlan` killing ``count`` links permanently from
    cycle 0 (``None`` for a fault-free baseline point)."""
    if count == 0:
        return None
    return FaultPlan(
        link_faults=tuple(
            LinkFault(router, port, 0, None)
            for router, port in select_faulted_links(count, seed, k)
        )
    )


def _vcs_per_class(mode: str, total_vcs: int) -> int:
    """VCs per class holding the *total* VC budget fixed across modes.

    The default mesh partition has 2 message classes x 1 resource class
    (V = 2C); fault-tolerant DOR adds an escape resource class
    (V = 4C).  Keeping V constant charges the ft scheme for its escape
    buffering.
    """
    classes = describe("mesh").mode(mode).partition(1).num_vcs
    if total_vcs % classes or total_vcs // classes not in (1, 2, 4):
        raise ValueError(
            f"total_vcs={total_vcs} does not divide into {classes} "
            f"classes for mode {mode!r} (vcs_per_class must be 1, 2 or 4)"
        )
    return total_vcs // classes


def campaign_configs(
    fault_counts: Sequence[int],
    modes: Sequence[str] = RESILIENCE_MODES,
    injection_rate: float = 0.05,
    total_vcs: int = 8,
    sw_alloc_arch: str = "sep_if",
    vc_alloc_arch: str = "sep_if",
    speculation: str = "pessimistic",
    cycles: int = 1000,
    seed: int = 1,
) -> List[Tuple[str, int, SimulationConfig]]:
    """One config per (mode, fault count), flattened mode-major.

    The fault plan for a given count is identical across modes -- only
    the routing (and the VC partition it implies) differs.
    """
    for mode in modes:
        if mode not in RESILIENCE_MODES:
            raise ValueError(
                f"unknown resilience mode {mode!r}; "
                f"expected one of {', '.join(RESILIENCE_MODES)}"
            )
    out: List[Tuple[str, int, SimulationConfig]] = []
    for mode in modes:
        base = SimulationConfig(
            topology="mesh",
            vcs_per_class=_vcs_per_class(mode, total_vcs),
            injection_rate=injection_rate,
            sw_alloc_arch=sw_alloc_arch,
            vc_alloc_arch=vc_alloc_arch,
            speculation=speculation,
            routing=mode,
            warmup_cycles=cycles // 3,
            measure_cycles=cycles,
            drain_cycles=cycles,
            seed=seed,
            # Faulted fabrics can wedge (a partition without ft
            # routing); the watchdog converts that into a degraded
            # completion instead of burning every configured cycle.
            watchdog_cycles=max(1000, cycles),
        )
        validate_config(base)
        for count in fault_counts:
            cfg = replace(base, faults=link_fault_plan(count, seed))
            out.append((mode, count, cfg))
    return out


def _point_record(
    count: int, result: Optional[SimulationResult]
) -> Dict[str, object]:
    """One artifact curve point from one simulation result (``None`` =
    the point failed after retries and was recorded, not raised)."""
    if result is None:
        return {"link_faults": count, "failed": True}
    point: Dict[str, object] = {
        "link_faults": count,
        "failed": False,
        "delivered_fraction": result.delivered_fraction,
        "degraded_mode": result.degraded_mode,
    }
    for name in _POINT_METRICS:
        point[name] = getattr(result, name)
    if result.latency_summary is not None:
        point["p99"] = result.latency_summary.p99
    counters = result.fault_counters
    point["escape_reroutes"] = counters.get("escape_reroutes", 0)
    point["packets_unroutable"] = counters.get("packets_unroutable", 0)
    point["watchdog_degraded_trips"] = counters.get(
        "watchdog_degraded_trips", 0
    )
    return point


def run_resilience_campaign(
    fault_counts: Sequence[int],
    modes: Sequence[str] = RESILIENCE_MODES,
    injection_rate: float = 0.05,
    total_vcs: int = 8,
    sw_alloc_arch: str = "sep_if",
    vc_alloc_arch: str = "sep_if",
    speculation: str = "pessimistic",
    cycles: int = 1000,
    seed: int = 1,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    reporter: Optional[SweepReporter] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 1.0,
    checkpoint=None,
) -> Dict[str, object]:
    """Run the campaign and return the ``repro/resilience/v1`` artifact.

    Every (mode, fault count) point goes through :func:`run_sweep` with
    ``on_failure="record"``: a crashed or timed-out point becomes a
    ``{"failed": true}`` curve entry instead of aborting the campaign.
    """
    plan = campaign_configs(
        fault_counts,
        modes=modes,
        injection_rate=injection_rate,
        total_vcs=total_vcs,
        sw_alloc_arch=sw_alloc_arch,
        vc_alloc_arch=vc_alloc_arch,
        speculation=speculation,
        cycles=cycles,
        seed=seed,
    )
    results = run_sweep(
        [cfg for _, _, cfg in plan],
        jobs=jobs,
        cache=cache,
        reporter=reporter,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        on_failure="record",
        checkpoint=checkpoint,
    )
    curves: Dict[str, List[Dict[str, object]]] = {m: [] for m in modes}
    for (mode, count, _), result in zip(plan, results):
        curves[mode].append(_point_record(count, result))
    return {
        "schema": RESILIENCE_SCHEMA,
        "topology": "mesh",
        "total_vcs": total_vcs,
        "injection_rate": injection_rate,
        "sw_alloc_arch": sw_alloc_arch,
        "vc_alloc_arch": vc_alloc_arch,
        "speculation": speculation,
        "cycles": cycles,
        "seed": seed,
        "fault_counts": list(fault_counts),
        "faulted_links": {
            str(count): [list(link)
                         for link in select_faulted_links(count, seed)]
            for count in fault_counts
            if count
        },
        "curves": curves,
    }


def format_resilience(artifact: Dict[str, object]) -> str:
    """Text degradation table: one delivered-fraction / p99 column pair
    per routing mode, one row per fault count."""
    counts = artifact["fault_counts"]
    series: Dict[str, List[object]] = {}
    for mode, points in artifact["curves"].items():
        by_count = {p["link_faults"]: p for p in points}
        series[f"{mode} delivered"] = [
            None if (p := by_count.get(c)) is None or p.get("failed")
            else p["delivered_fraction"]
            for c in counts
        ]
        series[f"{mode} p99"] = [
            None if (p := by_count.get(c)) is None or p.get("failed")
            else p.get("p99")
            for c in counts
        ]
    title = (
        f"resilience: mesh V={artifact['total_vcs']} "
        f"{artifact['sw_alloc_arch']}/{artifact['speculation']} "
        f"rate={artifact['injection_rate']:g}"
    )
    return format_curves("faults", list(counts), series, title=title)


def full_delivery_violations(
    artifact: Dict[str, object], max_faults: int, mode: str = "ft_dor"
) -> List[str]:
    """Human-readable violations of the fault-tolerance guarantee:
    ``mode`` must deliver every offered packet, without a degraded-mode
    trip, for every point with at most ``max_faults`` faulted links.

    Empty list = guarantee holds (the CI resilience gate).
    """
    points = artifact["curves"].get(mode)
    if points is None:
        return [f"mode {mode!r} missing from the artifact"]
    problems: List[str] = []
    for point in points:
        count = point["link_faults"]
        if count > max_faults:
            continue
        if point.get("failed"):
            problems.append(f"{mode} k={count}: point failed to simulate")
            continue
        if point["delivered_fraction"] != 1.0:
            problems.append(
                f"{mode} k={count}: delivered fraction "
                f"{point['delivered_fraction']:.6f} != 1.0"
            )
        if point["degraded_mode"]:
            problems.append(f"{mode} k={count}: watchdog tripped "
                            f"(degraded mode)")
    return problems


def write_resilience_artifact(
    artifact: Dict[str, object], path: Path
) -> None:
    """Write the artifact as stable-keyed JSON (newline-terminated)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def load_resilience_artifact(path: Path) -> Dict[str, object]:
    """Read an artifact back, checking the schema marker."""
    artifact = json.loads(Path(path).read_text())
    schema = artifact.get("schema") if isinstance(artifact, dict) else None
    if schema != RESILIENCE_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {RESILIENCE_SCHEMA!r}, got {schema!r}"
        )
    return artifact
