"""Synthesis driver: build, size, and characterize allocator netlists.

Stands in for the paper's Synopsys Design Compiler flow (Section 3.1):
for each design point we build the netlist, run the timing-recovery
sizing pass (minimum cycle time search), and report delay, cell area
and power at an input activity factor of 0.5.

A *capacity model* reproduces the synthesis failures the paper reports:
design points whose estimated or actual cell count exceeds
``max_cells`` raise :class:`SynthesisCapacityError`, mirroring Design
Compiler running out of memory on the un-optimized and large
wavefront/matrix configurations (Sections 4.3.1, 5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.vc_partition import VCPartition
from .area import total_area
from .netlist import Netlist
from .power import analyze_power
from .sizing import recover_timing
from .sw_alloc_gates import (
    build_switch_allocator_netlist,
    estimate_switch_allocator_gates,
)
from .vc_alloc_gates import (
    build_vc_allocator_netlist,
    estimate_vc_allocator_gates,
)

__all__ = [
    "SynthesisCapacityError",
    "SynthesisReport",
    "DEFAULT_MAX_CELLS",
    "synthesize",
    "synthesize_vc_allocator",
    "synthesize_switch_allocator",
]

# Cell budget standing in for Design Compiler's memory limit.  Chosen so
# that the set of feasible design points matches the paper: the larger
# flattened-butterfly wavefront VC allocators and the matrix-arbiter
# variants of the largest configuration fail, round-robin separable
# variants succeed everywhere.
DEFAULT_MAX_CELLS = 500_000


class SynthesisCapacityError(RuntimeError):
    """Raised when a design point exceeds the synthesis capacity model."""

    def __init__(self, name: str, cells: int, budget: int) -> None:
        super().__init__(
            f"synthesis of {name} aborted: ~{cells} cells exceeds the "
            f"capacity budget of {budget} (models Design Compiler "
            "running out of memory)"
        )
        self.design = name
        self.cells = cells
        self.budget = budget


@dataclass
class SynthesisReport:
    """Post-synthesis characterization of one design point."""

    name: str
    delay_ns: float
    area_um2: float
    power_mw: float
    num_cells: int
    num_registers: int
    sizing_improvement: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> str:
        return (
            f"{self.name:55s} {self.delay_ns:7.3f} ns {self.area_um2:12.1f} um2 "
            f"{self.power_mw:8.3f} mW {self.num_cells:8d} cells"
        )


def synthesize(
    nl: Netlist,
    size_iterations: int = 8,
    frequency_ghz: Optional[float] = None,
) -> SynthesisReport:
    """Characterize an already-built netlist (sizing + timing + power).

    One timing pass per sizing round: the report of the final sizes
    gives the delay and power's loads and cycle time.
    """
    sizing = recover_timing(nl, max_iterations=size_iterations)
    timing = sizing.report
    power = analyze_power(nl, frequency_ghz=frequency_ghz, timing=timing)
    return SynthesisReport(
        name=nl.name,
        delay_ns=timing.delay_ns,
        area_um2=total_area(nl),
        power_mw=power.total_mw,
        num_cells=nl.num_gates,
        num_registers=nl.num_registers,
        sizing_improvement=sizing.improvement,
    )


def _check_budget(name: str, estimate: int, max_cells: int) -> None:
    if estimate > max_cells:
        raise SynthesisCapacityError(name, estimate, max_cells)


def synthesize_vc_allocator(
    num_ports: int,
    partition: VCPartition,
    arch: str = "sep_if",
    arbiter: str = "rr",
    sparse: bool = True,
    max_cells: int = DEFAULT_MAX_CELLS,
    size_iterations: int = 8,
    wavefront_impl: str = "replicated",
) -> SynthesisReport:
    """Build + characterize one VC allocator design point.

    Raises :class:`SynthesisCapacityError` when the design exceeds the
    capacity model (checked against a fast estimate before building and
    against the real cell count after).  ``wavefront_impl`` selects the
    replicated (paper) or rotated (Hurt et al.) loop-free wavefront.
    """
    name = (
        f"vc_{arch}/{arbiter} P={num_ports} {partition.describe()} "
        f"{'sparse' if sparse else 'dense'}"
    )
    if arch == "wf" and wavefront_impl != "replicated":
        name += f" ({wavefront_impl})"
    estimate = estimate_vc_allocator_gates(
        num_ports, partition, arch, arbiter, sparse, wavefront_impl
    )
    _check_budget(name, estimate, max_cells)
    nl = build_vc_allocator_netlist(
        num_ports, partition, arch, arbiter, sparse, wavefront_impl
    )
    _check_budget(name, nl.num_gates, max_cells)
    report = synthesize(nl, size_iterations)
    report.meta.update(
        arch=arch,
        arbiter=arbiter,
        sparse=sparse,
        num_ports=num_ports,
        partition=partition.describe(),
        wavefront_impl=wavefront_impl if arch == "wf" else None,
    )
    return report


def synthesize_switch_allocator(
    num_ports: int,
    num_vcs: int,
    arch: str = "sep_if",
    arbiter: str = "rr",
    speculation: str = "nonspec",
    max_cells: int = DEFAULT_MAX_CELLS,
    size_iterations: int = 8,
) -> SynthesisReport:
    """Build + characterize one switch allocator design point."""
    name = f"sw_{arch}/{arbiter} P={num_ports} V={num_vcs} {speculation}"
    estimate = estimate_switch_allocator_gates(
        num_ports, num_vcs, arch, arbiter, speculation
    )
    _check_budget(name, estimate, max_cells)
    nl = build_switch_allocator_netlist(num_ports, num_vcs, arch, arbiter, speculation)
    _check_budget(name, nl.num_gates, max_cells)
    report = synthesize(nl, size_iterations)
    report.meta.update(
        arch=arch,
        arbiter=arbiter,
        speculation=speculation,
        num_ports=num_ports,
        num_vcs=num_vcs,
    )
    return report
