"""Gate-level hardware cost model (the paper's Design Compiler stand-in).

Builds structural netlists for every allocator the paper synthesizes,
then measures critical-path delay (logical-effort static timing), cell
area, and power (probabilistic switching activity), including a
timing-recovery sizing pass and a synthesis capacity model that
reproduces the paper's out-of-memory failures.  See DESIGN.md for the
substitution rationale.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .area import area_by_cell, total_area
    from .cells import CELLS, Cell, cell_by_name
    from .netlist import Netlist
    from .power import PowerReport, analyze_power, signal_probabilities
    from .sizing import SizingResult, recover_timing
    from .synthesis import (
        DEFAULT_MAX_CELLS,
        SynthesisCapacityError,
        SynthesisReport,
        synthesize,
        synthesize_switch_allocator,
        synthesize_vc_allocator,
    )
    from .verilog import to_verilog
    from .timing import (
        TimingReport,
        analyze_timing,
        compute_arrivals,
        compute_loads,
        format_critical_path,
    )

__all__ = [
    "CELLS",
    "Cell",
    "DEFAULT_MAX_CELLS",
    "Netlist",
    "PowerReport",
    "SizingResult",
    "SynthesisCapacityError",
    "SynthesisReport",
    "TimingReport",
    "analyze_power",
    "analyze_timing",
    "area_by_cell",
    "cell_by_name",
    "compute_arrivals",
    "compute_loads",
    "format_critical_path",
    "recover_timing",
    "signal_probabilities",
    "synthesize",
    "synthesize_switch_allocator",
    "synthesize_vc_allocator",
    "to_verilog",
    "total_area",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".area": ["area_by_cell", "total_area"],
        ".cells": ["CELLS", "Cell", "cell_by_name"],
        ".netlist": ["Netlist"],
        ".power": ["PowerReport", "analyze_power", "signal_probabilities"],
        ".sizing": ["SizingResult", "recover_timing"],
        ".synthesis": [
            "DEFAULT_MAX_CELLS",
            "SynthesisCapacityError",
            "SynthesisReport",
            "synthesize",
            "synthesize_switch_allocator",
            "synthesize_vc_allocator",
        ],
        ".verilog": ["to_verilog"],
        ".timing": [
            "TimingReport",
            "analyze_timing",
            "compute_arrivals",
            "compute_loads",
            "format_critical_path",
        ],
    },
)
