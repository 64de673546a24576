"""Experiment harness regenerating every table and figure of the paper.

See DESIGN.md for the experiment index; ``benchmarks/`` drives these
entry points, one module per figure.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .cost import (
        CostCache,
        CostResult,
        sparse_savings,
        speculation_delay_savings,
        switch_allocator_costs,
        vc_allocator_costs,
    )
    from .design_points import (
        ALL_POINTS,
        FBFLY_POINTS,
        MESH_POINTS,
        SPECULATION_SCHEMES,
        SWITCH_VARIANTS,
        VC_VARIANTS,
        DesignPoint,
    )
    from .matching import (
        DEFAULT_RATES,
        QualityCurve,
        switch_matching_quality,
        vc_matching_quality,
    )
    from .figures import EXPERIMENTS, Experiment, format_experiment_index, list_experiments
    from .rtl_quality import rtl_switch_matching_quality
    from .runner import (
        ConsoleReporter,
        NullReporter,
        ResultCache,
        SweepReporter,
        SweepStats,
        config_key,
        run_point,
        run_sweep,
    )
    from .netperf import (
        LatencyCurve,
        SweepPoint,
        latency_sweep,
        saturation_throughput,
        zero_load_latency,
    )
    from .tables import format_cost_results, format_curves, format_table

__all__ = [
    "ALL_POINTS",
    "ConsoleReporter",
    "CostCache",
    "CostResult",
    "NullReporter",
    "ResultCache",
    "SweepReporter",
    "SweepStats",
    "config_key",
    "run_point",
    "run_sweep",
    "DEFAULT_RATES",
    "DesignPoint",
    "EXPERIMENTS",
    "Experiment",
    "format_experiment_index",
    "list_experiments",
    "FBFLY_POINTS",
    "LatencyCurve",
    "MESH_POINTS",
    "QualityCurve",
    "SPECULATION_SCHEMES",
    "SWITCH_VARIANTS",
    "SweepPoint",
    "VC_VARIANTS",
    "format_cost_results",
    "rtl_switch_matching_quality",
    "format_curves",
    "format_table",
    "latency_sweep",
    "saturation_throughput",
    "sparse_savings",
    "speculation_delay_savings",
    "switch_allocator_costs",
    "switch_matching_quality",
    "vc_allocator_costs",
    "vc_matching_quality",
    "zero_load_latency",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cost": [
            "CostCache",
            "CostResult",
            "sparse_savings",
            "speculation_delay_savings",
            "switch_allocator_costs",
            "vc_allocator_costs",
        ],
        ".design_points": [
            "ALL_POINTS",
            "FBFLY_POINTS",
            "MESH_POINTS",
            "SPECULATION_SCHEMES",
            "SWITCH_VARIANTS",
            "VC_VARIANTS",
            "DesignPoint",
        ],
        ".matching": [
            "DEFAULT_RATES",
            "QualityCurve",
            "switch_matching_quality",
            "vc_matching_quality",
        ],
        ".figures": [
            "EXPERIMENTS",
            "Experiment",
            "format_experiment_index",
            "list_experiments",
        ],
        ".rtl_quality": ["rtl_switch_matching_quality"],
        ".runner": [
            "ConsoleReporter",
            "NullReporter",
            "ResultCache",
            "SweepReporter",
            "SweepStats",
            "config_key",
            "run_point",
            "run_sweep",
        ],
        ".netperf": [
            "LatencyCurve",
            "SweepPoint",
            "latency_sweep",
            "saturation_throughput",
            "zero_load_latency",
        ],
        ".tables": ["format_cost_results", "format_curves", "format_table"],
    },
)
