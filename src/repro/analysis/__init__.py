"""Static verification layer: netlist DRC + repo-invariant linter.

Two fronts, both producing :class:`~repro.analysis.findings.Finding`
records that the ``repro lint`` command renders as text or JSON and
gates CI on:

* :mod:`repro.analysis.drc` -- a graph-based design-rule checker over
  :class:`~repro.hw.netlist.Netlist` (combinational loops, floating and
  multiply-driven nets, dead logic, unconnected registers, const-
  foldable gates, fanout violations), run across every allocator
  netlist the paper evaluates (:mod:`repro.analysis.netlists`);
* :mod:`repro.analysis.srclint` -- an AST linter over ``src/repro``
  encoding this repo's contracts (seeded randomness only, no wall-clock
  reads in simulation paths, no set-iteration-order dependence in hot
  loops, observer/fault-state fast-path guards).

Accepted pre-existing findings are suppressed through a baseline file
(:class:`~repro.analysis.findings.Baseline`) so CI only gates on *new*
findings, and the baseline itself is ratcheted
(:mod:`repro.analysis.ratchet`): suppressions may shrink but never
grow.  See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .drc import DrcConfig, NetlistDRC, run_drc
    from .findings import Baseline, Finding, format_findings
    from .netlists import iter_paper_netlists, lint_paper_netlists
    from .ratchet import check_baseline_ratchet
    from .srclint import lint_generated_kernels, lint_source_file, lint_source_tree

__all__ = [
    "Baseline",
    "DrcConfig",
    "Finding",
    "NetlistDRC",
    "check_baseline_ratchet",
    "format_findings",
    "iter_paper_netlists",
    "lint_paper_netlists",
    "lint_source_file",
    "lint_source_tree",
    "lint_generated_kernels",
    "run_drc",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".drc": ["DrcConfig", "NetlistDRC", "run_drc"],
        ".findings": ["Baseline", "Finding", "format_findings"],
        ".netlists": ["iter_paper_netlists", "lint_paper_netlists"],
        ".ratchet": ["check_baseline_ratchet"],
        ".srclint": [
            "lint_generated_kernels",
            "lint_source_file",
            "lint_source_tree",
        ],
    },
)
