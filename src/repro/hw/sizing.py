"""Critical-path gate sizing (synthesis timing recovery).

Design Compiler meets a delay target by, among other things, swapping
cells for higher-drive variants along the critical path.  The paper
relies on this effect to explain why the large wavefront allocators get
*both* slow and big ("synthesis tries to compensate ... by using faster
-- and therefore, larger -- gates").  This pass reproduces the
mechanism: it repeatedly upsizes gates on the current critical path,
which reduces their own stage effort while increasing the load on their
drivers, until no improvement remains or the drive-strength ceiling is
reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cells import CELL_INDEX, MAX_SIZE
from .netlist import Netlist
from .timing import TimingReport, analyze_timing

__all__ = ["SizingResult", "recover_timing"]

_DFF = CELL_INDEX["DFF"]


@dataclass
class SizingResult:
    """Outcome of :func:`recover_timing`."""

    initial_delay_ps: float
    final_delay_ps: float
    iterations: int
    gates_resized: int
    #: Timing of the sizes the pass left in the netlist: the final
    #: report, so the caller need not re-time.
    report: TimingReport = field(repr=False, compare=False)

    @property
    def improvement(self) -> float:
        """Fractional delay reduction achieved."""
        if self.initial_delay_ps == 0:
            return 0.0
        return 1.0 - self.final_delay_ps / self.initial_delay_ps


def recover_timing(
    nl: Netlist,
    max_iterations: int = 6,
    upsize_factor: float = 1.6,
    min_improvement: float = 0.005,
) -> SizingResult:
    """Iteratively upsize critical-path gates in place.

    Each round resizes every combinational gate on the current critical
    path (registers keep unit drive) by ``upsize_factor`` up to
    ``MAX_SIZE``, then re-times.  Stops early when a round improves the
    critical path by less than ``min_improvement`` or nothing can grow.
    The result carries the timing report of the sizes it leaves.
    """
    report = best_report = analyze_timing(nl)
    initial = report.delay_ps
    best = initial
    # Sizing state of the best netlist seen so far.  Upsizing a
    # critical-path gate also raises the input load it presents to its
    # drivers, so a round can make the overall path *slower*; such a
    # round must be rolled back, not just excluded from the report,
    # or the caller's netlist ends up worse than it started.
    best_sizes = list(nl.sizes)
    resized = 0
    it = 0
    kinds = nl.kinds
    sizes = nl.sizes
    for it in range(1, max_iterations + 1):
        round_resized = 0
        for net in report.critical_path:
            k = kinds[net]
            if k < 0 or k == _DFF:
                continue
            if sizes[net] < MAX_SIZE:
                sizes[net] = min(sizes[net] * upsize_factor, MAX_SIZE)
                round_resized += 1
        if not round_resized:
            break
        report = analyze_timing(nl)
        if report.delay_ps < best:
            resized += round_resized
            improvement = 1.0 - report.delay_ps / best
            best = report.delay_ps
            best_report = report
            best_sizes = list(sizes)
            if improvement < min_improvement:
                break
        else:
            # The round regressed (or went sideways): restore the best
            # sizing and stop searching.
            sizes[:] = best_sizes
            break
    return SizingResult(initial, best, it, resized, best_report)
