"""Static timing analysis with the logical-effort delay model.

Per-gate delay is ``d = TAU_PS * (p + g * h)`` where ``h`` is the
electrical effort ``C_load / C_in`` of the driving gate; register Q pins
launch at the DFF clk-to-q parasitic and register D pins (plus primary
outputs) are capture endpoints with a setup allowance.  Because netlist
creation order is a topological order (see :mod:`repro.hw.netlist`),
arrival times are computed in one linear sweep.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .cells import CELLS, TAU_PS, WIRE_CAP_FF
from .netlist import KIND_INPUT, Netlist

__all__ = [
    "TimingReport",
    "compute_loads",
    "compute_arrivals",
    "analyze_timing",
    "format_critical_path",
]

# Register setup allowance, ps.
SETUP_PS = 1.5 * TAU_PS

_DFF_NAME = "DFF"


def zeros(n: int) -> array[float]:
    """``n`` unboxed doubles, all 0.0: a per-net number table.

    A list of floats holds one 24-byte float object per net besides its
    8-byte slot; the values (and so every sum over them) are the same
    IEEE doubles either way.
    """
    return array("d", bytes(8 * n))


def compute_loads(nl: Netlist) -> array[float]:
    """Output load (fF) per net: fanin pin caps plus wire cap per sink."""
    loads = zeros(nl.num_nets)
    kinds = nl.kinds
    sizes = nl.sizes
    cin = [c.input_cap_ff for c in CELLS]
    for nid, fanin in enumerate(nl.fanins):
        k = kinds[nid]
        if k < 0:
            continue
        pin = cin[k] * sizes[nid]
        for f in fanin:
            loads[f] += pin + WIRE_CAP_FF
    dff_cin = CELLS[_dff_ix()].input_cap_ff
    for q, d in nl.reg_d.items():
        loads[d] += dff_cin * sizes[q] + WIRE_CAP_FF
    # Primary outputs drive a nominal downstream load (4x INV).
    inv_cin = CELLS[0].input_cap_ff
    for out in nl.outputs:
        loads[out] += 4.0 * inv_cin
    return loads


def _dff_ix() -> int:
    from .cells import CELL_INDEX

    return CELL_INDEX[_DFF_NAME]


def compute_arrivals(
    nl: Netlist, loads: Optional[Sequence[float]] = None
) -> array[float]:
    """Arrival time (ps) at every net, single topological sweep."""
    if loads is None:
        loads = compute_loads(nl)
    n = nl.num_nets
    arrivals = zeros(n)
    kinds = nl.kinds
    fanins = nl.fanins
    sizes = nl.sizes
    tau = TAU_PS
    dff = _dff_ix()
    # Pre-extract cell params to avoid attribute lookups in the loop.
    g_of = [c.logical_effort for c in CELLS]
    p_of = [c.parasitic for c in CELLS]
    cin_of = [c.input_cap_ff for c in CELLS]

    for nid in range(n):
        k = kinds[nid]
        if k < 0:
            continue  # inputs/constants arrive at 0
        if k == dff:
            # Q launches clk-to-q after the edge.
            arrivals[nid] = tau * p_of[dff]
            continue
        worst = 0.0
        for f in fanins[nid]:
            a = arrivals[f]
            if a > worst:
                worst = a
        h = loads[nid] / (cin_of[k] * sizes[nid])
        arrivals[nid] = worst + tau * (p_of[k] + g_of[k] * h)
    return arrivals


@dataclass
class TimingReport:
    """Result of :func:`analyze_timing`."""

    delay_ps: float  # critical path delay incl. setup
    critical_endpoint: int  # net id of the worst endpoint
    critical_path: Tuple[int, ...]  # nets from a source to the endpoint
    arrivals: array[float]  # ps per net
    loads: array[float]  # fF per net

    @property
    def delay_ns(self) -> float:
        return self.delay_ps / 1000.0

    @property
    def min_cycle_ghz(self) -> float:
        return 1000.0 / self.delay_ps if self.delay_ps > 0 else float("inf")


def analyze_timing(nl: Netlist) -> TimingReport:
    """Critical-path delay over all endpoints (outputs and register Ds)."""
    loads = compute_loads(nl)
    arrivals = compute_arrivals(nl, loads)

    worst = -1.0
    worst_net = -1
    for out in nl.outputs:
        a = arrivals[out] + SETUP_PS
        if a > worst:
            worst, worst_net = a, out
    for _, d in nl.reg_d.items():
        a = arrivals[d] + SETUP_PS
        if a > worst:
            worst, worst_net = a, d
    if worst_net < 0:
        raise ValueError("netlist has no timing endpoints")

    # Backtrack the critical path: repeatedly follow the latest fanin.
    path = [worst_net]
    node = worst_net
    kinds = nl.kinds
    fanins = nl.fanins
    dff = _dff_ix()
    while kinds[node] >= 0 and kinds[node] != dff and fanins[node]:
        node = max(fanins[node], key=arrivals.__getitem__)
        path.append(node)
    path.reverse()
    return TimingReport(worst, worst_net, tuple(path), arrivals, loads)


def format_critical_path(nl: Netlist, report: TimingReport = None) -> str:
    """Human-readable timing report for the critical path.

    One line per path node: net id, cell type (or INPUT/DFF), drive
    size, stage increment and cumulative arrival -- the stage-by-stage
    view a synthesis timing report would give.
    """
    if report is None:
        report = analyze_timing(nl)
    from .cells import CELLS

    lines = [
        f"critical path of {nl.name or 'netlist'}: "
        f"{report.delay_ps / 1000:.3f} ns over {len(report.critical_path)} nodes"
    ]
    prev_arrival = 0.0
    for net in report.critical_path:
        k = nl.kinds[net]
        if k == KIND_INPUT:
            cell = "INPUT"
            size = ""
        elif k < 0:
            cell = "CONST"
            size = ""
        else:
            cell = CELLS[k].name
            size = f" x{nl.sizes[net]:.1f}"
        arrival = report.arrivals[net]
        incr = arrival - prev_arrival
        prev_arrival = arrival
        name = nl.input_names.get(net, "")
        lines.append(
            f"  net {net:>7d}  {cell:<6s}{size:<6s} +{incr:7.1f} ps "
            f"-> {arrival:8.1f} ps  {name}"
        )
    lines.append(f"  (+{SETUP_PS:.1f} ps setup at the endpoint)")
    return "\n".join(lines)
