"""Power estimation via probabilistic switching-activity propagation.

Signal probabilities are propagated through the combinational logic
under the usual spatial-independence assumption; register outputs are
solved by fixed-point iteration (state feedback converges quickly for
the arbiter-style state machines in this repo).  The toggle activity of
a net with one-probability ``P`` is ``alpha = 2 * P * (1 - P)`` under
temporal independence, which reproduces the paper's "default activity
factor of 0.5" for primary inputs (``P = 0.5``).

Dynamic power per net is ``0.5 * alpha * C * Vdd^2 * f`` evaluated at
the design's own minimum cycle time unless a frequency is given;
leakage is summed per cell instance, scaled by drive size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .cells import CELL_INDEX, CELLS, VDD
from .netlist import KIND_CONST0, KIND_CONST1, KIND_INPUT, Netlist
from .timing import TimingReport, analyze_timing, compute_loads, zeros

__all__ = ["PowerReport", "signal_probabilities", "analyze_power"]

_DFF = CELL_INDEX["DFF"]
_INV = CELL_INDEX["INV"]
_BUF = CELL_INDEX["BUF"]
_NAND2 = CELL_INDEX["NAND2"]
_NOR2 = CELL_INDEX["NOR2"]
_AND = {CELL_INDEX["AND2"], CELL_INDEX["AND3"], CELL_INDEX["AND4"]}
_OR = {CELL_INDEX["OR2"], CELL_INDEX["OR3"], CELL_INDEX["OR4"]}
_XOR2 = CELL_INDEX["XOR2"]
_MUX2 = CELL_INDEX["MUX2"]


def signal_probabilities(
    nl: Netlist,
    input_probability: float = 0.5,
    max_iterations: int = 8,
    tolerance: float = 1e-4,
) -> array[float]:
    """One-probability of each net under independence assumptions."""
    n = nl.num_nets
    probs = zeros(n)
    kinds = nl.kinds
    fanins = nl.fanins

    # Register outputs start at 0.5 and are iterated to a fixed point.
    for nid, k in enumerate(kinds):
        if k == KIND_INPUT:
            probs[nid] = input_probability
        elif k == KIND_CONST1:
            probs[nid] = 1.0
        elif k == _DFF:
            probs[nid] = 0.5

    for _ in range(max_iterations):
        worst_change = 0.0
        for nid in range(n):
            k = kinds[nid]
            if k < 0 or k == _DFF:
                continue
            f = fanins[nid]
            if k == _INV:
                p = 1.0 - probs[f[0]]
            elif k == _BUF:
                p = probs[f[0]]
            elif k in _AND:
                p = 1.0
                for x in f:
                    p *= probs[x]
            elif k in _OR:
                q = 1.0
                for x in f:
                    q *= 1.0 - probs[x]
                p = 1.0 - q
            elif k == _NAND2:
                p = 1.0 - probs[f[0]] * probs[f[1]]
            elif k == _NOR2:
                p = (1.0 - probs[f[0]]) * (1.0 - probs[f[1]])
            elif k == _XOR2:
                a, b = probs[f[0]], probs[f[1]]
                p = a * (1.0 - b) + b * (1.0 - a)
            elif k == _MUX2:
                d0, d1, s = probs[f[0]], probs[f[1]], probs[f[2]]
                p = d0 * (1.0 - s) + d1 * s
            else:  # pragma: no cover - new cells must be added here
                raise NotImplementedError(f"probability model for {CELLS[k].name}")
            probs[nid] = p

        # Update register outputs from their D nets.
        for q, d in nl.reg_d.items():
            change = abs(probs[q] - probs[d])
            if change > worst_change:
                worst_change = change
            probs[q] = probs[d]
        if worst_change < tolerance:
            break
    return probs


@dataclass
class PowerReport:
    """Result of :func:`analyze_power` (all powers in mW)."""

    dynamic_mw: float
    leakage_mw: float
    frequency_ghz: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw


def analyze_power(
    nl: Netlist,
    frequency_ghz: Optional[float] = None,
    input_probability: float = 0.5,
    timing: Optional[TimingReport] = None,
) -> PowerReport:
    """Dynamic + leakage power.

    If ``frequency_ghz`` is omitted the design is assumed to run at its
    own minimum cycle time (as a synthesis report would).  ``timing`` is
    a report of the netlist as it stands (``recover_timing`` returns
    one): its loads and cycle time are used instead of re-timing.
    """
    if frequency_ghz is None:
        if timing is None:
            timing = analyze_timing(nl)
        frequency_ghz = timing.min_cycle_ghz
    probs = signal_probabilities(nl, input_probability)
    loads = compute_loads(nl) if timing is None else timing.loads

    # Dynamic: 0.5 * alpha * C * V^2 * f per net.
    # fF * V^2 * GHz = 1e-15 F * 1e9 Hz * V^2 = 1e-6 W = 1e-3 mW.
    dyn = 0.0
    kinds = nl.kinds
    for nid in range(nl.num_nets):
        if kinds[nid] == KIND_CONST0 or kinds[nid] == KIND_CONST1:
            continue
        p = probs[nid]
        alpha = 2.0 * p * (1.0 - p)
        dyn += alpha * loads[nid]
    dynamic_mw = 0.5 * dyn * VDD * VDD * frequency_ghz * 1e-3

    # Clock tree power for registers: each DFF clock pin toggles every
    # cycle (alpha = 1) with a pin cap comparable to its D pin.
    clk_cap = sum(
        CELLS[_DFF].input_cap_ff * nl.sizes[nid]
        for nid, k in enumerate(kinds)
        if k == _DFF
    )
    dynamic_mw += 0.5 * 2.0 * clk_cap * VDD * VDD * frequency_ghz * 1e-3

    leak_nw = 0.0
    leaks = [c.leakage_nw for c in CELLS]
    for nid, k in enumerate(kinds):
        if k >= 0:
            leak_nw += leaks[k] * nl.sizes[nid]
    return PowerReport(dynamic_mw, leak_nw * 1e-6, frequency_ghz)
