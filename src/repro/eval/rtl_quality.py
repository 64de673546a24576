"""RTL-level open-loop quality measurement (Section 3.1, literally).

The paper measures matching quality by simulating the *RTL* of each
allocator with pseudo-random request matrices.  ``repro.eval.matching``
uses the behavioural models for speed; this module drives the actual
gate-level netlists through :class:`repro.hw.simulate.NetlistSimulator`
instead, closing the loop on the substitution: the cross-validation
tests show gate == behavioural cycle-by-cycle for the switch
allocators, and this harness lets the benchmarks verify the aggregate
quality numbers agree as well.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.maxsize import hopcroft_karp
from ..hw.simulate import NetlistSimulator, reset_state
from ..hw.sw_alloc_gates import build_switch_allocator_netlist
from ..hw.trace import tracing
from ..netsim.rng import PCG64Stream
from .matching import QualityCurve, port_adjacency, random_switch_requests

__all__ = ["rtl_switch_matching_quality"]


def _make_simulator(P: int, V: int, arch: str) -> NetlistSimulator:
    """The switch allocator's netlist at the behavioural models' reset
    state, the one the formal end-to-end checks start from."""
    with tracing() as trace:
        nl = build_switch_allocator_netlist(P, V, arch, "rr", "nonspec")
    sim = NetlistSimulator(nl)
    sim.state = reset_state(nl, trace)
    return sim


def rtl_switch_matching_quality(
    num_ports: int,
    num_vcs: int,
    archs: Sequence[str] = ("sep_if", "sep_of", "wf"),
    rates: Sequence[float] = (0.2, 0.6, 1.0),
    num_samples: int = 1000,
    seed: int = 0,
) -> Dict[str, QualityCurve]:
    """Figure 12 via gate-level simulation of the switch allocators.

    Requests follow the same distribution as
    :func:`repro.eval.matching.switch_matching_quality`; grants are read
    off the netlist's crossbar outputs and normalized against a
    maximum-size matching of the port-level request matrix.
    """
    P, V = num_ports, num_vcs
    curves: Dict[str, QualityCurve] = {}
    for arch in archs:
        sim = _make_simulator(P, V, arch)
        rng = PCG64Stream(seed)
        qualities: List[float] = []
        for rate in rates:
            total = 0
            total_max = 0
            for _ in range(num_samples):
                requests = random_switch_requests(rng, P, V, rate)
                stim: List[int] = []
                for row in requests:
                    for q in row:
                        stim.extend(1 if qq == q else 0 for qq in range(P))
                out = sim.step(stim)
                vals = list(out.values())
                # Outputs interleave per port: P crossbar bits then V
                # VC-grant bits.
                stride = P + V
                for p in range(P):
                    total += sum(vals[p * stride : p * stride + P])
                match = hopcroft_karp(port_adjacency(requests), P)
                total_max += sum(1 for m in match if m != -1)
            qualities.append(total / total_max if total_max else 1.0)
        curves[arch] = QualityCurve(f"rtl:{arch}", list(rates), qualities)
    return curves
