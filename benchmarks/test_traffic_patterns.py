"""Traffic-pattern invariance (Section 3.2's robustness remark).

The paper states its conclusions are "largely invariant to traffic
pattern selection".  This benchmark re-runs the headline network-level
comparison -- wavefront vs separable input-first switch allocation on
the VC-rich flattened butterfly -- under non-uniform synthetic patterns
and checks the winner does not flip.
"""

import pytest

from conftest import SIM_WINDOWS, save_result
from repro.eval.netperf import latency_sweep
from repro.eval.tables import format_table
from repro.netsim.simulator import SimulationConfig

PATTERNS = ("uniform", "transpose", "hotspot")
RATES = (0.1, 0.3, 0.45, 0.55)


def _base(pattern, arch):
    return SimulationConfig(
        topology="fbfly",
        vcs_per_class=4,
        sw_alloc_arch=arch,
        traffic_pattern=pattern,
        speculation="pessimistic",
        **SIM_WINDOWS,
    )


def test_pattern_invariance_wf_vs_sep_if():
    table = {}
    for pattern in PATTERNS:
        curves = {
            arch: latency_sweep(_base(pattern, arch), RATES)
            for arch in ("sep_if", "wf")
        }
        # Permutation patterns: compare saturation at a COMMON
        # latency threshold (3x the sep_if zero-load).  Hotspot
        # traffic saturates on the hot terminals' ejection bandwidth
        # -- allocator-independent, with a knife-edge latency knee
        # that makes the latency-crossing metric noisy -- so compare
        # the *accepted throughput* at the highest offered load.
        if pattern == "hotspot":
            table[pattern] = {
                arch: max(p.accepted for p in c.points)
                for arch, c in curves.items()
            }
        else:
            z_ref = curves["sep_if"].zero_load
            table[pattern] = {
                arch: c.saturation_rate(zero_load=z_ref)
                for arch, c in curves.items()
            }
    rows = [
        [pattern, f"{s['sep_if']:.3f}", f"{s['wf']:.3f}",
         f"{s['wf'] / s['sep_if']:.2f}x"]
        for pattern, s in table.items()
    ]
    save_result(
        "traffic_pattern_invariance",
        format_table(
            ["pattern", "sep_if saturation", "wf saturation", "wf advantage"],
            rows,
            title="fbfly 2x2x4, switch allocator saturation by traffic pattern",
        ),
    )
    # The ordering (wf >= sep_if, within noise) holds for every pattern:
    # near-parity on the ejection-bound hotspot (accepted throughput),
    # clear wins on the permutation patterns (saturation rate).
    for pattern, s in table.items():
        assert s["wf"] >= 0.93 * s["sep_if"], (pattern, s)
    assert table["transpose"]["wf"] > 1.05 * table["transpose"]["sep_if"]
