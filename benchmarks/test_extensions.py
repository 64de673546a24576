"""Extension experiments beyond the paper (DESIGN.md section 6).

* **Rotated wavefront rescue**: the Hurt et al. implementation makes the
  two flattened-butterfly wavefront VC allocators that failed synthesis
  in the paper feasible -- but their delay still loses badly to the
  separable input-first allocator, independently confirming the paper's
  recommendation for high-VC design points.
* **Lookahead routing**: quantifies the pipeline-stage saving that the
  paper's router assumes (Section 3.2, [Galles 1997]).
* **Torus with dateline VCs**: sparse VC allocation on the Section 4.2
  textbook example (4 totally ordered resource classes).
"""

import pytest

from conftest import SIM_WINDOWS, save_result
from repro.core import VCPartition
from repro.eval.tables import format_table
from repro.hw import SynthesisCapacityError, synthesize_vc_allocator
from repro.netsim.routing.torus import TorusDatelineRouting
from repro.netsim.simulator import SimulationConfig, run_simulation


def test_extension_rotated_wavefront_rescues_failed_points():
    rows = []
    for C in (2, 4):
        part = VCPartition.fbfly(C)
        with pytest.raises(SynthesisCapacityError):
            synthesize_vc_allocator(10, part, "wf", "rr", True)
        rot = synthesize_vc_allocator(
            10, part, "wf", "rr", True, wavefront_impl="rotated"
        )
        sep = synthesize_vc_allocator(10, part, "sep_if", "rr", True)
        rows.append(
            [f"fbfly 2x2x{C}", f"{rot.delay_ns:.2f}", f"{rot.area_um2:,.0f}",
             f"{sep.delay_ns:.2f}", f"{sep.area_um2:,.0f}"]
        )
    save_result(
        "extension_rotated_wf",
        format_table(
            ["point", "rotated wf delay (ns)", "rotated wf area",
             "sep_if/rr delay (ns)", "sep_if/rr area"],
            rows,
            title="Rotated wavefront rescues the paper's failed synthesis "
            "points -- and still loses on delay",
        ),
    )
    # Feasible now, but >2x slower than separable input-first: the
    # paper's architectural conclusion stands even with the better
    # wavefront implementation.
    for row in rows:
        assert float(row[1]) > 2.0 * float(row[3])


def test_extension_lookahead_routing():
    lat = {}
    for lookahead in (True, False):
        cfg = SimulationConfig(
            topology="mesh",
            vcs_per_class=1,
            injection_rate=0.05,
            lookahead=lookahead,
            **SIM_WINDOWS,
        )
        lat[lookahead] = run_simulation(cfg).avg_latency
    saving = 1 - lat[True] / lat[False]
    save_result(
        "extension_lookahead",
        f"mesh zero-load latency: lookahead {lat[True]:.1f} vs routing stage "
        f"{lat[False]:.1f} cycles ({saving:.0%} saved by lookahead routing)",
    )
    # One cycle per hop: ~15-30% of mesh zero-load latency.
    assert 0.10 < saving < 0.35


def test_extension_torus_dateline():
    part = TorusDatelineRouting.partition(2)
    sparse = synthesize_vc_allocator(5, part, "sep_if", "rr", True)
    dense = synthesize_vc_allocator(5, part, "sep_if", "rr", False)
    cfg = SimulationConfig(
        topology="torus",
        vcs_per_class=1,
        injection_rate=0.2,
        **SIM_WINDOWS,
    )
    res = run_simulation(cfg)
    save_result(
        "extension_torus",
        f"torus dateline partition {part.describe()}: "
        f"{part.num_legal_transitions()}/{part.num_vcs ** 2} legal transitions; "
        f"sep_if/rr VC allocator dense {dense.delay_ns:.2f} ns / "
        f"{dense.area_um2:,.0f} um2 -> sparse {sparse.delay_ns:.2f} ns / "
        f"{sparse.area_um2:,.0f} um2; 8x8 torus at 0.2 flits/cycle: "
        f"{res.avg_latency:.1f} cycles avg latency",
    )
    # Sparse allocation exploits the dateline structure heavily.
    assert sparse.area_um2 < 0.6 * dense.area_um2
    assert not res.saturated
