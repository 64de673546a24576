"""Headline quantitative claims from the abstract and conclusions.

* Sparse VC allocation reduces the VC allocator's delay, area and power
  by up to 41%, 90% and 83% respectively (Sections 4.2/4.3.1).
* The pessimistic speculation mechanism reduces switch allocator delay
  by up to 23% vs the conventional implementation (Section 5.2/5.3.1).
* Network-level performance is largely insensitive to the VC allocator
  choice (Section 4.3.3).

Absolute percentages depend on the cell library; the assertions accept
a band around the paper's numbers (see EXPERIMENTS.md).
"""

from conftest import SIM_WINDOWS, save_result
from repro.eval.cost import sparse_savings, vc_allocator_costs
from repro.eval.design_points import ALL_POINTS
from repro.eval.netperf import latency_sweep
from repro.eval.tables import format_table
from repro.netsim.simulator import SimulationConfig


def test_claim_sparse_vc_allocation_savings(cost_cache):
    best = {"delay": 0.0, "area": 0.0, "power": 0.0}
    rows = []
    for point in ALL_POINTS:
        results = vc_allocator_costs(point, cache=cost_cache)
        for curve, s in sparse_savings(results).items():
            rows.append(
                [point.label, curve, f"{s['delay']:.1%}",
                 f"{s['area']:.1%}", f"{s['power']:.1%}"]
            )
            for k in best:
                best[k] = max(best[k], s[k])
    save_result(
        "claims_sparse_vc",
        format_table(
            ["design point", "variant", "delay saved", "area saved", "power saved"],
            rows,
            title="Sparse VC allocation savings (paper: up to 41% / 90% / 83%)",
        )
        + f"\nmax: delay {best['delay']:.1%}, area {best['area']:.1%}, "
        f"power {best['power']:.1%}",
    )
    # Paper: up to 41% / 90% / 83%.  Same order of magnitude required.
    assert 0.25 < best["delay"] < 0.60
    assert 0.55 < best["area"] < 0.95
    assert 0.50 < best["power"] < 0.95


def test_claim_vc_allocator_choice_does_not_matter_at_network_level():
    """Section 4.3.3: zero-load latency and saturation bandwidth are
    virtually unchanged across VC allocator architectures."""
    rates = (0.05, 0.2, 0.35, 0.45, 0.55)

    curves = {}
    for arch in ("sep_if", "sep_of", "wf"):
        base = SimulationConfig(
            topology="fbfly",
            vcs_per_class=2,
            vc_alloc_arch=arch,
            sw_alloc_arch="sep_if",
            speculation="pessimistic",
            **SIM_WINDOWS,
        )
        curves[arch] = latency_sweep(base, rates)
    zs = {a: c.zero_load for a, c in curves.items()}
    sats = {a: c.saturation_rate() for a, c in curves.items()}
    save_result(
        "claims_vc_alloc_insensitive",
        "VC allocator choice, fbfly 2x2x2: zero-load "
        + ", ".join(f"{a}={z:.1f}" for a, z in zs.items())
        + " | saturation "
        + ", ".join(f"{a}={s:.3f}" for a, s in sats.items()),
    )
    assert max(zs.values()) < 1.05 * min(zs.values())
    assert max(sats.values()) < 1.10 * min(sats.values())
