"""Figure 14: latency vs injection rate per speculation scheme.

Reproduces the six panels comparing non-speculative (``nonspec``),
conventional speculative (``spec_gnt``) and pessimistic speculative
(``spec_req``) switch allocation with a separable input-first switch
allocator, and asserts the Section 5.3.3 findings:

* speculation improves zero-load latency, more on the mesh (paper: 23%)
  than on the low-diameter flattened butterfly (paper: 14%);
* both speculative schemes are identical at low load;
* the pessimistic scheme gives up at most a few percent of saturation
  throughput vs the conventional scheme (paper: <4%);
* the saturation gain from speculation is largest for few-VC networks.
"""

import pytest

from conftest import SIM_JOBS, SIM_WINDOWS, panel_tag, save_result
from repro.eval.design_points import ALL_POINTS
from repro.eval.netperf import latency_sweep
from repro.eval.tables import format_curves
from repro.netsim.simulator import SimulationConfig

# Paper's scheme names: spec_gnt = conventional, spec_req = pessimistic.
SCHEMES = {"nonspec": "nonspec", "spec_gnt": "conventional", "spec_req": "pessimistic"}

RATE_GRID = {
    ("mesh", 1): (0.05, 0.15, 0.25, 0.32, 0.38),
    ("mesh", 2): (0.05, 0.15, 0.25, 0.35, 0.42),
    ("mesh", 4): (0.05, 0.15, 0.25, 0.35, 0.45),
    ("fbfly", 1): (0.05, 0.2, 0.35, 0.45, 0.55),
    ("fbfly", 2): (0.05, 0.2, 0.4, 0.55, 0.65),
    ("fbfly", 4): (0.05, 0.2, 0.4, 0.55, 0.68),
}


def _base(point, scheme):
    return SimulationConfig(
        topology=point.topology,
        vcs_per_class=point.vcs_per_class,
        sw_alloc_arch="sep_if",
        vc_alloc_arch="sep_if",
        speculation=scheme,
        **SIM_WINDOWS,
    )


@pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.label)
def test_fig14_speculation_network_performance(point, sweep_cache):
    rates = RATE_GRID[(point.topology, point.vcs_per_class)]

    curves = {
        label: latency_sweep(
            _base(point, scheme), rates, label=label,
            jobs=SIM_JOBS, cache=sweep_cache,
        )
        for label, scheme in SCHEMES.items()
    }
    save_result(
        f"fig14_speculation_{panel_tag(point)}",
        format_curves(
            "inj rate",
            list(rates),
            {a: [p.latency for p in c.points] for a, c in curves.items()},
            title=f"Figure 14 panel: {point.label} (latency, cycles)",
        )
        + "\nsaturation rates: "
        + ", ".join(f"{a}={c.saturation_rate():.3f}" for a, c in curves.items()),
    )

    z_nonspec = curves["nonspec"].zero_load
    z_gnt = curves["spec_gnt"].zero_load
    z_req = curves["spec_req"].zero_load

    # Speculation cuts zero-load latency; the two schemes agree at low
    # load (Section 5.3.3).
    assert z_gnt < z_nonspec
    assert z_req < z_nonspec
    assert abs(z_gnt - z_req) < 0.03 * z_gnt

    improvement = 1 - z_req / z_nonspec
    if point.topology == "mesh":
        assert 0.12 < improvement < 0.35  # paper: up to 23%
    else:
        assert 0.06 < improvement < 0.30  # paper: 14%

    # Pessimistic gives up only a small fraction of saturation
    # throughput vs conventional (paper: <4%; allow sim noise).
    sat_gnt = curves["spec_gnt"].saturation_rate()
    sat_req = curves["spec_req"].saturation_rate()
    assert sat_req > 0.88 * sat_gnt


def test_fig14_speculation_gain_largest_with_few_vcs(sweep_cache):
    """Section 5.3.3: the saturation-rate gain from speculation is
    larger in networks with fewer VCs (14% for mesh 2x1x1 vs <5% for
    the VC-rich configurations)."""

    gains = {}
    for C in (1, 4):
        point = next(
            p for p in ALL_POINTS if p.topology == "mesh" and p.vcs_per_class == C
        )
        rates = RATE_GRID[("mesh", C)]
        curves = {
            scheme: latency_sweep(
                _base(point, scheme), rates,
                jobs=SIM_JOBS, cache=sweep_cache,
            )
            for scheme in ("nonspec", "pessimistic")
        }
        # Saturation compared at a COMMON absolute latency threshold
        # (3x the non-speculative zero-load): the speculative router
        # must not be held to a stricter limit just because its
        # zero-load latency is lower.
        z_ref = curves["nonspec"].zero_load
        sat = {
            s: c.saturation_rate(zero_load=z_ref) for s, c in curves.items()
        }
        gains[C] = sat["pessimistic"] / sat["nonspec"]
    save_result(
        "fig14_speculation_gain",
        f"speculation saturation gain on mesh: C=1 -> {gains[1]:.3f}, "
        f"C=4 -> {gains[4]:.3f} (paper: +14% and <+5%)",
    )
    assert gains[1] >= gains[4] - 0.05
    assert gains[1] > 1.0
