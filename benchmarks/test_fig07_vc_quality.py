"""Figure 7: VC allocator matching quality vs requests/VC/cycle.

Regenerates all six panels and asserts the Section 4.3.2 findings:
quality identically 1 for the C=1 points and for the wavefront
everywhere; separable variants degrade with rate and with C; input-
first beats output-first; wavefront's high-load advantage reaches the
paper's reported 10-25% range on the largest configurations.
"""

import pytest

from conftest import NUM_SAMPLES, panel_tag, save_result
from repro.eval.design_points import ALL_POINTS
from repro.eval.matching import vc_matching_quality
from repro.eval.tables import format_curves

RATES = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.label)
def test_fig07_vc_matching_quality(point):
    curves = vc_matching_quality(point, rates=RATES, num_samples=NUM_SAMPLES)
    save_result(
        f"fig07_vc_quality_{panel_tag(point)}",
        format_curves(
            "req/VC/cycle",
            list(RATES),
            {k: c.quality for k, c in curves.items()},
            title=f"Figure 7 panel: {point.label}",
        ),
    )

    wf = curves["wf"]
    sep_if = curves["sep_if"]
    sep_of = curves["sep_of"]

    # Wavefront yields maximum matchings at every design point.
    assert all(q == pytest.approx(1.0) for q in wf.quality)

    if point.vcs_per_class == 1:
        # C=1: every allocator achieves quality 1 (Figure 7a/7d).
        for c in (sep_if, sep_of):
            assert all(q == pytest.approx(1.0) for q in c.quality)
    else:
        # Separable quality degrades with load ...
        assert sep_if.at(1.0) < sep_if.at(0.1)
        assert sep_of.at(1.0) < sep_of.at(0.1)
        # ... input-first stays ahead of output-first under load ...
        assert sep_if.at(1.0) >= sep_of.at(1.0) - 0.01
        # ... and the wavefront's high-load win is in the paper's range
        # (up to 20%/25% over sep_if/sep_of).
        assert 1.05 < wf.at(1.0) / sep_if.at(1.0) < 1.45
        assert 1.05 < wf.at(1.0) / sep_of.at(1.0) < 1.50


def test_fig07_degradation_grows_with_vcs_per_class():
    q = {}
    for point in ALL_POINTS:
        if point.topology != "mesh":
            continue
        curves = vc_matching_quality(
            point, archs=("sep_if",), rates=(1.0,), num_samples=NUM_SAMPLES
        )
        q[point.vcs_per_class] = curves["sep_if"].at(1.0)
    assert q[1] > q[2] > q[4]
