"""The matching experiments reproduce the curves numpy's generator drew.

``tests/data/quality_parent.json`` holds full-precision curves written
by the commit before the experiments moved from ``numpy.random`` to
:class:`repro.netsim.rng.PCG64Stream`: ``vc_matching_quality`` and
``switch_matching_quality`` on mesh C=4 and fbfly C=1 (four rates, seed
5), ``switch_request_grant_efficiency`` at rate 0.5, and a small
gate-level ``rtl_switch_matching_quality``.  Every value is re-derived
here and compared with ``==``: one draw out of place moves a curve.
This module needs no numpy, so it also runs where numpy is not installed.
"""

import json
from pathlib import Path

import pytest

from repro.eval.design_points import DesignPoint
from repro.eval.matching import (
    switch_matching_quality,
    switch_request_grant_efficiency,
    vc_matching_quality,
)
from repro.eval.rtl_quality import rtl_switch_matching_quality

PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "quality_parent.json").read_text()
)


@pytest.mark.parametrize("pinned", PINNED["points"],
                         ids=lambda p: f"{p['topology']}-C{p['vcs_per_class']}")
def test_quality_curves_are_the_pinned_ones(pinned):
    point = DesignPoint.paper(pinned["topology"], pinned["vcs_per_class"])
    rates, seed, samples = PINNED["rates"], PINNED["seed"], PINNED["samples"]
    vc = vc_matching_quality(point, rates=rates, num_samples=samples["vc"], seed=seed)
    sw = switch_matching_quality(
        point, rates=rates, num_samples=samples["switch"], seed=seed)
    assert {arch: c.quality for arch, c in vc.items()} == pinned["vc"]
    assert {arch: c.quality for arch, c in sw.items()} == pinned["switch"]
    for arch, efficiency in pinned["efficiency_at_0.5"].items():
        assert switch_request_grant_efficiency(
            point, 0.5, num_samples=60, seed=seed, arch=arch) == efficiency


def test_rtl_quality_is_the_pinned_one():
    pinned = PINNED["rtl"]
    curves = rtl_switch_matching_quality(
        pinned["num_ports"], pinned["num_vcs"], rates=pinned["rates"],
        num_samples=pinned["samples"], seed=pinned["seed"])
    assert {arch: c.quality for arch, c in curves.items()} == pinned["curves"]
