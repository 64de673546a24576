"""Methodology fidelity check: the Section 3.1 experiment run on the
actual gate-level netlists reproduces the behavioural quality numbers.

The paper measures matching quality by open-loop simulation of the RTL;
this repo's Figure 7/12 benchmarks use the (much faster) behavioural
models.  This benchmark justifies that substitution quantitatively by
driving the synthesized switch allocator netlists with the same
pseudo-random request streams and comparing grant counts: they agree
exactly, because the netlists are cycle-exact implementations of the
behavioural allocators (see tests/hw/test_gate_behaviour.py).
"""

from conftest import save_result
from repro.eval.design_points import DesignPoint
from repro.eval.matching import switch_matching_quality
from repro.eval.rtl_quality import rtl_switch_matching_quality
from repro.eval.tables import format_table

RATES = (0.2, 0.6, 1.0)


def test_rtl_vs_behavioural_quality():
    rtl = rtl_switch_matching_quality(5, 2, rates=RATES, num_samples=200, seed=9)
    beh = switch_matching_quality(
        DesignPoint("mesh", 5, 1), rates=RATES, num_samples=200, seed=9
    )
    rows = []
    for arch in ("sep_if", "sep_of", "wf"):
        for i, rate in enumerate(RATES):
            rows.append(
                [arch, rate, f"{rtl[arch].quality[i]:.4f}", f"{beh[arch].quality[i]:.4f}"]
            )
    save_result(
        "rtl_fidelity",
        format_table(
            ["arch", "rate", "RTL quality", "behavioural quality"],
            rows,
            title="Gate-level vs behavioural matching quality (mesh P=5 V=2)",
        ),
    )
    for arch in ("sep_if", "sep_of", "wf"):
        assert rtl[arch].quality == beh[arch].quality
