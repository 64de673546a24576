"""Synthesis reports pinned bit for bit, and the timing passes they take.

``tests/data/synthesis_parent.json`` holds the full-precision reports of
two VC and two switch allocator points, recorded when ``synthesize``
still re-timed after sizing and power re-timed again.  Per-net numbers
are unboxed doubles and each sizing round is timed once; neither may
move a bit of any report.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.hw.power as power
import repro.hw.timing as timing
from repro.core.vc_partition import VCPartition
from repro.hw.synthesis import synthesize_switch_allocator, synthesize_vc_allocator

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "synthesis_parent.json").read_text()
)

#: Timing passes per point: the initial one plus one per sizing round
#: that resized a gate.  The last one also serves the delay and power.
TIMING_PASSES = {
    "vc_sep_if_rr_P5_2x1x2 VCs (V=4)_dense": 5,
    "vc_wf_rr_P5_2x1x2 VCs (V=4)_dense_replicated": 2,
    "sw_sep_if_rr_P5_V2_nonspec": 3,
    "sw_wf_m_P10_V4_pessimistic": 2,
}


def _synthesize(point):
    if point["target"] == "vc":
        partition = getattr(VCPartition, point["topology"])(point["vcs_per_class"])
        return synthesize_vc_allocator(
            point["num_ports"], partition, point["arch"], point["arbiter"],
            point["sparse"],
        )
    return synthesize_switch_allocator(
        point["num_ports"], point["num_vcs"], point["arch"], point["arbiter"],
        point["speculation"],
    )


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[entry["report"]["name"] for entry in GOLDEN]
)
def test_report_is_bit_identical_in_fewer_passes(entry, monkeypatch):
    passes = {"arrivals": 0, "loads": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            passes[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(timing, "compute_arrivals",
                        counted("arrivals", timing.compute_arrivals))
    loads = counted("loads", timing.compute_loads)
    monkeypatch.setattr(timing, "compute_loads", loads)
    monkeypatch.setattr(power, "compute_loads", loads)
    report = asdict(_synthesize(entry["point"]))
    report.pop("meta")
    assert report == entry["report"]
    assert passes == {"arrivals": TIMING_PASSES[entry["report"]["name"]],
                      "loads": TIMING_PASSES[entry["report"]["name"]]}
