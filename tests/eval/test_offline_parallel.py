"""Serial and parallel offline runs are the same run.

``verify``, ``lint --netlists``, ``quality`` and ``cost`` spread their
independent jobs over forked pool workers (:func:`repro.eval.runner.
map_jobs`).  With one job and with two, every function must return equal
findings, skips, counts, curves and cost rows -- a disproof found in a
worker included -- and a job that fails must fail the run by name.
"""

import random

import pytest

from repro.analysis import netlists as netlists_module
from repro.analysis.netlists import lint_paper_netlists
from repro.eval.cost import CostCache, switch_allocator_costs, vc_allocator_costs
from repro.eval.design_points import MESH_POINTS
from repro.eval.matching import switch_matching_quality, vc_matching_quality
from repro.eval.runner import JobError
from repro.hw.trace import active_trace
from repro.verify.mutate import _mutate
from repro.verify.runner import verify_paper_netlists

#: The bench's capacity cut: the matrix minus its slowest netlists.
MAX_CELLS = 3000
MESH_V2, MESH_V4 = MESH_POINTS[:2]


def both(fn, **kwargs):
    return fn(jobs=1, **kwargs), fn(jobs=2, **kwargs)


def test_verify_matrix():
    serial, parallel = both(
        verify_paper_netlists, quick=False, max_cells=MAX_CELLS
    )
    assert serial == parallel
    findings, skipped, checked = serial
    assert findings == [] and checked > 0 and skipped


def test_lint_matrix():
    serial, parallel = both(lint_paper_netlists, max_cells=MAX_CELLS)
    assert serial == parallel
    assert serial[2] > 0 and serial[1]


@pytest.mark.parametrize("fn", [vc_matching_quality, switch_matching_quality])
def test_matching_quality(fn):
    serial, parallel = both(
        fn, point=MESH_V4, rates=(0.3, 0.9), num_samples=100
    )
    assert serial == parallel
    assert list(serial) == ["sep_if", "sep_of", "wf"]


@pytest.mark.parametrize("fn", [vc_allocator_costs, switch_allocator_costs])
def test_allocator_costs(fn):
    serial, parallel = both(fn, point=MESH_V2)
    assert serial == parallel
    assert all(r.delay_ns is not None for r in serial)


def test_cost_cache_is_read_and_written_here(tmp_path, monkeypatch):
    path = str(tmp_path / "costs.json")
    first = vc_allocator_costs(MESH_V2, cache=CostCache(path), jobs=2)
    # Every row landed in the file the parent owns ...
    cache = CostCache(path)
    assert len(cache) == len(first)

    # ... so a second run computes nothing, in any process.
    def refuse(*args, **kwargs):
        raise AssertionError("a cached design was synthesized again")

    monkeypatch.setattr("repro.hw.synthesis.synthesize_vc_allocator", refuse)
    assert vc_allocator_costs(MESH_V2, cache=cache, jobs=2) == first


def _patched_vc_builder(monkeypatch, change):
    """Make the matrix's mesh V=2 ``sep_of/rr`` VC allocator go through
    ``change(netlist)``; the patch is in place before any worker forks."""
    real = netlists_module.build_vc_allocator_netlist
    target = MESH_V2.partition.describe()

    def build(P, partition, arch, arbiter, **kwargs):
        nl = real(P, partition, arch, arbiter, **kwargs)
        if (arch, arbiter) == ("sep_of", "rr") and partition.describe() == target:
            change(nl)
        return nl

    monkeypatch.setattr(netlists_module, "build_vc_allocator_netlist", build)


def _swap_a_grant_gate(nl):
    """Swap the kind of the first gate in the first arbiter's grant
    cone (AND <-> OR and the like): a real wiring bug."""
    arbiter = active_trace().arbiters[0]
    cone, _ = nl.support(list(arbiter.grant_nets), arbiter.request_nets)
    rng = random.Random(0)
    assert any(_mutate(nl, net, 0, rng) is not None for net in sorted(cone))


def test_a_disproof_comes_back_from_a_worker(monkeypatch):
    _patched_vc_builder(monkeypatch, _swap_a_grant_gate)
    serial, parallel = both(
        verify_paper_netlists, max_cells=MAX_CELLS,
        include_e2e=False, include_models=False,
    )
    assert serial == parallel
    findings = parallel[0]
    bad = [i for i, f in enumerate(findings) if f.rule == "VER-EQUIV"]
    assert bad and all(
        findings[i].scope == f"vc/{MESH_V2.label}/sep_of/rr/sparse" for i in bad
    )


def test_a_failing_proof_fails_the_run_by_name(monkeypatch):
    def explode(nl):
        raise RuntimeError("builder blew up")

    _patched_vc_builder(monkeypatch, explode)
    for jobs in (1, 2):
        with pytest.raises(JobError) as info:
            verify_paper_netlists(
                max_cells=MAX_CELLS, include_e2e=False,
                include_models=False, jobs=jobs,
            )
        assert info.value.label == f"vc/{MESH_V2.label}/sep_of/rr/sparse"
        assert info.value.error == "RuntimeError"
