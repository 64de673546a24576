"""Differential equivalence harness: the three-kernel test matrix.

Three layers of defence pin the fast and compiled simulation kernels to
the reference implementation:

1. End-to-end differential runs: every design point of the bit-identity
   matrix (``scripts/check_bit_identity.py``) at reduced depth, all
   kernels side by side, asserting the full ``SimulationResult``
   payloads (and observer metric rows) match exactly.  CI runs the same
   matrix at full depth via the script.
2. The three-kernel design-point matrix: every representative compiled
   template design point (``repro.netsim.codegen.template_specs``) on
   both paper topologies, under all three kernels, comparing both the
   end-of-run payloads and the complete post-run network state --
   arbiter priorities, credits, buffer occupancy, holder registers and
   speculation counters.  The lifecycle cases next to layer 1 do the
   same for the default kernel while an observer, profiler or fault
   state is attached or detached mid-run.
3. Component-level property tests: the sparse allocator entry points
   used only by the fast kernel (``allocate_sparse``,
   ``grant_uncontested``, ``allocate_pairs``) against the dense paths
   used by the reference kernel, plus the compiled-kernel codegen entry
   points (``generate_source`` determinism, whole-network lockstep with
   the fast kernel on randomized traffic), over randomized multi-cycle
   request streams, comparing both the grants and the post-cycle
   arbiter priority state.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.speculative import SpeculativeSwitchAllocator
from repro.core.switch_allocator import SwitchAllocator
from repro.core.vc_allocator import VCAllocator, VCRequest
from repro.core.vc_partition import VCPartition
from repro.core.wavefront import WavefrontAllocator
from repro.netsim import codegen
from repro.netsim.codegen import KERNELS
from repro.netsim.simulator import SimulationConfig, build_network, run_simulation
from repro.obs.observer import SimObserver
from repro.obs.profiling import PhaseProfiler

# The CLI face of the harness owns the config matrix; reuse it here so
# the two can never drift apart.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import check_bit_identity as cbi  # noqa: E402


# ---------------------------------------------------------------------------
# Layer 1: end-to-end differential runs
# ---------------------------------------------------------------------------

# Shorter than the script's windows (this runs in tier-1 on every
# commit); still long enough to pass warmup, fill the network and
# exercise the drain logic.
_WINDOWS = dict(warmup_cycles=80, measure_cycles=250, drain_cycles=400)


def _design_points():
    params = []
    for label, cfg, observed in cbi.config_matrix(quick=True):
        cfg = dataclasses.replace(cfg, **_WINDOWS)
        params.append(pytest.param(cfg, observed, id=label.replace("/", "-")))
    return params


def test_kernel_probe_passes_on_healthy_kernels():
    assert cbi.kernel_probe() is None


def test_empty_matrix_is_an_error_not_a_pass(monkeypatch, capsys):
    """`ALL IDENTICAL (0 design points)` is a vacuous pass; the harness
    must refuse it rather than green-light CI on nothing."""
    monkeypatch.setattr(cbi, "config_matrix", lambda quick: [])
    rc = cbi.main(["--quick"])
    assert rc == 2
    assert "NOT established" in capsys.readouterr().err


def test_unavailable_kernel_is_an_error(monkeypatch, capsys):
    def broken(cfg, kernel="fast"):
        raise RuntimeError("fast kernel removed")

    monkeypatch.setattr(cbi, "build_network", broken)
    rc = cbi.main(["--quick"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unavailable" in err
    assert "bit identity cannot be checked" in err


def test_unknown_kernel_name_is_rejected(capsys):
    rc = cbi.main(["--quick", "--kernel", "turbo"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown kernel" in err
    for name in KERNELS:
        assert name in err


def test_dump_kernel_writes_one_importable_module_per_template(tmp_path, capsys):
    """What to read when a compiled point differs: the plain and the
    ``-prof`` variant of every template design point, nothing compared."""
    dump_dir = tmp_path / "kernels"
    assert cbi.main(["--dump-kernel", str(dump_dir)]) == 0
    captured = capsys.readouterr()
    assert "dumped" in captured.err and "IDENTICAL" not in captured.out
    expected = sorted(
        name
        for spec in codegen.template_specs()
        for name in (f"{spec.slug()}.py", f"{spec.slug()}-prof.py")
    )
    assert sorted(p.name for p in dump_dir.iterdir()) == expected
    for path in dump_dir.iterdir():
        module_spec = importlib.util.spec_from_file_location("dumped", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        assert callable(module.make_step), path.name


@pytest.mark.parametrize("cfg,observed", _design_points())
def test_kernels_bit_identical(cfg, observed):
    payloads, rows = cbi.run_point(cfg, observed)
    for kernel in cbi.DEFAULT_KERNELS:
        assert cbi.diff_payloads(payloads[kernel], payloads["reference"], kernel) == []
        if observed:
            assert rows[kernel] == rows["reference"]


# -- bind-time step selection -------------------------------------------------
#
# Router._bind_step reselects the dispatched step whenever an observer,
# profiler or fault state is attached or detached; these drive the
# default kernel and the reference through the same mid-run changes.

# Shorter again: every case also pays a reference run.
_LIFECYCLE_WINDOWS = dict(warmup_cycles=60, measure_cycles=140, drain_cycles=200)


def _lifecycle_points():
    return [
        pytest.param(
            dataclasses.replace(cfg, **_LIFECYCLE_WINDOWS), case,
            id=label.replace("/", "-"),
        )
        for label, cfg, case in cbi.lifecycle_matrix(quick=True)
    ]


@pytest.mark.parametrize("cfg,case", _lifecycle_points())
def test_default_kernel_bit_identical_across_attach_and_detach(cfg, case):
    assert cbi.lifecycle_problems(cfg, case) == []


def test_bound_step_follows_what_is_attached():
    net = build_network(dataclasses.replace(cbi.design_point("wf", "mesh"), **_WINDOWS))
    router = net.routers[0]
    plain = router._alloc_step
    assert plain.__code__.co_filename.startswith("<compiled-kernel:")

    net.attach_observer(SimObserver(sample_every=100))
    assert router._alloc_step == router._allocation_step_fast
    net.attach_observer(None)
    assert router._alloc_step.__code__ is plain.__code__

    net.attach_profiler(PhaseProfiler())
    assert router._alloc_step.__code__.co_filename.endswith("-prof>")
    net.attach_profiler(None)
    assert router._alloc_step.__code__ is plain.__code__

    cbi.attach_faults(net, cbi.design_point("wf", "mesh"))
    assert router._alloc_step == router._allocation_step_fast
    net.attach_fault_state(None)
    assert router._alloc_step.__code__ is plain.__code__


def test_generated_step_carries_no_per_cycle_instrumentation_tests():
    for spec in codegen.template_specs():
        for profiled in (False, True):
            step = codegen.source_for(spec, profiled).split("def step(", 1)[1]
            for name in ("observer", "fault_state", "profiler", "_compiled_bootstrap"):
                assert name not in step


@pytest.mark.parametrize(
    "break_router,field",
    [
        (lambda r: setattr(r.vc_alloc, "sparse", False), "vc_alloc.sparse"),
        (
            lambda r: setattr(r.vc_alloc._wavefronts[0], "rotate_priority", False),
            "vc_alloc wavefront",
        ),
        (
            lambda r: setattr(
                r.sw_alloc._spec_alloc._wavefront, "rotate_priority", False
            ),
            "sw_alloc._spec_alloc wavefront",
        ),
    ],
)
def test_unsupported_wiring_surfaces_at_bind_time(break_router, field):
    """Hand-wired configurations the generator does not model must fail
    when the step is bound -- naming the router and the field -- not on
    the first busy cycle mid-run."""
    net = build_network(
        dataclasses.replace(cbi.design_point("wf", "mesh"), **_WINDOWS), kernel="fast"
    )
    router = net.routers[7]
    break_router(router)
    with pytest.raises(codegen.CodegenUnsupported) as exc:
        router.kernel = "compiled"
    assert "router 7" in str(exc.value)
    assert field in str(exc.value)
    # Attaching instrumentation rebinds too, and fails the same way even
    # though observed cycles would run the fast step.
    with pytest.raises(codegen.CodegenUnsupported):
        router.attach_observer(SimObserver(sample_every=100))


def test_unknown_kernel_is_rejected_by_the_router():
    net = build_network(dataclasses.replace(cbi.design_point("wf", "mesh"), **_WINDOWS))
    with pytest.raises(ValueError, match="unknown simulation kernel"):
        net.routers[0].kernel = "turbo"


def test_ugal_hop_tables_match_port_arithmetic():
    assert cbi.ugal_hop_table_problems() == []


# ---------------------------------------------------------------------------
# Layer 2: sparse-vs-dense component properties
# ---------------------------------------------------------------------------


# -- wavefront pair sweep ---------------------------------------------------


@st.composite
def _wf_case(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rotations = draw(st.integers(0, max(m, n) - 1))
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
            max_size=m * n,
        )
    )
    return m, n, rotations, sorted(cells)


@given(case=_wf_case())
@settings(max_examples=200, deadline=None)
def test_wavefront_pairs_matches_dense(case):
    m, n, rotations, cells = case
    dense_wf = WavefrontAllocator(m, n)
    pair_wf = WavefrontAllocator(m, n)
    for _ in range(rotations):
        dense_wf.advance_priority()
        pair_wf.advance_priority()

    req = np.zeros((m, n), dtype=bool)
    for i, j in cells:
        req[i, j] = True
    dense_grants = dense_wf.allocate(req)
    pair_grants = pair_wf.allocate_pairs(cells)

    assert set(pair_grants) == set(zip(*(x.tolist() for x in np.nonzero(dense_grants))))
    assert pair_wf.priority_diagonal == dense_wf.priority_diagonal


# -- switch allocator -------------------------------------------------------

_P, _V = 4, 3


@st.composite
def _sw_cycles(draw, max_cycles=4):
    cycles = []
    for _ in range(draw(st.integers(1, max_cycles))):
        items = []
        for p in range(_P):
            for v in range(_V):
                if draw(st.booleans()):
                    items.append((p, v, draw(st.integers(0, _P - 1))))
        cycles.append(items)
    return cycles


def _sw_dense(items):
    requests = [[None] * _V for _ in range(_P)]
    for p, v, q in items:
        requests[p][v] = q
    return requests


@pytest.mark.parametrize("arch", ["sep_if", "sep_of", "wf"])
@pytest.mark.parametrize("arbiter", ["rr", "m"])
@given(cycles=_sw_cycles())
@settings(max_examples=40, deadline=None)
def test_switch_sparse_matches_dense(arch, arbiter, cycles):
    dense_alloc = SwitchAllocator(_P, _V, arch, arbiter)
    sparse_alloc = SwitchAllocator(_P, _V, arch, arbiter)
    for items in cycles:
        dense_grants = dense_alloc.allocate(_sw_dense(items))
        sparse_grants = sparse_alloc.allocate_sparse(items)
        assert sparse_grants == dense_grants
    assert cbi.sw_state(sparse_alloc) == cbi.sw_state(dense_alloc)


@st.composite
def _uncontested_items(draw):
    ports = sorted(draw(st.sets(st.integers(0, _P - 1), min_size=1)))
    outs = draw(st.permutations(list(range(_P))))
    return [
        (p, draw(st.integers(0, _V - 1)), outs[k]) for k, p in enumerate(ports)
    ]


@pytest.mark.parametrize("arch", ["sep_if", "sep_of", "wf"])
@pytest.mark.parametrize("arbiter", ["rr", "m"])
@given(warmup=_sw_cycles(max_cycles=2), items=_uncontested_items())
@settings(max_examples=40, deadline=None)
def test_grant_uncontested_matches_sparse(arch, arbiter, warmup, items):
    full = SwitchAllocator(_P, _V, arch, arbiter)
    shortcut = SwitchAllocator(_P, _V, arch, arbiter)
    for cycle in warmup:  # start from a randomized priority state
        full.allocate_sparse(cycle)
        shortcut.allocate_sparse(cycle)

    grants = full.allocate_sparse(items)
    shortcut.grant_uncontested(items)

    # A conflict-free request set is granted in full by every arch ...
    expected = [None] * _P
    for p, v, q in items:
        expected[p] = (v, q)
    assert grants == expected
    # ... and the shortcut leaves the arbiters in the identical state.
    assert cbi.sw_state(shortcut) == cbi.sw_state(full)


# -- speculative switch allocation ------------------------------------------


@st.composite
def _spec_cycles(draw, max_cycles=4):
    cycles = []
    for _ in range(draw(st.integers(1, max_cycles))):
        ns, sp = [], []
        for p in range(_P):
            for v in range(_V):
                kind = draw(st.integers(0, 3))
                if kind == 1:
                    ns.append((p, v, draw(st.integers(0, _P - 1))))
                elif kind == 2:
                    sp.append((p, v, draw(st.integers(0, _P - 1))))
        cycles.append((ns, sp))
    return cycles


@pytest.mark.parametrize("scheme", ["pessimistic", "conventional"])
@pytest.mark.parametrize("arch", ["sep_if", "wf"])
@given(cycles=_spec_cycles())
@settings(max_examples=40, deadline=None)
def test_speculative_sparse_matches_dense(scheme, arch, cycles):
    dense_alloc = SpeculativeSwitchAllocator(_P, _V, arch, "rr", scheme)
    sparse_alloc = SpeculativeSwitchAllocator(_P, _V, arch, "rr", scheme)
    for ns_items, sp_items in cycles:
        dense = dense_alloc.allocate(_sw_dense(ns_items), _sw_dense(sp_items))
        sparse = sparse_alloc.allocate_sparse(ns_items, sp_items)
        assert sparse.nonspec == dense.nonspec
        assert sparse.spec == dense.spec
        assert sparse.spec_discarded == dense.spec_discarded
    assert cbi.sw_state(sparse_alloc._nonspec_alloc) == cbi.sw_state(
        dense_alloc._nonspec_alloc
    )
    assert cbi.sw_state(sparse_alloc._spec_alloc) == cbi.sw_state(dense_alloc._spec_alloc)


def test_speculative_ns_empty_commits_inline():
    """The ns-empty shortcut must grant AND advance exactly like the
    staged path (nothing can be masked when the nonspec side is idle)."""
    for scheme in ("pessimistic", "conventional"):
        fast = SpeculativeSwitchAllocator(_P, _V, "sep_if", "rr", scheme)
        ref = SpeculativeSwitchAllocator(_P, _V, "sep_if", "rr", scheme)
        sp_items = [(0, 1, 2), (1, 0, 2), (2, 2, 0)]
        out_fast = fast.allocate_sparse([], sp_items)
        out_ref = ref.allocate(_sw_dense([]), _sw_dense(sp_items))
        assert out_fast.nonspec == out_ref.nonspec
        assert out_fast.spec == out_ref.spec
        assert out_fast.spec_discarded == out_ref.spec_discarded == 0
        assert cbi.sw_state(fast._spec_alloc) == cbi.sw_state(ref._spec_alloc)


# -- VC allocator -----------------------------------------------------------

_PARTITIONS = {
    "single-class": VCPartition(1, 1, 3),
    "two-classes": VCPartition(2, 1, 2),
}


@st.composite
def _vc_cycles(draw, partition, num_ports, max_cycles=4):
    V = partition.num_vcs
    legal = {
        v: [u for u in range(V) if partition.legal_transition(v, u)]
        for v in range(V)
    }
    cycles = []
    for _ in range(draw(st.integers(1, max_cycles))):
        items = []
        for i in range(num_ports * V):
            if draw(st.booleans()):
                cands = sorted(
                    draw(st.sets(st.sampled_from(legal[i % V]), min_size=1))
                )
                items.append((i, draw(st.integers(0, num_ports - 1)), tuple(cands)))
        cycles.append(items)
    return cycles


def _vc_dense(items, n):
    requests = [None] * n
    for i, q, cands in items:
        requests[i] = VCRequest(q, cands)
    return requests


@pytest.mark.parametrize("part_name", sorted(_PARTITIONS))
@pytest.mark.parametrize("arch", ["sep_if", "sep_of", "wf"])
@pytest.mark.parametrize("arbiter", ["rr", "m"])
@pytest.mark.parametrize("masked", [False, True])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_vc_sparse_matches_dense(part_name, arch, arbiter, masked, data):
    partition = _PARTITIONS[part_name]
    P = 3
    n = P * partition.num_vcs
    dense_alloc = VCAllocator(P, partition, arch, arbiter)
    sparse_alloc = VCAllocator(P, partition, arch, arbiter)
    if masked:
        # Two stuck output VCs (a faulted run): both paths must prune
        # candidates identically, including fully-masked requests.
        mask = frozenset({1, n - 1})
        dense_alloc.fault_mask = mask
        sparse_alloc.fault_mask = mask
    cycles = data.draw(_vc_cycles(partition, P))
    for items in cycles:
        dense_grants = dense_alloc.allocate(_vc_dense(items, n))
        sparse_grants = sparse_alloc.allocate_sparse(items)
        assert len(sparse_grants) == len(items)
        for pos, (i, _q, _cands) in enumerate(items):
            assert sparse_grants[pos] == dense_grants[i]
        granted_idx = {i for i, _q, _c in items}
        for i in range(n):
            if i not in granted_idx:
                assert dense_grants[i] is None
    assert cbi.vc_state(sparse_alloc) == cbi.vc_state(dense_alloc)


# ---------------------------------------------------------------------------
# Three-kernel design-point matrix: payloads AND post-run network state
# ---------------------------------------------------------------------------

#: Cycles for the state-comparison runs: past warmup, deep into
#: steady-state contention, before the schedule drains.
_STATE_CYCLES = 330


def _matrix_params():
    """Every compiled template design point on both paper topologies."""
    params = []
    for spec in codegen.template_specs():
        for topo in ("mesh", "fbfly"):
            cfg = SimulationConfig(
                topology=topo,
                vcs_per_class=spec.vcs_per_class,
                injection_rate=0.3,
                vc_alloc_arch=spec.vc_arch,
                vc_alloc_arbiter=spec.vc_arbiter,
                sw_alloc_arch=spec.sw_arch,
                sw_alloc_arbiter=spec.sw_arbiter,
                speculation=spec.scheme,
                lookahead=spec.lookahead,
                seed=11,
                **_WINDOWS,
            )
            params.append(pytest.param(cfg, id=f"{topo}-{spec.slug()}"))
    return params


@pytest.mark.parametrize("cfg", _matrix_params())
def test_three_kernel_matrix_payload_and_state(cfg):
    payloads = {k: run_simulation(cfg, kernel=k).to_payload() for k in KERNELS}
    for kernel in ("fast", "compiled"):
        assert cbi.diff_payloads(payloads[kernel], payloads["reference"], kernel) == []

    states = {}
    for kernel in KERNELS:
        net = build_network(cfg, kernel=kernel)
        net.run(_STATE_CYCLES)
        states[kernel] = cbi.net_state(net)
    assert states["fast"] == states["reference"]
    assert states["compiled"] == states["reference"]


# ---------------------------------------------------------------------------
# Compiled-kernel codegen entry points (property tests)
# ---------------------------------------------------------------------------

_ARCHS = ("sep_if", "sep_of", "wf")


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_generated_source_is_deterministic_and_compiles(data):
    """``generate_source`` over the whole spec space: same spec, same
    text, and the text always compiles to a ``make_step`` factory."""
    spec = codegen.KernelSpec(
        num_ports=data.draw(st.sampled_from((3, 5, 10))),
        num_message_classes=data.draw(st.integers(1, 2)),
        num_resource_classes=data.draw(st.integers(1, 2)),
        vcs_per_class=data.draw(st.integers(1, 4)),
        vc_arch=data.draw(st.sampled_from(_ARCHS)),
        vc_arbiter=data.draw(st.sampled_from(("rr", "m", "fixed"))),
        sw_arch=data.draw(st.sampled_from(_ARCHS)),
        sw_arbiter=data.draw(st.sampled_from(("rr", "m", "fixed"))),
        scheme=data.draw(st.sampled_from(("pessimistic", "conventional", "nonspec"))),
        lookahead=data.draw(st.booleans()),
    )
    src = codegen.generate_source(spec)
    assert src == codegen.generate_source(spec)
    ns: dict = {}
    exec(compile(src, f"<test-kernel:{spec.slug()}>", "exec"), ns)
    assert callable(ns["make_step"])


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_compiled_kernel_matches_fast_on_random_traffic(data):
    """Whole-network lockstep: a randomized design point under
    randomized request patterns leaves the compiled and fast kernels in
    bit-identical network state after every cycle count."""
    cfg = SimulationConfig(
        topology="mesh",
        vcs_per_class=data.draw(st.integers(1, 3)),
        injection_rate=data.draw(st.sampled_from((0.1, 0.3, 0.5))),
        vc_alloc_arch=data.draw(st.sampled_from(_ARCHS)),
        sw_alloc_arch=data.draw(st.sampled_from(_ARCHS)),
        speculation=data.draw(
            st.sampled_from(("pessimistic", "conventional", "nonspec"))
        ),
        seed=data.draw(st.integers(0, 1 << 16)),
        warmup_cycles=40,
        measure_cycles=120,
        drain_cycles=160,
    )
    cycles = data.draw(st.integers(40, 200))
    states = {}
    for kernel in ("fast", "compiled"):
        net = build_network(cfg, kernel=kernel)
        net.run(cycles)
        states[kernel] = cbi.net_state(net)
    assert states["compiled"] == states["fast"]
