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
3. Property tests of the codegen entry points: ``generate_source``
   determinism over the whole spec space, and whole-network lockstep of
   both generated renders with the reference on randomized traffic.

``fast`` is the hook-carrying generated render bound with nothing
attached, so every ``fast`` row also checks that detached hook sites
change nothing.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator_names import (
    ARBITER_KINDS,
    SPECULATION_SCHEMES,
    SWITCH_ALLOCATOR_ARCHS,
    VC_ALLOCATOR_ARCHS,
)
from repro.netsim import codegen
from repro.netsim.codegen import KERNELS
from repro.netsim.router import Router
from repro.netsim.simulator import (
    SimulationConfig,
    build_network,
    kernel_spec,
    run_simulation,
    validate_config,
)
from repro.netsim.topology import describe
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
    """What to read when a compiled point differs: the plain, ``-prof``,
    ``-hooked`` and ``-prof-hooked`` render of every template design
    point, nothing compared."""
    dump_dir = tmp_path / "kernels"
    assert cbi.main(["--dump-kernel", str(dump_dir)]) == 0
    captured = capsys.readouterr()
    assert "dumped" in captured.err and "IDENTICAL" not in captured.out
    expected = sorted(
        f"{spec.slug()}{suffix}.py"
        for spec in codegen.template_specs()
        for suffix in ("", "-prof", "-hooked", "-prof-hooked")
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
    assert router._alloc_step.__code__.co_filename.endswith("-hooked>")
    net.attach_observer(None)
    assert router._alloc_step.__code__ is plain.__code__

    net.attach_profiler(PhaseProfiler())
    assert router._alloc_step.__code__.co_filename.endswith("-prof>")
    net.attach_profiler(None)
    assert router._alloc_step.__code__ is plain.__code__

    cbi.attach_faults(net, cbi.design_point("wf", "mesh"))
    assert router._alloc_step.__code__.co_filename.endswith("-hooked>")
    net.attach_fault_state(None)
    assert router._alloc_step.__code__ is plain.__code__


def test_generated_step_carries_no_per_cycle_instrumentation_tests():
    """No render reads the router's instrumentation per cycle: each binds
    what it needs in ``make_step``, and only the hooked ones call it."""
    for spec in codegen.template_specs():
        for profiled in (False, True):
            for hooked in (False, True):
                src = codegen.source_for(spec, profiled, hooked)
                step = src.split("def step(", 1)[1]
                for name in (
                    "observer",
                    "fault_state",
                    "_stuck_by_port",
                    "profiler",
                    "_compiled_bootstrap",
                ):
                    assert name not in step
                assert ("_obs.alloc_cycle(" in step) is hooked
                assert ('_fs.counters["stuck_vc_masked"]' in step) is hooked


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
    # Attaching instrumentation rebinds too, to the hooked render, and
    # fails the same way; so does the kernel that always binds it.
    with pytest.raises(codegen.CodegenUnsupported):
        router.attach_observer(SimObserver(sample_every=100))
    with pytest.raises(codegen.CodegenUnsupported):
        router.kernel = "fast"
    # Such wirings run on the reference step.
    router.kernel = "reference"


def test_every_config_allocator_combination_specializes():
    """What ``CodegenUnsupported`` promises: every allocator combination
    a :class:`SimulationConfig` can name builds routers the generator
    models, and their spec is the one ``kernel_spec`` derives from the
    config.  Routers are built on the reference step: nothing compiles
    and no cycle runs."""
    desc = describe("mesh")
    partition = desc.mode("default").partition(2)
    combos = list(
        itertools.product(
            VC_ALLOCATOR_ARCHS,
            ARBITER_KINDS,
            SWITCH_ALLOCATOR_ARCHS,
            ARBITER_KINDS,
            SPECULATION_SCHEMES,
            (True, False),
        )
    )
    assert len(combos) == 3 * 3 * 3 * 3 * 3 * 2
    for va, va_arb, sa, sa_arb, scheme, lookahead in combos:
        cfg = SimulationConfig(
            vcs_per_class=2,
            vc_alloc_arch=va,
            vc_alloc_arbiter=va_arb,
            sw_alloc_arch=sa,
            sw_alloc_arbiter=sa_arb,
            speculation=scheme,
            lookahead=lookahead,
        )
        validate_config(cfg)
        router = Router(
            0,
            desc.num_ports,
            partition,
            route_fn=None,
            vc_alloc_arch=va,
            vc_alloc_arbiter=va_arb,
            sw_alloc_arch=sa,
            sw_alloc_arbiter=sa_arb,
            speculation=scheme,
            lookahead=lookahead,
            kernel="reference",
        )
        assert codegen.spec_for_router(router) == kernel_spec(cfg)


def test_unknown_kernel_is_rejected_by_the_router():
    net = build_network(dataclasses.replace(cbi.design_point("wf", "mesh"), **_WINDOWS))
    with pytest.raises(ValueError, match="unknown simulation kernel"):
        net.routers[0].kernel = "turbo"


def test_ugal_hop_tables_match_port_arithmetic():
    assert cbi.ugal_hop_table_problems() == []


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
    randomized request patterns leaves the compiled and fast kernels
    (the plain and the hooked render) in the reference kernel's network
    state after every cycle count."""
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
    for kernel in KERNELS:
        net = build_network(cfg, kernel=kernel)
        net.run(cycles)
        states[kernel] = cbi.net_state(net)
        net.close()
    assert states["compiled"] == states["reference"]
    assert states["fast"] == states["reference"]
