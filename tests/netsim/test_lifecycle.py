"""A finished point leaves nothing behind.

``run_simulation`` owns the network it builds: it closes it
(``Network.close``) on every exit, so reference counting returns the
routers, buffers and packets the moment the call ends -- no garbage for
the cycle collector, on the success path or on a raise -- and it keeps
three int lists instead of the measured packets.  The statistics are
pinned against what the packet-list implementation produced.
"""

import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultPlan, LinkFault, StuckVC, WatchdogError
from repro.netsim import simulator
from repro.netsim.kernels import KERNELS
from repro.netsim.network import Network
from repro.netsim.simulator import (
    SimulationConfig,
    build_network,
    run_simulation,
    run_simulation_worker,
)
from repro.obs import PhaseProfiler, SimObserver

CFG = SimulationConfig(
    injection_rate=0.2, warmup_cycles=40, measure_cycles=100, drain_cycles=100
)
# Every link permanently down: the watchdog trip ends the run in
# degraded mode.  Every output VC stuck and no link fault: it raises.
# (Offered load 1.0 fills the injection buffers, i.e. stops all
# progress, early enough for a 240-cycle run to trip.)
LINK_BLACKOUT = FaultPlan(link_faults=tuple(
    LinkFault(r, p, 0, None) for r in range(64) for p in range(5)
))
VC_BLACKOUT = FaultPlan(stuck_vcs=tuple(
    StuckVC(r, p, v, 0) for r in range(64) for p in range(5) for v in range(2)
))

CASES = {
    **{kernel: dict(kernel=kernel) for kernel in KERNELS},
    "observer": dict(observer=lambda: SimObserver(sample_every=20)),
    "profiler": dict(profiler=PhaseProfiler),
    "faults": dict(cfg=replace(CFG, faults=FaultPlan(
        seed=3, link_rate=0.002, stuck_vc_rate=0.05,
        credit_drop_rate=0.001, credit_dup_rate=0.001))),
    "ft_dor link fault": dict(cfg=replace(
        CFG, routing="ft_dor", vcs_per_class=2, watchdog_cycles=25,
        faults=FaultPlan(link_faults=(LinkFault(9, 1, 0, None),)))),
    "degraded_mode": dict(
        cfg=replace(CFG, injection_rate=1.0, faults=LINK_BLACKOUT,
                    watchdog_cycles=25)),
    "WatchdogError": dict(
        cfg=replace(CFG, injection_rate=1.0, faults=VC_BLACKOUT,
                    watchdog_cycles=25),
        raises=WatchdogError),
    # The parent leaves nothing here either (nothing is built before the
    # pair is rejected); kept so a future build-then-validate cannot leak.
    "unknown routing pair": dict(
        cfg=replace(CFG, topology="torus", routing="ft_dor"),
        raises=ValueError),
}


def _run(cfg=CFG, kernel="compiled", observer=None, profiler=None, raises=None):
    kwargs = dict(
        kernel=kernel,
        observer=observer and observer(),
        profiler=profiler and profiler(),
    )
    if raises is None:
        return run_simulation(cfg, **kwargs)
    with pytest.raises(raises):
        run_simulation(cfg, **kwargs)


@pytest.fixture(scope="module")
def first_use_done():
    # Each case once, unmeasured: what a first use builds once per
    # process -- numpy's generator for the first fault plan with rates,
    # a compiled kernel -- is not the garbage of a finished run, so a
    # case must not depend on a test before it to have paid for it.
    for case in CASES.values():
        _run(**case)


@pytest.fixture
def collector_off(first_use_done):
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_a_finished_run_leaves_no_garbage(case, collector_off):
    result = _run(**case)
    assert gc.collect() == 0
    if result is not None:  # the case is what its name says
        assert result.degraded_mode == (case is CASES["degraded_mode"])


@pytest.mark.parametrize("raises", [None, WatchdogError], ids=["ok", "raise"])
def test_the_network_is_dead_when_run_simulation_returns(
    raises, monkeypatch, collector_off
):
    built = []

    def spying_build(cfg, kernel):
        net = build_network(cfg, kernel=kernel)
        built.append(weakref.ref(net))
        built.append(weakref.ref(net.routers[0]))
        built.append(weakref.ref(net.terminals[0]))
        return net

    monkeypatch.setattr(simulator, "build_network", spying_build)
    cfg = CFG if raises is None else CASES["WatchdogError"]["cfg"]
    _run(cfg, raises=raises)
    assert len(built) == 3 and all(ref() is None for ref in built)


def test_close_is_idempotent_and_a_closed_network_cannot_step():
    net = build_network(CFG)
    net.run(30)
    assert net.in_flight_flits() > 0
    net.close()
    net.close()
    assert net.routers == [] and net.terminals == []
    with pytest.raises((AttributeError, TypeError)):
        net.step()


def test_close_on_a_hand_wired_network(collector_off):
    # No description, no routing object, a router with unwired ports.
    from repro.core.vc_partition import VCPartition
    from repro.netsim.router import Router

    net = Network(routing=None)
    net.routers = [
        Router(i, 3, VCPartition(2, 1, 1), lambda n, r, p: 0) for i in range(2)
    ]
    a, b = net.routers
    a.connect_output(1, "router", b, 2, 1)
    b.connect_upstream(2, "router", a, 1, 1)
    net.run(3)
    net.close()
    net.close()
    del net, a, b
    assert gc.collect() == 0


def test_payloads_equal_the_packet_list_implementation():
    # tests/data/lifecycle_payloads_parent.json: `run_simulation_worker`
    # of six design points at the commit that still kept `measured:
    # List[Packet]` (mesh low load and saturated wavefront, fbfly/UGAL,
    # torus, random faults, ft_dor around a dead link).  Every field --
    # mean, percentiles, batch-means stderr, per-class means, fault
    # counters -- must come out of the int capture unchanged.  (The two
    # speculation counters were re-recorded at SIMULATOR_REV 4, which
    # made them measurement-window counts; no other field moved.)
    pinned = json.loads(
        (Path(__file__).parents[1] / "data" / "lifecycle_payloads_parent.json")
        .read_text()
    )
    assert len(pinned) == 6
    for payload in pinned:
        assert payload["measured_packets"] > 0
        assert run_simulation_worker(payload["config"]) == payload
