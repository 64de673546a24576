"""A fault-free point stops simulating once its last measured packet lands.

``drain_cycles`` is an upper bound: ``run_simulation`` ends the drain
before the first cycle that starts with every packet born in the
measurement window delivered.  Nothing it reports reads a later cycle,
so each result field equals the one a full drain gives -- except
``misspeculations`` and ``speculative_wins``, which count the
measurement window.  Both are checked here against a full-drain run
this file steps itself.  A run with a fault state still drains in full:
its loss figures are defined after the whole drain.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.netsim import simulator
from repro.netsim.simulator import SimulationConfig, build_network, run_simulation
from repro.netsim.stats import batch_means, summarize_latencies
from repro.obs import PhaseProfiler, SimObserver

WINDOWS = dict(warmup_cycles=30, measure_cycles=80, drain_cycles=200)

CONFIGS = {
    "mesh/wf/pessimistic/uniform": SimulationConfig(
        injection_rate=0.3, vc_alloc_arch="wf", sw_alloc_arch="wf",
        speculation="pessimistic", **WINDOWS),
    "mesh/sep_if/nonspec/transpose": SimulationConfig(
        injection_rate=0.2, speculation="nonspec",
        traffic_pattern="transpose", **WINDOWS),
    "mesh/sep_of/conventional/hotspot": SimulationConfig(
        injection_rate=0.15, vc_alloc_arch="sep_of", sw_alloc_arch="sep_of",
        speculation="conventional", traffic_pattern="hotspot", **WINDOWS),
    "fbfly/sep_if/pessimistic/uniform": SimulationConfig(
        topology="fbfly", injection_rate=0.3, **WINDOWS),
    "fbfly/wf/conventional/transpose": SimulationConfig(
        topology="fbfly", injection_rate=0.2, sw_alloc_arch="wf",
        speculation="conventional", traffic_pattern="transpose", **WINDOWS),
    "torus/sep_of/nonspec/uniform": SimulationConfig(
        topology="torus", injection_rate=0.2, sw_alloc_arch="sep_of",
        speculation="nonspec", **WINDOWS),
    "torus/wf/pessimistic/hotspot": SimulationConfig(
        topology="torus", injection_rate=0.1, vc_alloc_arch="wf",
        sw_alloc_arch="wf", traffic_pattern="hotspot", **WINDOWS),
    # Past saturation, with a drain too short for the measured packets:
    # the drain runs out, as it always did.
    "saturated/drain runs out": SimulationConfig(
        injection_rate=0.9, warmup_cycles=30, measure_cycles=80,
        drain_cycles=20),
    "measure_cycles=0": SimulationConfig(
        injection_rate=0.3, warmup_cycles=30, measure_cycles=0,
        drain_cycles=50),
    "drain_cycles=0": SimulationConfig(
        injection_rate=0.3, warmup_cycles=30, measure_cycles=80,
        drain_cycles=0),
}

def full_drain(cfg: SimulationConfig):
    """Step ``cfg`` through every configured cycle; return the result
    fields a full drain reports (all but the two speculation counters),
    the counters' totals at the window bounds, and the cycle the last
    measured packet landed in (-1 if there were none, None if not all
    of them did)."""
    net = build_network(cfg)
    window = range(cfg.warmup_cycles, cfg.warmup_cycles + cfg.measure_cycles)
    births, latencies, classes, offered = [], [], [], []

    def on_delivery(pkt, now):
        if pkt.birth_time in window:
            births.append(pkt.birth_time)
            latencies.append(now - pkt.birth_time)
            classes.append(pkt.message_class)

    net.on_delivery = on_delivery
    net.on_birth = lambda birth: offered.append(birth in window)
    try:
        counters = []

        def snapshot():
            counters.append((net.total_misspeculations(),
                             net.total_speculative_wins()))
            return (net.total_injected_flits(), net.total_ejected_flits(),
                    net.total_backlog())

        net.run(cfg.warmup_cycles)
        inj0, ej0, backlog0 = snapshot()
        net.run(cfg.measure_cycles)
        inj1, ej1, backlog1 = snapshot()
        net.run(cfg.drain_cycles)
        n = net.num_terminals
    finally:
        net.close()

    slots = cfg.measure_cycles * n
    fields = dict(
        measured_packets=len(latencies),
        delivered_packets=len(latencies),
        injected_flit_rate=(inj1 - inj0) / slots if slots else 0.0,
        accepted_flit_rate=(ej1 - ej0) / slots if slots else 0.0,
    )
    if latencies:
        summary = summarize_latencies(latencies)
        by_class = {}
        for m, latency in zip(classes, latencies):
            by_class.setdefault(m, []).append(latency)
        fields.update(
            avg_latency=summary.mean,
            latency_summary=summary,
            latency_stderr=batch_means(list(zip(births, latencies)))[1],
            latency_by_class={m: sum(v) / len(v) for m, v in by_class.items()},
        )
    else:
        fields.update(avg_latency=math.inf, latency_summary=None,
                      latency_stderr=math.nan, latency_by_class={})
    expected_measured = cfg.packet_rate * cfg.measure_cycles * n * 2
    fields["saturated"] = (
        fields["avg_latency"] > cfg.latency_cap
        or (backlog1 - backlog0) / n > 4.0
        or (expected_measured > 0 and len(latencies) < 0.75 * expected_measured)
    )
    all_landed = len(latencies) == sum(offered)
    last = max((b + lat for b, lat in zip(births, latencies)), default=-1)
    return fields, counters, last if all_landed else None


def stop_cycle(cfg: SimulationConfig, last_landed) -> int:
    """The cycle a fault-free run ends at, given when its last measured
    packet landed (None: not every one did within the drain)."""
    window_end = cfg.warmup_cycles + cfg.measure_cycles
    if last_landed is None:
        return window_end + cfg.drain_cycles
    return max(window_end, last_landed + 1)


def canonical(result) -> str:
    return json.dumps(result.to_payload(), sort_keys=True)  # NaN == NaN as text


@pytest.fixture
def networks(monkeypatch):
    """Every network ``run_simulation`` builds; its ``time`` survives
    ``close``, so it reads the cycle the run ended at."""
    built = []

    def build(cfg, kernel=simulator.DEFAULT_KERNEL):
        built.append(simulator_build(cfg, kernel=kernel))
        return built[-1]

    simulator_build = simulator.build_network
    monkeypatch.setattr(simulator, "build_network", build)
    return built


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_field_equals_the_full_drain_and_counters_span_the_window(
    name, networks
):
    cfg = CONFIGS[name]
    fields, (start, end), last = full_drain(cfg)
    result = run_simulation(cfg)

    for field, want in fields.items():
        got = getattr(result, field)
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), field
        else:
            assert got == want, field
    assert result.misspeculations == end[0] - start[0]
    assert result.speculative_wins == end[1] - start[1]
    assert (result.packets_lost, result.delivered_fraction,
            result.fault_counters, result.degraded_mode,
            result.degraded_throughput) == (0, 1.0, {}, False, 1.0)
    assert networks[0].time == stop_cycle(cfg, last)


def test_the_drain_ends_early_below_saturation_and_runs_out_above(networks):
    for name in ("mesh/wf/pessimistic/uniform", "fbfly/sep_if/pessimistic/uniform"):
        cfg = CONFIGS[name]
        run_simulation(cfg)
        total = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles
        assert cfg.warmup_cycles + cfg.measure_cycles < networks[-1].time < total
    saturated = CONFIGS["saturated/drain runs out"]
    assert full_drain(saturated)[2] is None
    run_simulation(saturated)
    assert networks[-1].time == 130
    run_simulation(CONFIGS["measure_cycles=0"])
    assert networks[-1].time == 30  # nothing to wait for: no drain at all
    run_simulation(CONFIGS["drain_cycles=0"])
    assert networks[-1].time == 110


MODES = {
    "plain": lambda cfg: run_simulation(cfg),
    "observed": lambda cfg: run_simulation(cfg, observer=SimObserver(sample_every=20)),
    "profiled": lambda cfg: run_simulation(cfg, profiler=PhaseProfiler()),
    "watchdog": lambda cfg: run_simulation(replace(cfg, watchdog_cycles=50)),
}


@pytest.mark.parametrize("name", [
    "mesh/wf/pessimistic/uniform", "fbfly/wf/conventional/transpose",
    "saturated/drain runs out",
])
def test_every_run_loop_stops_at_the_same_cycle(name, networks):
    cfg = CONFIGS[name]
    results = {mode: run(cfg) for mode, run in MODES.items()}
    stops = {mode: net.time for mode, net in zip(MODES, networks)}
    assert len(set(stops.values())) == 1, stops
    results["watchdog"].config = cfg
    assert len({canonical(r) for r in results.values()}) == 1


def test_a_faulted_point_runs_the_whole_drain(networks):
    # One link down for the first ten cycles only: every measured packet
    # lands early, and the drain still runs to its bound.
    cfg = replace(
        CONFIGS["mesh/wf/pessimistic/uniform"],
        faults=FaultPlan(link_faults=(LinkFault(9, 1, 0, 10),)),
    )
    result = run_simulation(cfg)
    assert networks[0].time == 30 + 80 + 200
    assert result.delivered_fraction == 1.0
    assert result.fault_counters
    # The same point without faults stops well before that.
    run_simulation(replace(cfg, faults=None))
    assert networks[1].time < 30 + 80 + 200
