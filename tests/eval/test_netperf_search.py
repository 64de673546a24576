"""Tests for the saturation-throughput search (with a synthetic
simulator so the binary search is exercised quickly and exactly)."""

import math

import pytest

from repro.eval import netperf
from repro.netsim.simulator import SimulationConfig, SimulationResult


class _FakeNetwork:
    """Analytic M/D/1-ish latency curve with a hard wall at `capacity`."""

    def __init__(self, zero_load=20.0, capacity=0.4):
        self.zero_load = zero_load
        self.capacity = capacity
        self.calls = []

    def run(self, cfg: SimulationConfig) -> SimulationResult:
        self.calls.append(cfg.injection_rate)
        rho = cfg.injection_rate / self.capacity
        if rho >= 1.0:
            latency = float("inf")
            saturated = True
        else:
            latency = self.zero_load * (1 + rho / (2 * (1 - rho)))
            saturated = latency > cfg.latency_cap
        return SimulationResult(
            config=cfg,
            avg_latency=latency,
            measured_packets=1000,
            delivered_packets=1000,
            injected_flit_rate=cfg.injection_rate,
            accepted_flit_rate=min(cfg.injection_rate, self.capacity),
            saturated=saturated,
        )


@pytest.fixture
def fake(monkeypatch):
    net = _FakeNetwork()
    # run_point resolves the simulator from its module on a miss.
    monkeypatch.setattr("repro.netsim.simulator.run_simulation", net.run)
    return net


class TestZeroLoad:
    def test_uses_low_rate(self, fake):
        z = netperf.zero_load_latency(SimulationConfig())
        assert z == pytest.approx(fake.zero_load, rel=0.05)
        assert fake.calls == [0.02]


class TestSaturationSearch:
    def test_converges_to_threshold_crossing(self, fake):
        # limit = 3 * zero_load => rho/(2(1-rho)) = 2 => rho = 0.8.
        sat = netperf.saturation_throughput(
            SimulationConfig(), lo=0.05, hi=1.0, iterations=10
        )
        assert sat == pytest.approx(0.8 * fake.capacity, abs=0.01)

    def test_returns_lo_when_already_saturated(self, fake):
        sat = netperf.saturation_throughput(
            SimulationConfig(), lo=0.9, hi=1.0, iterations=3
        )
        assert sat == 0.9

    def test_search_is_logarithmic(self, fake):
        netperf.saturation_throughput(
            SimulationConfig(), lo=0.05, hi=1.0, iterations=6
        )
        # 1 zero-load + 1 lo-check + 6 bisection steps.
        assert len(fake.calls) == 8


class TestLatencySweepEarlyStop:
    """A sweep never stops early: a saturated point keeps its slot and
    every later rate is still simulated."""

    def test_full_sweep_when_disabled(self, fake):
        curve = netperf.latency_sweep(
            SimulationConfig(latency_cap=100.0),
            rates=(0.1, 0.5, 0.9),
        )
        assert len(curve.points) == 3
