"""Deterministic analytic stand-ins for serve integration tests.

Real simulations take seconds per point; protocol and scheduling tests
need none of that fidelity.  :func:`analytic_result` maps a config to a
fully deterministic :class:`~repro.netsim.simulator.SimulationResult`
(an M/M/1-ish latency curve in the injection rate, perturbed by the
seed), so any two workers -- local, remote, or on different test runs
-- produce byte-identical payloads for the same config, which is
exactly the bit-identity contract the real simulator honors.

``analytic_worker`` is the process-pool/worker-loop flavor (dict in,
dict out) for ``repro work --worker-fn repro.serve.testing:analytic_worker``.
``failing_worker`` always raises, for retry/failure-path tests.
"""

from __future__ import annotations

from typing import Dict

from ..netsim.config import SimulationConfig, SimulationResult

__all__ = ["analytic_result", "analytic_sim", "analytic_worker", "failing_worker"]


def analytic_result(cfg: SimulationConfig) -> SimulationResult:
    """Deterministic pseudo-result: latency grows 1/(1-rate)-style."""
    rate = min(max(cfg.injection_rate, 0.0), 0.95)
    zero_load = 20.0 + (cfg.seed % 7)
    latency = zero_load / max(1.0 - rate / 0.6, 0.05)
    saturated = rate >= 0.55
    return SimulationResult(
        config=cfg,
        avg_latency=round(latency, 3),
        measured_packets=1000,
        delivered_packets=1000,
        injected_flit_rate=rate,
        accepted_flit_rate=rate if not saturated else 0.55,
        saturated=saturated,
        # The default stderr is NaN, which is never equal to itself --
        # keep every payload field finite so tests can assert whole-dict
        # equality across the wire.
        latency_stderr=round(latency / 100.0, 4),
    )


def analytic_sim(cfg: SimulationConfig) -> SimulationResult:
    return analytic_result(cfg)


def analytic_worker(cfg_dict: Dict) -> Dict:
    """Worker-loop / process-pool entry: dict in, payload dict out."""
    return analytic_result(SimulationConfig.from_dict(cfg_dict)).to_payload()


def failing_worker(cfg_dict: Dict) -> Dict:
    """Always raises -- exercises retry exhaustion and failure fan-out."""
    raise ValueError(
        f"injected test failure at rate {cfg_dict.get('injection_rate')}"
    )
