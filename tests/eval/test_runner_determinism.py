"""Serial vs parallel sweep determinism.

The whole premise of the sweep engine is that fanning design points out
across worker processes is *free* in terms of reproducibility: every
simulation seeds its RNG streams purely from ``(config.seed,
terminal_id)``, so a point computed in a subprocess must be
bit-identical to the same point computed inline.  These tests pin that
property down for both topologies.
"""

import pytest

from repro.eval.netperf import latency_sweep
from repro.eval.runner import run_sweep
from repro.netsim.simulator import SimulationConfig

# Small but real simulations: long enough to measure packets, short
# enough that a 2-topology matrix stays test-suite friendly.
FAST = dict(warmup_cycles=60, measure_cycles=150, drain_cycles=150)


def _base(topology: str, seed: int = 7) -> SimulationConfig:
    return SimulationConfig(topology=topology, seed=seed, **FAST)


@pytest.mark.parametrize("topology", ["mesh", "fbfly"])
class TestSerialParallelIdentical:
    def test_latency_sweep_points_identical(self, topology):
        rates = (0.05, 0.12, 0.2)
        serial = latency_sweep(_base(topology), rates, jobs=1)
        parallel = latency_sweep(_base(topology), rates, jobs=4)
        assert serial.points == parallel.points

    def test_run_sweep_full_results_identical(self, topology):
        from dataclasses import replace

        configs = [
            replace(_base(topology, seed=s), injection_rate=r)
            for s in (1, 2)
            for r in (0.06, 0.15)
        ]
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=4)
        # Full payload comparison: every statistic, including the
        # latency summary and per-class breakdown, must round-trip
        # through the worker transport unchanged.
        assert len(serial) == len(parallel) == len(configs)
        for a, b in zip(serial, parallel):
            pa, pb = a.to_payload(), b.to_payload()
            # NaN != NaN would fail a naive dict compare; stderr is the
            # only field that can be NaN with these measure windows.
            assert (pa["latency_stderr"] != pa["latency_stderr"]) == (
                pb["latency_stderr"] != pb["latency_stderr"]
            )
            pa.pop("latency_stderr"), pb.pop("latency_stderr")
            assert pa == pb


def test_seed_changes_results():
    """Sanity check that the determinism above is not vacuous: a
    different seed produces a different (still deterministic) curve."""
    a = latency_sweep(_base("mesh", seed=1), (0.15,), jobs=1)
    b = latency_sweep(_base("mesh", seed=2), (0.15,), jobs=1)
    assert a.points != b.points
