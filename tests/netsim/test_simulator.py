"""Tests for the simulation driver, traffic model and statistics."""

import numpy as np
import pytest

from repro.netsim.flit import PacketType
from repro.netsim.simulator import (
    FLITS_PER_TRANSACTION,
    SimulationConfig,
    build_network,
    run_simulation,
    validate_config,
)
from repro.netsim.topology import build_mesh
from repro.netsim.traffic import permutation_dest, uniform_random_dest


class TestConfig:
    def test_packet_rate_conversion(self):
        cfg = SimulationConfig(injection_rate=0.3)
        assert cfg.packet_rate == pytest.approx(0.3 / FLITS_PER_TRANSACTION)

    def test_flits_per_transaction_matches_traffic_model(self):
        # read: 1 + 5; write: 5 + 1 -> always 6.
        for req in (PacketType.READ_REQUEST, PacketType.WRITE_REQUEST):
            assert req.size + req.reply_type.size == FLITS_PER_TRANSACTION

    @pytest.mark.parametrize("bad,message", [
        (dict(buffer_depth=0), "buffer_depth must be >= 1, got 0"),
        (dict(buffer_depth=-1), "buffer_depth must be >= 1, got -1"),
        (dict(buffer_depth=1.5), "buffer_depth must be an integer, got 1.5"),
        (dict(buffer_depth=True), "buffer_depth must be an integer, got True"),
        (dict(warmup_cycles=2.5), "warmup_cycles must be an integer, got 2.5"),
        (dict(seed=False), "seed must be an integer, got False"),
        (dict(vcs_per_class=2.0), "vcs_per_class must be an integer, got 2.0"),
        (dict(latency_cap=float("nan")), "latency_cap must be > 0, got nan"),
        (dict(latency_cap=0.0), "latency_cap must be > 0, got 0.0"),
        (dict(latency_cap=-5), "latency_cap must be > 0, got -5"),
        # Each of these used to raise only once a network was built, or
        # not at all.
        (dict(sw_alloc_arch="bogus"),
         "sw_alloc_arch must be one of sep_if, sep_of, wf, got 'bogus'"),
        (dict(vc_alloc_arch="bogus"),
         "vc_alloc_arch must be one of sep_if, sep_of, wf, got 'bogus'"),
        (dict(vc_alloc_arbiter="bogus"),
         "vc_alloc_arbiter must be one of rr, m, fixed, got 'bogus'"),
        (dict(sw_alloc_arbiter="bogus"),
         "sw_alloc_arbiter must be one of rr, m, fixed, got 'bogus'"),
        (dict(speculation="bogus"),
         "speculation must be one of nonspec, conventional, pessimistic, "
         "got 'bogus'"),
        (dict(vcs_per_class=0), "vcs_per_class must be >= 1, got 0"),
        (dict(vcs_per_class=-1), "vcs_per_class must be >= 1, got -1"),
        # The kernel generator wrote `is not 0` for this one.
        (dict(lookahead=0), "lookahead must be a bool, got 0"),
        # Ran with the watchdog off, under a cache key of its own.
        (dict(watchdog_cycles=-5), "watchdog_cycles must be >= 0, got -5"),
    ])
    def test_a_config_no_run_can_mean_is_one_value_error(self, bad, message):
        with pytest.raises(ValueError) as err:
            validate_config(SimulationConfig(**bad))
        assert str(err.value) == message

    def test_any_index_integer_and_an_infinite_cap_stay_legal(self):
        validate_config(SimulationConfig(
            buffer_depth=np.int64(4), seed=np.uint32(7),
            latency_cap=float("inf"),
        ))


class TestTrafficHelpers:
    def test_uniform_random_never_self(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert uniform_random_dest(rng, 5, 16) != 5

    def test_uniform_random_covers_all_destinations(self):
        rng = np.random.default_rng(1)
        seen = {uniform_random_dest(rng, 0, 8) for _ in range(500)}
        assert seen == set(range(1, 8))

    def test_permutation_dest(self):
        perm = [3, 2, 1, 0]
        fn = permutation_dest(perm)
        rng = np.random.default_rng(0)
        assert fn(rng, 0, 4) == 3
        assert fn(rng, 3, 4) == 0


class TestTerminalBehaviour:
    def test_replies_take_priority_over_requests(self):
        net = build_mesh(4, packet_rate=0.0)
        term = net.terminals[0]
        from repro.netsim.flit import Packet

        req = Packet(0, 5, PacketType.READ_REQUEST, birth_time=0)
        rep = Packet(0, 6, PacketType.WRITE_REPLY, birth_time=0)
        term.request_queue.append(req)
        term.reply_queue.append(rep)
        net.run(3)
        # The reply's head must be injected first.
        assert rep.inject_time is not None
        assert req.inject_time is None or req.inject_time > rep.inject_time

    def test_vc_choice_respects_message_class(self):
        net = build_mesh(4, vcs_per_class=2, packet_rate=0.0)
        term = net.terminals[0]
        part = term.router.partition
        from repro.netsim.flit import Packet

        reply = Packet(0, 5, PacketType.READ_REPLY, birth_time=0)
        vc = term._choose_vc(net, reply)
        assert vc in part.class_vcs(1, 0)  # reply message class

    def test_injection_respects_credits(self):
        net = build_mesh(4, packet_rate=0.0)
        term = net.terminals[0]
        for v in range(term.router.num_vcs):
            term.credits[v] = 0
        from repro.netsim.flit import Packet

        term.request_queue.append(Packet(0, 5, PacketType.READ_REQUEST, 0))
        net.run(5)
        assert term.injected_flits == 0

    def test_generation_rate_statistics(self):
        # Over many cycles the geometric process produces ~rate packets.
        cfg = SimulationConfig(
            topology="mesh",
            injection_rate=0.3,
            warmup_cycles=0,
            measure_cycles=2000,
            drain_cycles=0,
        )
        net = build_network(cfg)
        net.run(2000)
        generated = sum(t.generated_packets for t in net.terminals)
        expected = cfg.packet_rate * 2000 * 64
        assert generated == pytest.approx(expected, rel=0.1)

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(
            topology="mesh",
            injection_rate=0.1,
            seed=5,
            warmup_cycles=100,
            measure_cycles=300,
            drain_cycles=300,
        )
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert r1.avg_latency == r2.avg_latency
        assert r1.measured_packets == r2.measured_packets

    def test_different_seeds_differ(self):
        base = dict(
            topology="mesh",
            injection_rate=0.1,
            warmup_cycles=100,
            measure_cycles=300,
            drain_cycles=300,
        )
        r1 = run_simulation(SimulationConfig(seed=1, **base))
        r2 = run_simulation(SimulationConfig(seed=2, **base))
        assert r1.avg_latency != r2.avg_latency


class TestSimulationResults:
    def test_result_str(self):
        cfg = SimulationConfig(
            topology="mesh",
            injection_rate=0.05,
            warmup_cycles=50,
            measure_cycles=200,
            drain_cycles=300,
        )
        res = run_simulation(cfg)
        s = str(res)
        assert "latency" in s and "rate" in s

    def test_latency_by_message_class(self):
        cfg = SimulationConfig(
            topology="mesh",
            injection_rate=0.1,
            warmup_cycles=100,
            measure_cycles=500,
            drain_cycles=500,
        )
        res = run_simulation(cfg)
        assert set(res.latency_by_class) == {0, 1}
        for v in res.latency_by_class.values():
            assert v > 0

    def test_injected_rate_tracks_offered_load(self):
        cfg = SimulationConfig(
            topology="mesh",
            injection_rate=0.2,
            warmup_cycles=300,
            measure_cycles=1500,
            drain_cycles=500,
        )
        res = run_simulation(cfg)
        assert res.injected_flit_rate == pytest.approx(0.2, rel=0.15)
        assert res.accepted_flit_rate == pytest.approx(0.2, rel=0.15)
        assert not res.saturated

    def test_saturation_detected_at_absurd_load(self):
        cfg = SimulationConfig(
            topology="mesh",
            vcs_per_class=1,
            injection_rate=0.9,
            warmup_cycles=300,
            measure_cycles=800,
            drain_cycles=200,
        )
        res = run_simulation(cfg)
        assert res.saturated

    def test_zero_rate_runs_clean(self):
        cfg = SimulationConfig(
            topology="fbfly",
            injection_rate=0.0,
            warmup_cycles=10,
            measure_cycles=50,
            drain_cycles=10,
        )
        res = run_simulation(cfg)
        assert res.measured_packets == 0
        assert res.avg_latency == float("inf")
