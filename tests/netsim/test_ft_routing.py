"""Fault-tolerant routing (``routing="ft_dor"`` / ``"ft_ugal"``).

The acceptance bar for the robustness work (docs/ROBUSTNESS.md): any
single permanent link fault on the mesh must not cost a single packet
under fault-tolerant routing at low load, while the same fault under
plain DOR strands traffic.  The hypothesis case samples the faulted
link from every directed inter-router link of the 8x8 mesh; the
deterministic cases pin the VC partition, the detour tables and the
cross-kernel contracts.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.resilience import mesh_link_candidates
from repro.faults import FaultPlan, LinkFault
from repro.netsim.routing.dor import DORMeshRouting
from repro.netsim.routing.ft import FTDORMeshRouting
from repro.netsim.simulator import SimulationConfig, run_simulation
from repro.netsim.topology import build_mesh

# V = 8 on the mesh: the default partition spends it as 2 message
# classes x 4 VCs, the ft partition as 2 x 2 classes x 2 VCs -- same
# total buffering, so the comparison charges ft for its escape layer.
FT_CFG = SimulationConfig(
    vcs_per_class=2,
    routing="ft_dor",
    injection_rate=0.05,
    warmup_cycles=60,
    measure_cycles=120,
    drain_cycles=300,
    watchdog_cycles=400,
)
DOR_CFG = replace(FT_CFG, routing="default", vcs_per_class=4)

LINKS = mesh_link_candidates()


def single_fault(router: int, port: int) -> FaultPlan:
    return FaultPlan(link_faults=(LinkFault(router, port, 0, None),))


class TestPartition:
    def test_escape_layer_doubles_the_resource_classes(self):
        part = FTDORMeshRouting(8).partition(2)
        assert part.num_message_classes == 2
        assert part.num_resource_classes == 2
        assert part.vcs_per_class == 2
        assert part.num_vcs == 8

    def test_transition_is_one_way_into_the_escape_class(self):
        part = FTDORMeshRouting(8).partition(1)
        assert list(part.resource_transitions[0]) == [True, True]
        assert list(part.resource_transitions[1]) == [False, True]

    def test_builder_wires_the_partition(self):
        net = build_mesh(vcs_per_class=1, routing="ft_dor")
        assert isinstance(net.routing, FTDORMeshRouting)
        assert net.routers[0].num_vcs == 4  # 2 classes x 2 phases x 1 VC

    def test_unknown_routing_mode_rejected(self):
        with pytest.raises(ValueError, match="ft_dor"):
            build_mesh(routing="adaptive")

    def test_torus_rejects_ft_routing(self):
        cfg = replace(FT_CFG, topology="torus")
        with pytest.raises(ValueError, match="routing"):
            run_simulation(cfg)


class TestDetourTables:
    def test_fault_free_routes_match_dor(self):
        net = build_mesh(vcs_per_class=1, routing="ft_dor")
        dor = DORMeshRouting(8)
        ft = net.routing
        assert ft.fault_state is None

        class Pkt:
            message_class = 0
            resource_class = 0
            escape_phase = 0

        for rid in (0, 9, 27, 63):
            for dest in (0, 7, 56, 63):
                if rid == dest:
                    continue
                pkt = Pkt()
                pkt.dest = dest
                assert ft.route(net, net.routers[rid], pkt) == dor.route(
                    net, net.routers[rid], pkt
                )
                assert pkt.resource_class == 0  # no spurious escapes

    def test_single_fault_keeps_every_pair_routable(self):
        net = build_mesh(vcs_per_class=1, routing="ft_dor")
        state = single_fault(27, 1).materialize(
            [r.num_ports for r in net.routers], net.routers[0].num_vcs, 1000
        )
        net.attach_fault_state(state)
        assert all(
            net.routing.routable(s, d) for s in range(64) for d in range(64)
        )

    def test_ejection_fault_partitions_only_that_terminal(self):
        net = build_mesh(vcs_per_class=1, routing="ft_dor")
        state = single_fault(27, 0).materialize(  # port 0 = terminal
            [r.num_ports for r in net.routers], net.routers[0].num_vcs, 1000
        )
        net.attach_fault_state(state)
        routable = net.routing.routable
        assert not routable(0, 27)
        assert routable(27, 0)  # injection still works; ejection is dead
        assert routable(0, 63)

    def test_detach_restores_the_fault_free_tables(self):
        net = build_mesh(vcs_per_class=1, routing="ft_dor")
        state = single_fault(27, 1).materialize(
            [r.num_ports for r in net.routers], net.routers[0].num_vcs, 1000
        )
        net.attach_fault_state(state)
        net.attach_fault_state(None)
        assert net.routing.fault_state is None
        assert net.terminals[0].routable_fn is None


class TestAcceptance:
    """ISSUE acceptance: one permanent link fault, V=8 mesh, low load."""

    def test_ft_dor_delivers_everything(self):
        cfg = replace(FT_CFG, faults=single_fault(27, 1))
        result = run_simulation(cfg)
        assert result.delivered_fraction == 1.0
        assert not result.degraded_mode
        assert result.fault_counters["watchdog_degraded_trips"] == 0
        assert result.fault_counters["packets_unroutable"] == 0
        assert result.fault_counters["escape_reroutes"] > 0

    def test_plain_dor_strands_packets_on_the_same_fault(self):
        cfg = replace(DOR_CFG, faults=single_fault(27, 1))
        result = run_simulation(cfg)
        assert result.packets_lost > 0
        assert result.delivered_fraction < 1.0

    @settings(max_examples=6, deadline=None)
    @given(link=st.sampled_from(LINKS))
    def test_any_single_link_fault_is_tolerated(self, link):
        plan = single_fault(*link)
        ft = run_simulation(replace(FT_CFG, faults=plan))
        assert ft.delivered_fraction == 1.0
        assert not ft.degraded_mode
        assert ft.fault_counters["watchdog_degraded_trips"] == 0
        dor = run_simulation(replace(DOR_CFG, faults=plan))
        assert dor.packets_lost > 0


class TestKernelContracts:
    def test_reference_and_fast_agree_under_faults(self):
        cfg = replace(FT_CFG, faults=single_fault(9, 3))
        fast = run_simulation(cfg, kernel="fast").to_payload()
        ref = run_simulation(cfg, kernel="reference").to_payload()
        assert fast == ref

    def test_compiled_matches_fast_under_faults(self):
        # With a fault state attached both kernels bind the hooked render
        # of the generated step, so agreement is the contract being
        # restated -- pinned here so the two bindings cannot drift.
        cfg = replace(FT_CFG, faults=single_fault(9, 3))
        fast = run_simulation(cfg, kernel="fast").to_payload()
        compiled = run_simulation(cfg, kernel="compiled").to_payload()
        assert fast == compiled

    def test_fault_free_ft_bit_identical_across_kernels(self):
        payloads = [
            run_simulation(FT_CFG, kernel=k).to_payload()
            for k in ("reference", "fast", "compiled")
        ]
        assert payloads[0] == payloads[1] == payloads[2]


class TestFTFbfly:
    def test_single_link_fault_tolerated_with_ft_ugal(self):
        cfg = SimulationConfig(
            topology="fbfly",
            vcs_per_class=1,
            routing="ft_ugal",
            injection_rate=0.05,
            warmup_cycles=60,
            measure_cycles=120,
            drain_cycles=300,
            watchdog_cycles=400,
            faults=single_fault(3, 5),  # an inter-router express link
        )
        result = run_simulation(cfg)
        assert result.delivered_fraction == 1.0
        assert not result.degraded_mode

    def test_fault_free_ft_ugal_matches_plain_ugal(self):
        base = SimulationConfig(
            topology="fbfly",
            vcs_per_class=1,
            injection_rate=0.1,
            warmup_cycles=60,
            measure_cycles=120,
            drain_cycles=120,
        )
        a = run_simulation(replace(base, routing="ft_ugal")).to_payload()
        b = run_simulation(base).to_payload()
        # Config differs (the routing field); every measured number
        # must not.
        a.pop("config"), b.pop("config")
        assert a == b
