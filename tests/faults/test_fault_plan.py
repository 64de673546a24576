"""FaultPlan contract: validation, serialization, hashing, expansion.

Plans ride inside :class:`SimulationConfig`, cross process boundaries
and feed cache keys, so they must be picklable, hashable, JSON
round-trippable and -- most importantly -- expand to the *same* event
set everywhere for a fixed seed.
"""

import json
import pickle
import sys

import pytest

from repro.faults import CreditFault, FaultPlan, LinkFault, StuckVC, parse_fault_spec

DIMS = dict(router_ports=[5] * 16, num_vcs=2, horizon=500)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(link_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(stuck_vc_rate=-0.1)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FaultPlan(seed=-1)

    def test_credit_fault_kind_checked(self):
        with pytest.raises(ValueError):
            CreditFault(0, 1, 0, 10, kind="teleport")

    def test_event_lists_normalized_to_tuples(self):
        plan = FaultPlan(link_faults=[LinkFault(0, 1)])
        assert isinstance(plan.link_faults, tuple)

    def test_empty_plan_detected(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(stuck_vc_rate=0.1).is_empty
        assert not FaultPlan(stuck_vcs=(StuckVC(0, 1, 0),)).is_empty
        assert FaultPlan(credit_dup_rate=0.1).draws
        assert not FaultPlan(seed=5, link_faults=(LinkFault(0, 1),)).draws


class TestSerialization:
    PLAN = FaultPlan(
        seed=7,
        link_rate=0.01,
        stuck_vc_rate=0.02,
        credit_drop_rate=0.001,
        link_faults=(LinkFault(3, 2, 10, 40),),
        stuck_vcs=(StuckVC(1, 0, 1, 5),),
        credit_faults=(CreditFault(2, 4, 0, 99, "dup"),),
    )

    def test_dict_round_trip(self):
        assert FaultPlan.from_dict(self.PLAN.to_dict()) == self.PLAN

    def test_json_round_trip(self):
        blob = json.dumps(self.PLAN.to_dict())
        assert FaultPlan.from_dict(json.loads(blob)) == self.PLAN

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.PLAN)) == self.PLAN

    def test_hashable_and_equal_by_value(self):
        twin = FaultPlan.from_dict(self.PLAN.to_dict())
        assert hash(twin) == hash(self.PLAN)
        assert len({twin, self.PLAN}) == 1

    def test_unknown_keys_ignored(self):
        data = self.PLAN.to_dict()
        data["from_the_future"] = 42
        assert FaultPlan.from_dict(data) == self.PLAN


class TestMaterialize:
    def _events(self, state):
        return (state.link_faults, state.stuck_vcs, state.credit_faults)

    def test_same_seed_same_events(self):
        plan = FaultPlan(seed=11, link_rate=0.01, stuck_vc_rate=0.05,
                         credit_drop_rate=0.002, credit_dup_rate=0.002)
        a = plan.materialize(**DIMS)
        b = plan.materialize(**DIMS)
        assert self._events(a) == self._events(b)

    def test_different_seed_different_events(self):
        a = FaultPlan(seed=1, stuck_vc_rate=0.2).materialize(**DIMS)
        b = FaultPlan(seed=2, stuck_vc_rate=0.2).materialize(**DIMS)
        assert self._events(a) != self._events(b)

    def test_explicit_events_survive_expansion(self):
        plan = FaultPlan(link_faults=(LinkFault(4, 1, 0, None),))
        state = plan.materialize(**DIMS)
        assert state.blocked_ports(4, 0) == {1}
        assert state.blocked_ports(4, 499) == {1}

    def test_a_plan_that_never_draws_needs_no_numpy(self, monkeypatch):
        plan = FaultPlan(
            seed=9,
            link_faults=(LinkFault(3, 2, 10, 40),),
            stuck_vcs=(StuckVC(1, 0, 1, 5),),
            credit_faults=(CreditFault(2, 4, 0, 99, "dup"),),
        )
        events = self._events(plan.materialize(**DIMS))
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        assert self._events(plan.materialize(**DIMS)) == events
        with pytest.raises(ImportError):
            FaultPlan(stuck_vc_rate=0.1).materialize(**DIMS)


class TestParseSpec:
    def test_compact_form(self):
        plan = parse_fault_spec("links=0.01,vcs=0.02,drop=0.001,seed=9")
        assert plan == FaultPlan(seed=9, link_rate=0.01, stuck_vc_rate=0.02,
                                 credit_drop_rate=0.001)

    def test_json_file(self, tmp_path):
        plan = FaultPlan(seed=3, credit_dup_rate=0.01)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert parse_fault_spec(str(path)) == plan

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("gremlins=0.5")

    def test_bad_item_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("no-equals-sign")


class TestTopologyValidation:
    """Satellite guarantee: a fault aimed outside the topology fails
    loudly at config time instead of materializing into a no-op."""

    def test_in_bounds_plan_accepted(self):
        plan = FaultPlan(
            link_faults=(LinkFault(15, 4, 0, None),),
            stuck_vcs=(StuckVC(0, 0, 1, 0),),
            credit_faults=(CreditFault(7, 2, 0, 10),),
        )
        plan.validate_topology([5] * 16, 2)  # must not raise

    def test_router_out_of_range(self):
        plan = FaultPlan(link_faults=(LinkFault(16, 0, 0, None),))
        with pytest.raises(ValueError, match="router 16.*16 routers"):
            plan.validate_topology([5] * 16, 2)

    def test_port_out_of_range(self):
        plan = FaultPlan(stuck_vcs=(StuckVC(3, 5, 0, 0),))
        with pytest.raises(ValueError, match="port 5.*5 ports"):
            plan.validate_topology([5] * 16, 2)

    def test_vc_out_of_range(self):
        plan = FaultPlan(credit_faults=(CreditFault(3, 2, 2, 0),))
        with pytest.raises(ValueError, match="VC 2.*2 VCs"):
            plan.validate_topology([5] * 16, 2)

    def test_materialize_validates_first(self):
        plan = FaultPlan(link_faults=(LinkFault(99, 0, 0, None),))
        with pytest.raises(ValueError, match="router 99"):
            plan.materialize(**DIMS)

    def test_simulation_rejects_bad_plan_at_build_time(self):
        from repro.netsim.simulator import SimulationConfig, run_simulation

        cfg = SimulationConfig(
            measure_cycles=50,
            faults=FaultPlan(link_faults=(LinkFault(64, 0, 0, None),)),
        )
        with pytest.raises(ValueError, match="router 64"):
            run_simulation(cfg)
