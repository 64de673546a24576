"""Unit tests for arbiter primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbiters import (
    FixedPriorityArbiter,
    MatrixArbiter,
    RoundRobinArbiter,
    TreeArbiter,
    make_arbiter,
)

ALL_ARBITERS = [FixedPriorityArbiter, RoundRobinArbiter, MatrixArbiter]


def _mask(n, *indices):
    m = [False] * n
    for i in indices:
        m[i] = True
    return m


@pytest.mark.parametrize("cls", ALL_ARBITERS)
class TestArbiterContract:
    def test_no_requests_no_winner(self, cls):
        arb = cls(4)
        assert arb.select([False] * 4) is None

    def test_single_request_wins(self, cls):
        arb = cls(4)
        for i in range(4):
            assert arb.select(_mask(4, i)) == i

    def test_winner_is_a_requester(self, cls):
        arb = cls(5)
        reqs = _mask(5, 1, 3)
        for _ in range(10):
            w = arb.arbitrate(reqs)
            assert w in (1, 3)

    def test_wrong_width_rejected(self, cls):
        arb = cls(4)
        with pytest.raises(ValueError):
            arb.select([True] * 5)

    def test_advance_out_of_range_rejected(self, cls):
        arb = cls(4)
        with pytest.raises(ValueError):
            arb.advance(4)

    def test_select_is_pure(self, cls):
        arb = cls(4)
        reqs = _mask(4, 1, 2)
        first = arb.select(reqs)
        for _ in range(5):
            assert arb.select(reqs) == first

    def test_zero_inputs_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    def test_reset_restores_initial_choice(self, cls):
        arb = cls(4)
        reqs = [True] * 4
        initial = arb.select(reqs)
        arb.arbitrate(reqs)
        arb.arbitrate(reqs)
        arb.reset()
        assert arb.select(reqs) == initial

    def test_arbitrate_update_false_keeps_state(self, cls):
        arb = cls(4)
        reqs = [True] * 4
        w1 = arb.arbitrate(reqs, update=False)
        w2 = arb.arbitrate(reqs, update=False)
        assert w1 == w2

    def test_single_input_arbiter(self, cls):
        arb = cls(1)
        assert arb.select([True]) == 0
        assert arb.select([False]) is None
        arb.advance(0)
        assert arb.select([True]) == 0


class TestFixedPriority:
    def test_lowest_index_always_wins(self):
        arb = FixedPriorityArbiter(5)
        assert arb.arbitrate(_mask(5, 2, 4)) == 2
        # No rotation: same winner forever.
        assert arb.arbitrate(_mask(5, 2, 4)) == 2

    def test_starvation(self):
        arb = FixedPriorityArbiter(3)
        for _ in range(10):
            assert arb.arbitrate([True, True, False]) == 0


class TestRoundRobin:
    def test_pointer_moves_past_winner(self):
        arb = RoundRobinArbiter(4)
        assert arb.arbitrate([True] * 4) == 0
        assert arb.pointer == 1
        assert arb.arbitrate([True] * 4) == 1
        assert arb.pointer == 2

    def test_round_robin_order_under_full_load(self):
        arb = RoundRobinArbiter(4)
        winners = [arb.arbitrate([True] * 4) for _ in range(8)]
        assert winners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_idle_inputs(self):
        arb = RoundRobinArbiter(4)
        winners = [arb.arbitrate(_mask(4, 1, 3)) for _ in range(4)]
        assert winners == [1, 3, 1, 3]

    def test_wraps_around(self):
        arb = RoundRobinArbiter(4)
        arb.advance(3)  # pointer -> 0
        assert arb.pointer == 0
        arb.advance(2)  # pointer -> 3
        assert arb.select(_mask(4, 0, 1)) == 0

    def test_weak_fairness_bound(self):
        # A persistent requester is served at least once per n grants.
        n = 6
        arb = RoundRobinArbiter(n)
        since_served = 0
        for _ in range(100):
            w = arb.arbitrate([True] * n)
            since_served = 0 if w == 5 else since_served + 1
            assert since_served < n


class TestMatrixArbiter:
    def test_initial_priority_is_index_order(self):
        arb = MatrixArbiter(4)
        assert arb.select([True] * 4) == 0

    def test_winner_becomes_least_recently_served(self):
        arb = MatrixArbiter(3)
        assert arb.arbitrate([True] * 3) == 0
        # 0 lost priority to everyone.
        assert arb.beats(1, 0) and arb.beats(2, 0)
        assert arb.arbitrate([True] * 3) == 1
        assert arb.arbitrate([True] * 3) == 2
        assert arb.arbitrate([True] * 3) == 0

    def test_least_recently_served_property(self):
        # Serve 2, then with {0, 2} requesting, 0 must win (served less
        # recently).
        arb = MatrixArbiter(3)
        arb.advance(0)
        arb.advance(2)
        assert arb.select(_mask(3, 0, 2)) == 0

    def test_strong_fairness_under_full_load(self):
        n = 5
        arb = MatrixArbiter(n)
        winners = [arb.arbitrate([True] * n) for _ in range(3 * n)]
        for i in range(n):
            assert winners.count(i) == 3

    def test_priority_matrix_total_order_invariant(self):
        # For any pair exactly one of beats(i,j) / beats(j,i) holds.
        arb = MatrixArbiter(4)
        for _ in range(20):
            arb.arbitrate([True] * 4)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert arb.beats(i, j) != arb.beats(j, i)


class TestTreeArbiter:
    def test_dimensions(self):
        arb = TreeArbiter(3, 4)
        assert arb.num_inputs == 12

    def test_selects_within_group(self):
        arb = TreeArbiter(2, 3)
        # Only group 1 has requests.
        reqs = [False, False, False, False, True, True]
        w = arb.select(reqs)
        assert w in (4, 5)

    def test_no_requests(self):
        arb = TreeArbiter(2, 2)
        assert arb.select([False] * 4) is None

    def test_rotates_across_groups(self):
        arb = TreeArbiter(2, 2)
        winners = [arb.arbitrate([True] * 4) for _ in range(4)]
        groups = [w // 2 for w in winners]
        # Top-level round robin alternates groups under full load.
        assert groups == [0, 1, 0, 1]

    def test_advance_routes_to_group(self):
        arb = TreeArbiter(2, 2)
        arb.arbitrate([True, True, False, False])  # winner 0, group 0
        # group 0's local pointer moved past 0.
        assert arb.select([True, True, False, False]) == 1

    def test_matrix_leaf_factory(self):
        arb = TreeArbiter(2, 2, MatrixArbiter)
        assert arb.arbitrate([True] * 4) == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TreeArbiter(0, 4)
        with pytest.raises(ValueError):
            TreeArbiter(4, 0)

    def test_full_coverage_under_load(self):
        arb = TreeArbiter(3, 3)
        winners = {arb.arbitrate([True] * 9) for _ in range(30)}
        assert winners == set(range(9))


class TestMakeArbiter:
    def test_kinds(self):
        assert isinstance(make_arbiter("rr", 3), RoundRobinArbiter)
        assert isinstance(make_arbiter("m", 3), MatrixArbiter)
        assert isinstance(make_arbiter("fixed", 3), FixedPriorityArbiter)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arbiter kind"):
            make_arbiter("lru", 3)


# select_sparse is what the generated simulation steps call: it must
# pick exactly what select() picks on the equivalent dense vector, from
# any reachable priority state.
_SPARSE_FACTORIES = {
    "fixed": lambda: FixedPriorityArbiter(6),
    "rr": lambda: RoundRobinArbiter(6),
    "m": lambda: MatrixArbiter(6),
    "tree-rr": lambda: TreeArbiter(2, 3),
    "tree-m": lambda: TreeArbiter(2, 3, MatrixArbiter),
}


@pytest.mark.parametrize("kind", sorted(_SPARSE_FACTORIES))
@given(
    history=st.lists(st.sets(st.integers(0, 5), min_size=1), max_size=6),
    requests=st.sets(st.integers(0, 5)),
)
@settings(max_examples=60, deadline=None)
def test_select_sparse_matches_select(kind, history, requests):
    arb = _SPARSE_FACTORIES[kind]()
    for cycle in history:  # drive the priority state somewhere
        arb.arbitrate(_mask(6, *cycle))
    assert arb.select_sparse(sorted(requests)) == arb.select(_mask(6, *requests))
