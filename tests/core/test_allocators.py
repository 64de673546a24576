"""Unit tests for the generic allocator implementations."""

import numpy as np
import pytest

from repro.core import (
    IterativeSLIPAllocator,
    MaximumSizeAllocator,
    SeparableInputFirstAllocator,
    SeparableOutputFirstAllocator,
    WavefrontAllocator,
    is_matching,
    is_maximal_matching,
    matching_size,
    maximum_matching_size,
)
from repro.core.arbiters import MatrixArbiter
from repro.core.base import as_request_matrix
from repro.core.maxsize import hopcroft_karp

ALL_ALLOCATORS = [
    SeparableInputFirstAllocator,
    SeparableOutputFirstAllocator,
    WavefrontAllocator,
    MaximumSizeAllocator,
    IterativeSLIPAllocator,
]
MAXIMAL_ALLOCATORS = [WavefrontAllocator, MaximumSizeAllocator]


def _rand_requests(rng, m, n, density):
    return rng.random((m, n)) < density


class TestBaseHelpers:
    def test_as_request_matrix_rejects_1d(self):
        with pytest.raises(ValueError):
            as_request_matrix([True, False])

    def test_as_request_matrix_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_request_matrix(np.zeros((2, 3), dtype=bool), shape=(3, 2))

    def test_is_matching_subset_rule(self):
        req = np.zeros((2, 2), dtype=bool)
        gnt = np.zeros((2, 2), dtype=bool)
        gnt[0, 0] = True  # grant without request
        assert not is_matching(req, gnt)

    def test_is_matching_row_rule(self):
        req = np.ones((2, 2), dtype=bool)
        gnt = np.zeros((2, 2), dtype=bool)
        gnt[0, 0] = gnt[0, 1] = True
        assert not is_matching(req, gnt)

    def test_is_matching_col_rule(self):
        req = np.ones((2, 2), dtype=bool)
        gnt = np.zeros((2, 2), dtype=bool)
        gnt[0, 0] = gnt[1, 0] = True
        assert not is_matching(req, gnt)

    def test_is_maximal_detects_missed_grant(self):
        req = np.eye(3, dtype=bool)
        gnt = np.zeros((3, 3), dtype=bool)
        gnt[0, 0] = True
        assert is_matching(req, gnt)
        assert not is_maximal_matching(req, gnt)

    def test_empty_matching_of_empty_requests_is_maximal(self):
        req = np.zeros((3, 3), dtype=bool)
        gnt = np.zeros((3, 3), dtype=bool)
        assert is_maximal_matching(req, gnt)

    def test_matching_size(self):
        gnt = np.eye(4, dtype=bool)
        assert matching_size(gnt) == 4


@pytest.mark.parametrize("cls", ALL_ALLOCATORS)
class TestAllocatorContract:
    def test_grants_are_matchings(self, cls):
        rng = np.random.default_rng(7)
        alloc = cls(5, 5)
        for density in (0.1, 0.4, 0.9):
            for _ in range(50):
                req = _rand_requests(rng, 5, 5, density)
                gnt = alloc.allocate(req)
                assert is_matching(req, gnt)

    def test_rectangular_matrices(self, cls):
        rng = np.random.default_rng(8)
        for m, n in [(3, 7), (7, 3), (1, 5), (5, 1)]:
            alloc = cls(m, n)
            for _ in range(30):
                req = _rand_requests(rng, m, n, 0.5)
                gnt = alloc.allocate(req)
                assert is_matching(req, gnt)

    def test_empty_requests_give_empty_grants(self, cls):
        alloc = cls(4, 4)
        gnt = np.asarray(alloc.allocate(np.zeros((4, 4), dtype=bool)))
        assert not gnt.any()

    def test_identity_requests_fully_granted(self, cls):
        # Non-conflicting requests are granted by every implementation
        # (Section 4.3.2: "all three allocator types are guaranteed to
        # grant non-conflicting requests").
        alloc = cls(4, 4)
        req = np.eye(4, dtype=bool)
        for _ in range(5):
            assert matching_size(alloc.allocate(req)) == 4

    def test_shape_validation(self, cls):
        alloc = cls(3, 3)
        with pytest.raises(ValueError):
            alloc.allocate(np.zeros((3, 4), dtype=bool))

    def test_invalid_dimensions(self, cls):
        with pytest.raises(ValueError):
            cls(0, 3)

    def test_reset_reproduces_sequence(self, cls):
        rng = np.random.default_rng(9)
        reqs = [_rand_requests(rng, 4, 4, 0.6) for _ in range(10)]
        alloc = cls(4, 4)
        first = [alloc.allocate(r).copy() for r in reqs]
        alloc.reset()
        second = [alloc.allocate(r).copy() for r in reqs]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cls", MAXIMAL_ALLOCATORS)
class TestMaximalAllocators:
    def test_maximal(self, cls):
        rng = np.random.default_rng(10)
        alloc = cls(6, 6)
        for _ in range(100):
            req = _rand_requests(rng, 6, 6, 0.3)
            gnt = alloc.allocate(req)
            assert is_maximal_matching(req, gnt)


class TestSeparable:
    def test_input_first_single_bid_per_row(self):
        # With a full request matrix, input-first can produce at most
        # min(m, n) grants but often fewer due to bid collisions; on a
        # matrix where all rows request only column 0 exactly one grant
        # results.
        alloc = SeparableInputFirstAllocator(4, 4)
        req = np.zeros((4, 4), dtype=bool)
        req[:, 0] = True
        gnt = alloc.allocate(req)
        assert matching_size(gnt) == 1

    def test_output_first_single_offer_per_column(self):
        alloc = SeparableOutputFirstAllocator(4, 4)
        req = np.zeros((4, 4), dtype=bool)
        req[0, :] = True  # one requester wants everything
        gnt = alloc.allocate(req)
        assert matching_size(gnt) == 1

    def test_not_always_maximal(self):
        # Classic separable lockout: rows 0 and 1 both request col 0 and
        # col 1.  Input-first with aligned pointers may send both bids to
        # the same column.  We only assert the *possibility* over a
        # stream: wavefront always achieves 2, separable sometimes 1.
        rng = np.random.default_rng(11)
        alloc = SeparableInputFirstAllocator(4, 4)
        wf = WavefrontAllocator(4, 4)
        deficits = 0
        for _ in range(200):
            req = _rand_requests(rng, 4, 4, 0.6)
            if matching_size(alloc.allocate(req)) < matching_size(wf.allocate(req)):
                deficits += 1
        assert deficits > 0

    def test_matrix_arbiter_variant(self):
        rng = np.random.default_rng(12)
        alloc = SeparableInputFirstAllocator(4, 4, arbiter_factory=MatrixArbiter)
        for _ in range(50):
            req = _rand_requests(rng, 4, 4, 0.5)
            assert is_matching(req, alloc.allocate(req))

    def test_fairness_under_persistent_conflict(self):
        # Two rows permanently contend for a single column; the
        # on-success priority update must alternate grants.
        alloc = SeparableInputFirstAllocator(2, 2)
        req = np.array([[True, False], [True, False]])
        winners = []
        for _ in range(10):
            gnt = np.asarray(alloc.allocate(req))
            winners.append(int(np.flatnonzero(gnt[:, 0])[0]))
        assert winners.count(0) == 5
        assert winners.count(1) == 5

    def test_output_first_fairness_under_persistent_conflict(self):
        alloc = SeparableOutputFirstAllocator(2, 2)
        req = np.array([[True, False], [True, False]])
        winners = [int(np.flatnonzero(np.asarray(alloc.allocate(req))[:, 0])[0])
                   for _ in range(10)]
        assert winners.count(0) == 5
        assert winners.count(1) == 5


class TestWavefront:
    def test_diagonal_rotates(self):
        wf = WavefrontAllocator(4, 4)
        assert wf.priority_diagonal == 0
        req = np.zeros((4, 4), dtype=bool)
        req[1, 2] = True
        wf.allocate(req)
        assert wf.priority_diagonal == 1

    def test_idle_cycles_hold_the_diagonal(self):
        """Rotate-after-every-*allocation*: an empty request matrix
        performs no allocation, so the priority diagonal must not move
        (regression for the idle-cycle rotation bug)."""
        wf = WavefrontAllocator(4, 4)
        empty = np.zeros((4, 4), dtype=bool)
        req = np.zeros((4, 4), dtype=bool)
        req[0, 0] = True

        seen = []
        # Interleave idle cycles with real allocations: the diagonal
        # sequence must be driven by allocations alone.
        for _ in range(3):
            seen.append(wf.priority_diagonal)
            wf.allocate(empty)
            assert wf.priority_diagonal == seen[-1]
            grants = np.asarray(wf.allocate(req))
            assert grants.any()
        assert seen == [0, 1, 2]

    def test_fixed_priority_ablation_unaffected_by_idle(self):
        wf = WavefrontAllocator(3, 3, rotate_priority=False)
        wf.allocate(np.zeros((3, 3), dtype=bool))
        assert wf.priority_diagonal == 0

    def test_fixed_priority_variant_starves(self):
        wf = WavefrontAllocator(2, 2, rotate_priority=False)
        req = np.array([[True, True], [True, True]])
        # Fixed diagonal 0 always grants the same anti-diagonal cells
        # {(0,0),(1,1)}.
        for _ in range(5):
            gnt = np.asarray(wf.allocate(req))
            assert gnt[0, 0] and gnt[1, 1]

    def test_rotation_shares_grants(self):
        wf = WavefrontAllocator(2, 2)
        req = np.ones((2, 2), dtype=bool)
        patterns = {tuple(np.asarray(wf.allocate(req)).ravel().tolist())
                    for _ in range(4)}
        assert len(patterns) == 2  # both diagonals get priority

    def test_full_matrix_gets_perfect_matching(self):
        wf = WavefrontAllocator(5, 5)
        req = np.ones((5, 5), dtype=bool)
        assert matching_size(wf.allocate(req)) == 5

    def test_rectangular_padding(self):
        wf = WavefrontAllocator(2, 6)
        req = np.ones((2, 6), dtype=bool)
        for _ in range(8):
            gnt = wf.allocate(req)
            assert matching_size(gnt) == 2
            assert is_maximal_matching(req, gnt)


class TestMaximumSize:
    def test_matches_bruteforce_on_small_matrices(self):
        rng = np.random.default_rng(13)

        def brute_force(req):
            m, n = req.shape
            best = 0
            cols = list(range(n))

            def rec(row, used, count):
                nonlocal best
                best = max(best, count)
                if row == m:
                    return
                rec(row + 1, used, count)
                for j in cols:
                    if req[row, j] and j not in used:
                        rec(row + 1, used | {j}, count + 1)

            rec(0, frozenset(), 0)
            return best

        for _ in range(40):
            req = rng.random((4, 4)) < 0.45
            assert maximum_matching_size(req) == brute_force(req)

    def test_beats_or_ties_everyone(self):
        rng = np.random.default_rng(14)
        others = [
            SeparableInputFirstAllocator(5, 5),
            SeparableOutputFirstAllocator(5, 5),
            WavefrontAllocator(5, 5),
        ]
        for _ in range(100):
            req = rng.random((5, 5)) < 0.5
            ms = maximum_matching_size(req)
            for alloc in others:
                assert matching_size(alloc.allocate(req)) <= ms

    def test_hopcroft_karp_known_case(self):
        # K_{3,3} minus a perfect matching still has a perfect matching.
        adjacency = [[1, 2], [0, 2], [0, 1]]
        match = hopcroft_karp(adjacency, 3)
        assert sorted(match) == [0, 1, 2]

    def test_hopcroft_karp_empty(self):
        assert hopcroft_karp([[], []], 3) == [-1, -1]

    def test_augmenting_path_needed(self):
        # Greedy would match row0-col0 and strand row1; HK must augment.
        req = np.array([[True, True], [True, False]])
        assert maximum_matching_size(req) == 2


class TestIterativeSLIP:
    def test_more_iterations_never_hurt(self):
        rng = np.random.default_rng(15)
        one = IterativeSLIPAllocator(6, 6, iterations=1)
        four = IterativeSLIPAllocator(6, 6, iterations=4)
        total1 = total4 = 0
        for _ in range(200):
            req = rng.random((6, 6)) < 0.6
            total1 += matching_size(one.allocate(req))
            total4 += matching_size(four.allocate(req))
        assert total4 >= total1

    def test_n_iterations_give_maximal(self):
        rng = np.random.default_rng(16)
        alloc = IterativeSLIPAllocator(5, 5, iterations=5)
        for _ in range(100):
            req = rng.random((5, 5)) < 0.5
            assert is_maximal_matching(req, alloc.allocate(req))

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            IterativeSLIPAllocator(4, 4, iterations=0)

    def test_desynchronization_under_full_load(self):
        # Under persistent full load iSLIP pointers desynchronize and the
        # allocator achieves 100% throughput (a perfect matching each
        # cycle) after a warm-up.
        alloc = IterativeSLIPAllocator(4, 4, iterations=1)
        req = np.ones((4, 4), dtype=bool)
        sizes = [matching_size(alloc.allocate(req)) for _ in range(20)]
        assert all(s == 4 for s in sizes[8:])
