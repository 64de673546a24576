"""The pure-Python PCG64 stream draws exactly what numpy's generator
draws.

Every simulated packet, every matching-quality request matrix and every
resilience fault set comes from :class:`repro.netsim.rng.PCG64Stream`,
and every pinned result (golden curves, cached sweeps, bench digests)
was computed with ``numpy.random.default_rng``.  These tests compare
the two draw for draw -- scalar, sized and ``permutation`` -- against
whatever numpy is installed, so a change of numpy's stream fails here
instead of quietly moving every table.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import PCG64Stream

SEEDS = [0, 1, 3, 2**32 - 1, 2**32, 2**64 + 1]
TIDS = [0, 63, 255]
NS = [1, 2, 3, 15, 16, 63, 64, 100, 2**20 + 3, 2**31, 2**32]


def draw(rng, op):
    """``op`` is None for ``random()``, else ``n`` for ``integers(n)``;
    ``("random", size)``, ``("integers", n, size)`` and
    ``("permutation", n)`` are the sized draws and the shuffle."""
    if op is None:
        return rng.random()
    if not isinstance(op, tuple):
        return int(rng.integers(op))
    if op[0] == "random":
        return [float(x) for x in rng.random(op[1])]
    if op[0] == "integers":
        return [int(x) for x in rng.integers(op[1], size=op[2])]
    return [int(x) for x in rng.permutation(op[1])]


def assert_same_stream(entropy, ops):
    ours, numpys = PCG64Stream(entropy), np.random.default_rng(entropy)
    for i, op in enumerate(ops):
        assert draw(ours, op) == draw(numpys, op), (entropy, i, op)


@pytest.mark.parametrize("tid", TIDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_interleavings_match_numpy(seed, tid):
    pick = random.Random(f"{seed}/{tid}")
    ops = [None if pick.random() < 0.4 else pick.choice(NS) for _ in range(400)]
    assert_same_stream((seed, tid), ops)


@pytest.mark.parametrize("entropy", [0, 7, 2**64 + 1, [1, 2, 3, 4, 5, 6]])
def test_other_entropy_shapes_match_numpy(entropy):
    # A bare integer, and more words than the 4-word pool holds.
    assert_same_stream(entropy, [None, 63, None, 2**31, 5])


def test_a_buffered_half_word_survives_random_calls():
    # A 32-bit draw splits one 64-bit output and keeps its high half;
    # random() takes fresh outputs and leaves that half for the next
    # 32-bit draw.
    assert_same_stream((5, 9), [63, None, None, 63, 63, None, 2**32, None, 2**32])


SIZES = [0, 1, 2, 3, 40]


@pytest.mark.parametrize("seed", SEEDS)
def test_sized_draws_interleaved_with_scalar_ones_match_numpy(seed):
    pick = random.Random(f"sized/{seed}")
    ops = []
    for _ in range(150):
        kind = pick.random()
        if kind < 0.3:
            ops.append(None if pick.random() < 0.5 else pick.choice(NS))
        elif kind < 0.6:
            ops.append(("random", pick.choice(SIZES)))
        elif kind < 0.9:
            ops.append(("integers", pick.choice(NS), pick.choice(SIZES)))
        else:
            ops.append(("permutation", pick.choice([0, 1, 2, 5, 64, 224])))
    assert_same_stream((seed, 0x5E51), ops)


def test_a_half_word_carries_across_sized_calls():
    # An odd-sized 32-bit draw leaves a half-word buffered; the next
    # integers() call -- scalar or sized -- starts with it, random()
    # and sized random() leave it alone.
    assert_same_stream((5, 9), [("integers", 63, 3), ("random", 2), 63,
                                ("integers", 5, 1), ("integers", 5, 3), None,
                                ("permutation", 9), ("integers", 2**32, 3)])


def test_a_shaped_draw_is_its_flat_draw_in_c_order():
    P, V = 5, 8
    ours, numpys = PCG64Stream(3), np.random.default_rng(3)
    assert ours.random(P * V) == numpys.random((P, V)).ravel().tolist()
    assert ours.integers(P, P * V) == numpys.integers(P, size=(P, V)).ravel().tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 224, 1000])
@pytest.mark.parametrize("seed", [1, 7, 2**32])
def test_permutation_matches_numpy(seed, n):
    # The resilience campaign's fault sets: ``[seed, 0x5E51]`` entropy.
    assert_same_stream([seed, 0x5E51], [("permutation", n), 63, ("permutation", n)])


def test_integers_of_one_consumes_no_draw():
    rng = PCG64Stream((1, 0))
    assert rng.integers(1) == 0
    assert rng.integers(1, 4) == [0, 0, 0, 0]
    assert rng.random() == np.random.default_rng((1, 0)).random()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    tid=st.integers(0, 2**16),
    ops=st.lists(st.one_of(
        st.none(), st.sampled_from(NS), st.integers(1, 2**32),
        st.tuples(st.just("random"), st.integers(0, 9)),
        st.tuples(st.just("integers"), st.integers(1, 2**32), st.integers(0, 9)),
        st.tuples(st.just("permutation"), st.integers(0, 40)),
    ), max_size=60),
)
def test_any_stream_matches_numpy(seed, tid, ops):
    assert_same_stream((seed, tid), ops)


def test_bad_arguments_raise_like_numpy():
    rng = PCG64Stream((1, 0))
    for n in (0, -1):
        with pytest.raises(ValueError):
            np.random.default_rng((1, 0)).integers(n)
        with pytest.raises(ValueError):
            rng.integers(n)
    for entropy in (-1, (1, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="non-negative"):
            PCG64Stream(entropy)
