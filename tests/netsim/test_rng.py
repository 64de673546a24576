"""The terminals' pure-Python PCG64 stream draws exactly what numpy's
generator draws.

Every simulated packet comes from :class:`repro.netsim.rng.PCG64Stream`,
and every pinned result (golden curves, cached sweeps, bench digests)
was computed with ``numpy.random.default_rng((seed, tid))``.  These
tests compare the two draw for draw against whatever numpy is
installed, so a change of numpy's stream fails here instead of quietly
moving every table.
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
    """``op`` is None for ``random()``, else ``n`` for ``integers(n)``."""
    return rng.random() if op is None else int(rng.integers(op))


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


def test_integers_of_one_consumes_no_draw():
    rng = PCG64Stream((1, 0))
    assert rng.integers(1) == 0
    assert rng.random() == np.random.default_rng((1, 0)).random()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    tid=st.integers(0, 2**16),
    ops=st.lists(st.one_of(st.none(), st.sampled_from(NS), st.integers(1, 2**32)),
                 max_size=60),
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
