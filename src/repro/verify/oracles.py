"""Packed reference functions ("oracles") for the arbiter equivalence proofs.

Each oracle computes, over packed lanes, what the behavioural model in
:mod:`repro.core` computes per call.  The equivalence checker compares
netlist cones against these oracles because a packed comparison costs a
handful of bigint operations per state, whereas looping the behavioural
model over every lane costs one Python call per lane.

The oracles must themselves be trusted, so they are *cross-validated*
against the behavioural arbiters lane-by-lane -- exhaustively for every
width/state that admits it, by seeded random sampling for the matrix
arbiter at widths whose state space is astronomically large (the matrix
oracle is the behavioural ``select`` definition transliterated, and the
formula is width-uniform, so exhaustive validation at small widths
carries the structure).  :func:`validate_rr_oracle` and
:func:`validate_matrix_oracle` raise on any divergence; the runner
invokes them once per request width it encounters.

State-space enumeration helpers live here too: the round-robin mask is
a thermometer code, so its reachable states are exactly the ``n + 1``
suffix masks (:func:`rr_mask_states`), including the all-zeros mask the
hardware reaches after granting index ``n - 1`` (behaviourally the
pointer wraps to 0; with an all-zero mask the hardware falls through to
the unmasked fixed-priority stage, which is pointer-0 semantics -- the
equivalence sweep proves this correspondence rather than assuming it).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..core.arbiters import MatrixArbiter, RoundRobinArbiter
from .engine import decode_lane

__all__ = [
    "fixed_priority_packed",
    "rr_mask_states",
    "rr_grants_packed",
    "matrix_grants_packed",
    "wavefront_grants_packed",
    "validate_rr_oracle",
    "validate_matrix_oracle",
    "validate_wavefront_oracle",
]


def fixed_priority_packed(requests: Sequence[int], mask: int) -> List[int]:
    """Lowest-index-wins grants, lane-parallel.

    ``grants[i] = requests[i] & ~(requests[0] | ... | requests[i-1])``.
    """
    grants: List[int] = []
    seen = 0
    for r in requests:
        grants.append(r & (mask ^ seen))
        seen |= r
    return grants


def rr_mask_states(n: int) -> List[Tuple[int, List[int]]]:
    """All reachable round-robin mask states as ``(pointer, mask_bits)``.

    The mask is a thermometer code "1 at and after the pointer": after
    granting index ``w`` the new mask is 1 strictly after ``w``, so the
    reachable set is exactly the suffix masks for ``k = 0..n`` (``k=0``
    is the all-ones reset state).  ``k = n`` (all zeros, reached after a
    grant to ``n - 1``) behaves as pointer ``0``: no request survives
    the mask, so the unmasked fixed-priority stage decides -- the same
    outcome as a pointer at index 0.  Hence ``pointer = k % n``.
    """
    return [(k % n, [1 if i >= k else 0 for i in range(n)]) for k in range(n + 1)]


def rr_grants_packed(
    requests: Sequence[int], mask_bits: Sequence[int], mask: int
) -> List[int]:
    """Round-robin grants for a fixed thermometer mask, lane-parallel.

    Masked requests win by fixed priority when any exists, else the
    unmasked requests decide -- the dual-prefix structure of both the
    behavioural pointer search and the hardware.
    """
    masked = [r if b else 0 for r, b in zip(requests, mask_bits)]
    any_masked = 0
    for m in masked:
        any_masked |= m
    g_masked = fixed_priority_packed(masked, mask)
    g_unmasked = fixed_priority_packed(requests, mask)
    return [
        (any_masked & gm) | ((mask ^ any_masked) & gu)
        for gm, gu in zip(g_masked, g_unmasked)
    ]


def matrix_grants_packed(
    requests: Sequence[int],
    beats: Dict[Tuple[int, int], int],
    mask: int,
) -> List[int]:
    """Matrix-arbiter grants, lane-parallel.

    ``beats[(j, i)]`` is the packed word for "j currently beats i", for
    every ordered pair ``j != i`` (callers derive the lower triangle by
    complementing the stored upper triangle, mirroring the hardware's
    INV).  ``grants[i] = req[i] & ~OR_{j != i}(req[j] & beats[(j, i)])``
    -- the behavioural ``select`` definition verbatim.
    """
    n = len(requests)
    grants: List[int] = []
    for i in range(n):
        deny = 0
        for j in range(n):
            if j != i:
                deny |= requests[j] & beats[(j, i)]
        grants.append(requests[i] & (mask ^ deny))
    return grants


def wavefront_grants_packed(
    req: Sequence[Sequence[int]],
    diagonal: int,
    mask: int,
) -> List[List[int]]:
    """Wavefront-allocator grants for a fixed priority diagonal.

    ``req[i][j]`` are packed request words for an ``n x n`` matrix.
    Implements the greedy wave recurrence the hardware's tile array
    computes: visit cells in wave order (diagonal distance from the
    priority diagonal, row-major within a wave) and grant iff the row
    and column are still free.  Cells on one wave never share a row or
    column, so intra-wave order is irrelevant -- this is also exactly
    what :meth:`repro.core.wavefront.WavefrontAllocator.allocate` does
    via its stable sort on wave index.
    """
    n = len(req)
    row_free = [mask] * n
    col_free = [mask] * n
    grants = [[0] * n for _ in range(n)]
    cells = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: ((ij[0] + ij[1] - diagonal) % n, ij[0], ij[1]),
    )
    for i, j in cells:
        g = req[i][j] & row_free[i] & col_free[j]
        grants[i][j] = g
        row_free[i] &= mask ^ g
        col_free[j] &= mask ^ g
    return grants


def _lane_words(num_vars: int) -> List[int]:
    """Variable words over the full lane hypercube (bit L = (L >> i) & 1)."""
    total = 1 << num_vars
    words = []
    for i in range(num_vars):
        half = 1 << i
        m = ((1 << half) - 1) << half
        width = half * 2
        while width < total:
            m |= m << width
            width *= 2
        words.append(m & ((1 << total) - 1))
    return words


def validate_rr_oracle(n: int) -> None:
    """Prove :func:`rr_grants_packed` equals :class:`RoundRobinArbiter`.

    Exhaustive over all ``2^n`` request vectors and all ``n + 1``
    reachable mask states; raises ``AssertionError`` on divergence.
    """
    arb = RoundRobinArbiter(n)
    words = _lane_words(n)
    total = 1 << n
    mask = (1 << total) - 1
    for pointer, bits in rr_mask_states(n):
        packed = rr_grants_packed(words, bits, mask)
        arb.set_pointer(pointer)
        for lane in range(total):
            reqs = decode_lane(lane, n)
            winner = arb.select([bool(b) for b in reqs])
            for i in range(n):
                got = (packed[i] >> lane) & 1
                want = 1 if winner == i else 0
                assert got == want, (
                    f"rr oracle n={n} pointer={pointer} lane={lane:0{n}b}: "
                    f"grant[{i}]={got}, behavioural={want}"
                )


def validate_matrix_oracle(n: int, samples: int = 256, seed: int = 0) -> None:
    """Prove :func:`matrix_grants_packed` equals :class:`MatrixArbiter`.

    Exhaustive over all request vectors x all antisymmetric priority
    matrices when ``n <= 5`` (``2^n * 2^(n(n-1)/2)`` states); seeded
    random matrices with exhaustive request sweeps above that.
    """
    arb = MatrixArbiter(n)
    words = _lane_words(n)
    total = 1 << n
    mask = (1 << total) - 1
    npairs = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    if n <= 5:
        tri_states = range(1 << npairs)
    else:
        rng = random.Random(seed)
        tri_states = [rng.getrandbits(npairs) for _ in range(samples)]

    for tri in tri_states:
        beats: Dict[Tuple[int, int], int] = {}
        matrix = [[False] * n for _ in range(n)]
        for idx, (i, j) in enumerate(pairs):
            bit = (tri >> idx) & 1
            beats[(i, j)] = mask if bit else 0
            beats[(j, i)] = 0 if bit else mask
            matrix[i][j] = bool(bit)
            matrix[j][i] = not bit
        packed = matrix_grants_packed(words, beats, mask)
        arb.set_beats(matrix)
        for lane in range(total):
            reqs = decode_lane(lane, n)
            winner = arb.select([bool(b) for b in reqs])
            for i in range(n):
                got = (packed[i] >> lane) & 1
                want = 1 if winner == i else 0
                assert got == want, (
                    f"matrix oracle n={n} tri={tri:0{npairs}b} "
                    f"lane={lane:0{n}b}: grant[{i}]={got}, behavioural={want}"
                )


def validate_wavefront_oracle(n: int) -> None:
    """Prove :func:`wavefront_grants_packed` equals ``WavefrontAllocator``.

    Exhaustive over all ``2^(n*n)`` request matrices and all ``n``
    priority diagonals (callers keep ``n`` small; ``n = 3`` is 512
    matrices, ``n = 4`` is 65536).
    """
    from ..core.wavefront import WavefrontAllocator

    nn = n * n
    words = _lane_words(nn)
    total = 1 << nn
    mask = (1 << total) - 1
    req = [[words[i * n + j] for j in range(n)] for i in range(n)]
    alloc = WavefrontAllocator(n, n)
    for d in range(n):
        packed = wavefront_grants_packed(req, d, mask)
        for lane in range(total):
            bits = decode_lane(lane, nn)
            alloc.set_diagonal(d)
            grants = alloc.allocate([bits[i * n:(i + 1) * n] for i in range(n)])
            for i in range(n):
                for j in range(n):
                    got = (packed[i][j] >> lane) & 1
                    want = 1 if grants[i][j] else 0
                    assert got == want, (
                        f"wavefront oracle n={n} diag={d} lane={lane}: "
                        f"grant[{i}][{j}]={got}, behavioural={want}"
                    )
