"""The terminals' random streams, without numpy.

:class:`PCG64Stream` is a bit-exact pure-Python twin of numpy's
``Generator(PCG64(SeedSequence(entropy)))`` for the two draws the
simulator makes, ``random()`` and ``integers(n)``.  It is the same
arithmetic step for step: ``SeedSequence``'s hash mixing, PCG64's 128-bit
LCG with XSL-RR output, the top 53 bits of an output for ``random()``,
Lemire's multiply-and-reject on 32-bit half-words (the unused high half
kept for the next one) for ``integers(n)``; tests/netsim/test_rng.py
checks it draw for draw against numpy.
"""

from __future__ import annotations

import operator
from typing import List, Tuple

__all__ = ["PCG64Stream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> List[int]:
    """numpy's ``_coerce_to_uint32_array``: 32-bit words, low word first."""
    try:
        n = operator.index(entropy)
    except TypeError:
        return [w for item in entropy for w in _words(item)]
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed(entropy) -> Tuple[int, int]:
    """PCG64's 128-bit ``(state, stream)`` from ``SeedSequence(entropy)``."""
    words, const = _words(entropy), 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class PCG64Stream:
    """Draws exactly what numpy's generator seeded with ``entropy`` draws."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy) -> None:
        initstate, initseq = _seed(entropy)
        # pcg64_srandom_r: step from 0, add the initial state, step.
        self._inc = inc = (initseq << 1 | 1) & _M128
        self._state = ((inc + initstate) * _MULT + inc) & _M128
        self._half = None  # numpy's has_uint32 / uinteger

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, r = (s >> 64) ^ (s & _M64), s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is not None:
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in ``[0, 1)``."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """An integer in ``[0, n)``; ``n == 1`` consumes no draw."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers({n!r}): n must be in [1, 2**32]")
        if n == 1:
            return 0
        threshold = (1 << 32) % n  # numpy: (UINT32_MAX - (n - 1)) % n
        m = self._next32() * n
        while (m & _M32) < threshold:
            m = self._next32() * n
        return m >> 32
