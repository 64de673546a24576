"""Random streams without numpy (terminals, matching experiments, fault sets).

:class:`PCG64Stream` is a bit-exact pure-Python twin of numpy's
``Generator(PCG64(SeedSequence(entropy)))`` for ``random()`` and
``integers(n)``, scalar or sized, and ``permutation(n)``.  It is the same
arithmetic step for step: ``SeedSequence``'s hash mixing, PCG64's 128-bit
LCG with XSL-RR output, the top 53 bits of an output for ``random()``,
Lemire's multiply-and-reject on 32-bit half-words (the unused high half
kept for the next one) for ``integers(n)``, masked rejection on the same
half-words for ``permutation``.  A sized draw is that many scalar draws
in numpy's C order (a ``(P, V)`` draw is ``P*V`` draws, index
``p*V+v``); tests/netsim/test_rng.py checks it draw for draw against numpy.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple, Union, overload

__all__ = ["PCG64Stream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M53, _TO_FLOAT = (1 << 53) - 1, 2.0**-53


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
        # XSL-RR: xor the halves, rotate right by the top 6 bits (a
        # shift of the value doubled to 128 bits).
        s = self._state = (self._state * _MULT + self._inc) & _M128
        hi = s >> 64
        x = hi ^ (s & _M64)
        return ((x | x << 64) >> (hi >> 58)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is not None:
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    @overload
    def random(self) -> float: ...
    @overload
    def random(self, size: int) -> List[float]: ...

    def random(self, size: Optional[int] = None) -> Union[float, List[float]]:
        """A float in ``[0, 1)``; with ``size``, a list of ``size`` of them."""
        if size is not None:
            # A loop, not a comprehension: closing over a local makes it a
            # cell, which every call (the scalar one too) pays to create.
            draw, out = self._next64, []
            for _ in range(size):
                out.append((draw() >> 11) * _TO_FLOAT)
            return out
        # _next64 inlined (the scalar draw runs once per terminal per
        # cycle), and its rotation fused with the ">> 11": the top 53 bits
        # of rotr(x, r) are bits r+11 .. r+63 of x doubled to 128 bits.
        s = self._state = (self._state * _MULT + self._inc) & _M128
        hi = s >> 64
        x = hi ^ (s & _M64)
        return (((x | x << 64) >> ((hi >> 58) + 11)) & _M53) * _TO_FLOAT

    @overload
    def integers(self, n: int) -> int: ...
    @overload
    def integers(self, n: int, size: int) -> List[int]: ...

    def integers(self, n: int, size: Optional[int] = None) -> Union[int, List[int]]:
        """An integer in ``[0, n)``; with ``size``, a list of ``size`` of
        them.  ``n == 1`` consumes no draw."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers({n!r}): n must be in [1, 2**32]")
        if n == 1:
            return 0 if size is None else [0] * size
        threshold = (1 << 32) % n  # numpy: (UINT32_MAX - (n - 1)) % n
        if size is None:
            m = self._next32() * n
            while (m & _M32) < threshold:
                m = self._next32() * n
            return m >> 32
        draw, out = self._next32, []
        for _ in range(size):
            m = draw() * n
            while (m & _M32) < threshold:
                m = draw() * n
            out.append(m >> 32)
        return out

    def permutation(self, n: int) -> List[int]:
        """``range(n)`` shuffled as numpy's ``permutation(n)`` shuffles it:
        Fisher-Yates from index ``n - 1`` down to 1, each swap partner
        drawn in ``[0, i]`` by masked rejection on a 32-bit draw."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
