"""Synthetic traffic patterns beyond uniform random.

Section 3.2 notes that "additional simulation runs with other synthetic
traffic patterns suggest that our conclusions are largely invariant to
traffic pattern selection"; these standard patterns (Dally & Towles,
ch. 3) let the benchmarks check that claim.  Each helper returns a
``dest_fn`` compatible with :class:`repro.netsim.traffic.Terminal`.

Deterministic permutations that map a terminal to itself fall back to
a uniform random destination for that terminal (a self-addressed packet
would never enter the network).

``rng`` is the terminal's :class:`~repro.netsim.rng.PCG64Stream` (only
``random()`` and ``integers(n)`` are drawn).  Validating a config's
pattern (:func:`repro.netsim.config.validate_config`) imports this
module, and that must not load the terminal model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List

if TYPE_CHECKING:  # pragma: no cover
    from .rng import PCG64Stream

__all__ = [
    "uniform_random_dest",
    "transpose_pattern",
    "bit_complement_pattern",
    "bit_reverse_pattern",
    "shuffle_pattern",
    "neighbor_pattern",
    "hotspot_pattern",
]

DestFn = Callable[["PCG64Stream", int, int], int]


def uniform_random_dest(rng: PCG64Stream, src: int, num_terminals: int) -> int:
    """Uniform random traffic: any destination but self."""
    dest = int(rng.integers(num_terminals - 1))
    return dest if dest < src else dest + 1


def _permutation_fn(mapping: List[int]) -> DestFn:
    def pick(rng: PCG64Stream, src: int, num_terminals: int) -> int:
        dest = mapping[src]
        if dest == src:
            return uniform_random_dest(rng, src, num_terminals)
        return dest

    return pick


def _bits(num_terminals: int) -> int:
    b = int(math.log2(num_terminals))
    if 1 << b != num_terminals:
        raise ValueError("bit-permutation patterns need a power-of-two size")
    return b


def transpose_pattern(num_terminals: int) -> DestFn:
    """Matrix transpose: swap the high and low halves of the address."""
    b = _bits(num_terminals)
    half = b // 2
    if 2 * half != b:
        raise ValueError("transpose needs an even number of address bits")
    mask = (1 << half) - 1

    mapping = [((t & mask) << half) | (t >> half) for t in range(num_terminals)]
    return _permutation_fn(mapping)


def bit_complement_pattern(num_terminals: int) -> DestFn:
    """Destination is the bitwise complement of the source."""
    mapping = [t ^ (num_terminals - 1) for t in range(num_terminals)]
    return _permutation_fn(mapping)


def bit_reverse_pattern(num_terminals: int) -> DestFn:
    """Destination is the bit-reversed source address."""
    b = _bits(num_terminals)
    mapping = [
        int(format(t, f"0{b}b")[::-1], 2) for t in range(num_terminals)
    ]
    return _permutation_fn(mapping)


def shuffle_pattern(num_terminals: int) -> DestFn:
    """Perfect shuffle: rotate the address left by one bit."""
    b = _bits(num_terminals)
    top = 1 << (b - 1)
    mapping = [((t << 1) | (t >> (b - 1))) & (num_terminals - 1) for t in range(num_terminals)]
    del top
    return _permutation_fn(mapping)


def neighbor_pattern(num_terminals: int, offset: int = 1) -> DestFn:
    """Each terminal sends to (src + offset) mod N."""
    mapping = [(t + offset) % num_terminals for t in range(num_terminals)]
    return _permutation_fn(mapping)


def hotspot_pattern(
    hotspots: List[int], hot_fraction: float = 0.2
) -> DestFn:
    """Background uniform traffic plus a fraction aimed at hotspots."""
    if not hotspots:
        raise ValueError("need at least one hotspot terminal")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")

    def pick(rng: PCG64Stream, src: int, num_terminals: int) -> int:
        if rng.random() < hot_fraction:
            dest = hotspots[int(rng.integers(len(hotspots)))]
            if dest != src:
                return dest
        return uniform_random_dest(rng, src, num_terminals)

    return pick
