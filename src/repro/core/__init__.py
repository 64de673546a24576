"""Allocator core: the paper's subject matter.

Behavioural models of the arbiters and allocators evaluated in
Becker & Dally, "Allocator Implementations for Network-on-Chip Routers"
(SC 2009): separable input-/output-first and wavefront allocators,
maximum-size matching as a quality yardstick, VC and switch allocator
front-ends, sparse VC allocation, and speculative switch allocation.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .arbiters import (
        Arbiter,
        FixedPriorityArbiter,
        MatrixArbiter,
        RoundRobinArbiter,
        TreeArbiter,
        make_arbiter,
    )
    from .base import (
        Allocator,
        as_request_matrix,
        is_matching,
        is_maximal_matching,
        matching_size,
    )
    from .islip import IterativeSLIPAllocator
    from .maxsize import MaximumSizeAllocator, hopcroft_karp, maximum_matching_size
    from .separable import (
        SeparableAllocator,
        SeparableInputFirstAllocator,
        SeparableOutputFirstAllocator,
    )
    from .speculative import (
        SPECULATION_SCHEMES,
        SpeculativeGrants,
        SpeculativeSwitchAllocator,
    )
    from .switch_allocator import (
        SWITCH_ALLOCATOR_ARCHS,
        SwitchAllocator,
        port_request_matrix,
    )
    from .vc_allocator import VC_ALLOCATOR_ARCHS, VCAllocator, VCRequest
    from .vc_partition import VCPartition
    from .wavefront import WavefrontAllocator

__all__ = [
    "Allocator",
    "Arbiter",
    "FixedPriorityArbiter",
    "IterativeSLIPAllocator",
    "MatrixArbiter",
    "MaximumSizeAllocator",
    "RoundRobinArbiter",
    "SeparableAllocator",
    "SeparableInputFirstAllocator",
    "SeparableOutputFirstAllocator",
    "SpeculativeGrants",
    "SpeculativeSwitchAllocator",
    "SwitchAllocator",
    "TreeArbiter",
    "VCAllocator",
    "VCPartition",
    "VCRequest",
    "WavefrontAllocator",
    "SPECULATION_SCHEMES",
    "SWITCH_ALLOCATOR_ARCHS",
    "VC_ALLOCATOR_ARCHS",
    "as_request_matrix",
    "hopcroft_karp",
    "is_matching",
    "is_maximal_matching",
    "make_arbiter",
    "matching_size",
    "maximum_matching_size",
    "port_request_matrix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arbiters": [
            "Arbiter",
            "FixedPriorityArbiter",
            "MatrixArbiter",
            "RoundRobinArbiter",
            "TreeArbiter",
            "make_arbiter",
        ],
        ".base": [
            "Allocator",
            "as_request_matrix",
            "is_matching",
            "is_maximal_matching",
            "matching_size",
        ],
        ".islip": ["IterativeSLIPAllocator"],
        ".maxsize": [
            "MaximumSizeAllocator",
            "hopcroft_karp",
            "maximum_matching_size",
        ],
        ".separable": [
            "SeparableAllocator",
            "SeparableInputFirstAllocator",
            "SeparableOutputFirstAllocator",
        ],
        ".speculative": [
            "SPECULATION_SCHEMES",
            "SpeculativeGrants",
            "SpeculativeSwitchAllocator",
        ],
        ".switch_allocator": [
            "SWITCH_ALLOCATOR_ARCHS",
            "SwitchAllocator",
            "port_request_matrix",
        ],
        ".vc_allocator": ["VC_ALLOCATOR_ARCHS", "VCAllocator", "VCRequest"],
        ".vc_partition": ["VCPartition"],
        ".wavefront": ["WavefrontAllocator"],
    },
)
