"""repro -- reproduction of Becker & Dally, SC 2009.

"Allocator Implementations for Network-on-Chip Routers": VC and switch
allocator architectures, sparse VC allocation, pessimistic speculative
switch allocation, a 45nm-class gate-level cost model standing in for
the paper's Synopsys Design Compiler flow, and a cycle-accurate NoC
simulator for the network-level experiments.

Subpackages
-----------
``repro.core``
    Behavioural allocators and arbiters (the paper's contribution).
``repro.hw``
    Gate-level netlists, static timing, area and power estimation.
``repro.netsim``
    Cycle-accurate VC-router network simulator (mesh, flattened
    butterfly, DOR/UGAL routing, request-reply traffic).
``repro.eval``
    Experiment harness regenerating every figure of the paper.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from . import core, eval, hw, netsim
    from .core import (
        MatrixArbiter,
        MaximumSizeAllocator,
        RoundRobinArbiter,
        SeparableInputFirstAllocator,
        SeparableOutputFirstAllocator,
        SpeculativeSwitchAllocator,
        SwitchAllocator,
        VCAllocator,
        VCPartition,
        VCRequest,
        WavefrontAllocator,
    )

__version__ = "1.0.0"

__all__ = [
    "core",
    "eval",
    "hw",
    "netsim",
    "MatrixArbiter",
    "MaximumSizeAllocator",
    "RoundRobinArbiter",
    "SeparableInputFirstAllocator",
    "SeparableOutputFirstAllocator",
    "SpeculativeSwitchAllocator",
    "SwitchAllocator",
    "VCAllocator",
    "VCPartition",
    "VCRequest",
    "WavefrontAllocator",
    "__version__",
]

# Resolved on first access (PEP 562), so ``import repro`` -- which every
# ``python -m repro`` command pays -- loads no subsystem.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": [
            "MatrixArbiter",
            "MaximumSizeAllocator",
            "RoundRobinArbiter",
            "SeparableInputFirstAllocator",
            "SeparableOutputFirstAllocator",
            "SpeculativeSwitchAllocator",
            "SwitchAllocator",
            "VCAllocator",
            "VCPartition",
            "VCRequest",
            "WavefrontAllocator",
        ],
    },
    submodules=["core", "eval", "hw", "netsim"],
)
