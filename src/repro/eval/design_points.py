"""The paper's design points and allocator variant enumerations.

Six design points (Section 3): an 8x8 mesh (P=5, one terminal per
router) and a 4x4 flattened butterfly with concentration 4 (P=10), each
with 1, 2 or 4 VCs per packet class.  Mesh points are 2x1xC (request/
reply message classes, one resource class); flattened-butterfly points
are 2x2xC (UGAL adds a second resource class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.vc_partition import VCPartition
from ..netsim.topology import describe

__all__ = [
    "DesignPoint",
    "MESH_POINTS",
    "FBFLY_POINTS",
    "ALL_POINTS",
    "VC_VARIANTS",
    "SWITCH_VARIANTS",
    "SPECULATION_SCHEMES",
]


@dataclass(frozen=True)
class DesignPoint:
    """One (topology, VC configuration) evaluation point."""

    topology: str  # "mesh" | "fbfly"
    num_ports: int
    vcs_per_class: int

    @classmethod
    def paper(cls, topology: str, vcs_per_class: int) -> "DesignPoint":
        """The paper's router for ``topology``: its description's radix."""
        return cls(topology, describe(topology).num_ports, vcs_per_class)

    @property
    def partition(self) -> VCPartition:
        mode = describe(self.topology).mode("default")
        return mode.partition(self.vcs_per_class)

    @property
    def num_vcs(self) -> int:
        return self.partition.num_vcs

    @property
    def label(self) -> str:
        return f"{self.topology} {self.partition.describe()}"


MESH_POINTS: Tuple[DesignPoint, ...] = tuple(
    DesignPoint.paper("mesh", c) for c in (1, 2, 4)
)
FBFLY_POINTS: Tuple[DesignPoint, ...] = tuple(
    DesignPoint.paper("fbfly", c) for c in (1, 2, 4)
)
ALL_POINTS: Tuple[DesignPoint, ...] = MESH_POINTS + FBFLY_POINTS

# (arch, arbiter) pairs plotted in Figures 5/6/10/11.  The wavefront
# variant uses round-robin pre-selection arbiters only (Section 4.3.1).
VC_VARIANTS: List[Tuple[str, str]] = [
    ("sep_if", "m"),
    ("sep_if", "rr"),
    ("sep_of", "m"),
    ("sep_of", "rr"),
    ("wf", "rr"),
]
SWITCH_VARIANTS: List[Tuple[str, str]] = list(VC_VARIANTS)

# Order matches the three points per curve in Figures 10/11.
SPECULATION_SCHEMES: Tuple[str, ...] = ("nonspec", "pessimistic", "conventional")
