"""Topology descriptions: the paper's two 64-node networks plus a torus
extension exercising dateline resource classes (Section 4.2)."""

from typing import Dict

from .description import RoutingMode, TopologyDescription, assemble
from .fbfly import build_fbfly, fbfly_description
from .mesh import build_mesh, mesh_description
from .torus import build_torus, torus_description

__all__ = [
    "RoutingMode",
    "TopologyDescription",
    "TOPOLOGIES",
    "assemble",
    "describe",
    "mesh_description",
    "fbfly_description",
    "torus_description",
    "build_mesh",
    "build_fbfly",
    "build_torus",
]

#: The instances ``SimulationConfig.topology`` names (Section 3 / 5):
#: the paper's 8x8 mesh and 4x4 flattened butterfly with concentration
#: 4, and an 8x8 torus.
TOPOLOGIES: Dict[str, TopologyDescription] = {
    "mesh": mesh_description(8),
    "fbfly": fbfly_description(4, 4, 4, 0),
    "torus": torus_description(8),
}


def describe(topology: str) -> TopologyDescription:
    """The description ``SimulationConfig.topology`` names."""
    try:
        return TOPOLOGIES[topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of "
            f"{', '.join(map(repr, TOPOLOGIES))}"
        ) from None
